"""Reliability weights and outlier scores over a rho matrix.

Every score is one formula, an instance's weighted negative log
pseudo-joint -sum_i w_i * log rho_i, and the variants differ only in the
shape of the weights:

  PROD  the scalar 1: unit weights.
  RW    a d-vector of global reliability weights,
        w_i = N / sum_n (1 - rho_i^(n)): the less a dimension's model
        errs across the dataset, the more a surprise on that dimension
        counts.
  LRW   an N x d matrix: the same construction restricted to each
        instance's k nearest neighbors in input space.

Errors are e = 1 - rho. Because rho is clamped to [eps, 1 - eps], every
weight is finite and lies in [1, 1/eps].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DomainError
from .model import RhoMatrix


@dataclass(frozen=True)
class WeightVector:
    """Global per-dimension reliability weights."""
    w: np.ndarray


@dataclass(frozen=True)
class LocalWeightMatrix:
    """Per-instance, per-dimension reliability weights from k-neighborhoods."""
    w: np.ndarray
    k: int


@dataclass(frozen=True)
class ScoreVector:
    """Per-instance outlier scores plus the tag of the formula used."""
    scores: np.ndarray
    method: str


class NeighborIndex:
    """Exact Euclidean k-nearest-neighbor lookup over a fixed point set.

    query_all lists each point's neighbors among the same points in
    non-decreasing distance order, ties broken by ascending index, so a
    point counts as its own neighbor at distance zero.
    """

    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise DomainError("points must be a non-empty 2-dimensional array")
        if not np.isfinite(points).all():
            raise DomainError("points contain non-finite values")
        self.points = points

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def _check_k(self, k: int):
        if not isinstance(k, (int, np.integer)) or not (1 <= k <= self.n):
            raise DomainError(
                f"k must be an integer in [1, {self.n}], got {k!r}")

    def query_all(self, k: int) -> np.ndarray:
        """(n, k) neighbor indices for every reference point at once."""
        self._check_k(k)
        dists = cdist(self.points, self.points)
        return np.argsort(dists, axis=1, kind="stable")[:, :k]


def global_weights(rho: RhoMatrix) -> WeightVector:
    """w_i = N / sum over instances of the dimension-i error (1 - rho)."""
    errors = 1.0 - rho.values
    return WeightVector(w=rho.n / errors.sum(axis=0))


def local_weights(rho: RhoMatrix, index: NeighborIndex,
                  k: int) -> LocalWeightMatrix:
    """Per-instance weights from each instance's k-nearest neighborhood.

    Neighborhoods come from the index (the instance itself included,
    being at distance zero), and errors are summed in ascending index
    order so that k = N reproduces global_weights exactly.
    """
    if index.n != rho.n:
        raise DomainError(
            f"index holds {index.n} points but rho has {rho.n} rows")
    members = np.sort(index.query_all(k), axis=1)
    return LocalWeightMatrix(w=k / (1.0 - rho.values)[members].sum(axis=1),
                             k=k)


def _weighted_score(rho: RhoMatrix, w, method: str) -> ScoreVector:
    """-sum_i w_i log rho_i per instance, w broadcast against rho."""
    return ScoreVector(scores=(-np.log(rho.values) * w).sum(axis=1),
                       method=method)


def score_prod(rho: RhoMatrix) -> ScoreVector:
    """Unweighted negative log pseudo-joint of each instance."""
    return _weighted_score(rho, 1.0, "PROD")


def score_rw(rho: RhoMatrix, weights: WeightVector) -> ScoreVector:
    """Globally reliability-weighted negative log score."""
    if weights.w.shape != (rho.d,):
        raise DomainError(
            f"expected {rho.d} weights, got shape {weights.w.shape}")
    return _weighted_score(rho, weights.w, "RW")


def score_lrw(rho: RhoMatrix, local: LocalWeightMatrix) -> ScoreVector:
    """Locally reliability-weighted negative log score."""
    if local.w.shape != rho.values.shape:
        raise DomainError(
            f"local weights shape {local.w.shape} does not match rho "
            f"shape {rho.values.shape}")
    return _weighted_score(rho, local.w, "LRW")


def brier_per_dimension(rho: RhoMatrix) -> np.ndarray:
    """Mean squared error (1 - rho)^2 per output dimension.

    A diagnostic of per-dimension model quality, not an outlier score:
    the forecast probability of the observed outcome is rho, so the
    squared forecast error is (1 - rho)^2.
    """
    return ((1.0 - rho.values) ** 2).mean(axis=0)


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """Instance indices from highest score to lowest, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.argsort(-scores, kind="stable")


def write_score_table(path, sv: ScoreVector, comments=()) -> None:
    """Write (instance_index, method, score) rows, highest score first."""
    order = rank_descending(sv.scores)
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("instance_index,method,score\n")
        for idx in order:
            fh.write(f"{int(idx)},{sv.method},{repr(float(sv.scores[idx]))}\n")


def load_score_table(path):
    """Read a score table back as (scores indexed by instance, method)."""
    from .errors import DataError

    entries = []
    method = None
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from exc
    for line_num, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "instance_index,method,score":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}: line {line_num}: expected 3 fields")
        try:
            idx = int(parts[0])
            score = float(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}: line {line_num}: {exc}") from exc
        if method is None:
            method = parts[1]
        elif parts[1] != method:
            raise DataError(
                f"{path}: line {line_num}: mixed methods "
                f"{method!r} and {parts[1]!r}")
        entries.append((idx, score))
    if not entries:
        raise DataError(f"{path}: no score rows")
    n = len(entries)
    indices = np.array([e[0] for e in entries])
    if sorted(indices.tolist()) != list(range(n)):
        raise DataError(
            f"{path}: instance indices are not a permutation of 0..{n - 1}")
    scores = np.empty(n)
    scores[indices] = [e[1] for e in entries]
    return scores, method
