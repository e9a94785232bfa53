"""Local outlier factor over the joint feature space.

Density-ratio baseline: a point is scored by how much sparser its
neighborhood is than its neighbors' own neighborhoods.

    reach_k(p, o) = max(k-distance(o), dist(p, o))
    lrd(p)  = |N_k(p)| / sum_{o in N_k(p)} reach_k(p, o)
    LOF(p)  = mean_{o in N_k(p)} lrd(o) / lrd(p)

The neighborhood N_k(p) excludes p itself and contains every other point
within the k-distance, so it can exceed k members when distances tie.
Reach distances are floored at a small positive value before dividing so
duplicated points produce large but finite densities.

Neighborhoods come from NeighborIndex's blocked walker, as LRW's do, so
memory is O(block x N) plus the neighbor lists, held once; lrd and LOF
are gathers. The walker screens each block with one BLAS product of
approximate squared distances, and each row measures exactly only the
points that the screen's forward-error bound cannot place beyond its
k-distance. An untied row takes its k nearest; a row with more than k
points within its k-distance, a tie across the cut, takes every one of
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .scoring import NeighborIndex, ScoreVector

_DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class LofConfig:
    k: int = 100


def lof_scores(points, config: LofConfig = LofConfig()) -> ScoreVector:
    """LOF score for every point of the set, as a ScoreVector."""
    index = NeighborIndex(points)
    n = index.n
    if n < 2:
        raise DomainError("LOF needs at least 2 points")
    k = config.k
    if not isinstance(k, (int, np.integer)) or not (1 <= k < n):
        raise ConfigError(f"k must be an integer in [1, {n - 1}], got {k!r}")

    # (point, neighbor, distance) runs, by point, then by neighbor: an
    # untied row is its k selected columns, a tied row every column
    # within its k-distance; both come in ascending column order, which
    # the stable sort by point keeps
    parts = []
    for rows, dcols, dist, cols, near, kth, tied in index._blocks(
            k, exclude_self=True):
        untied, tied = np.flatnonzero(~tied), np.flatnonzero(tied)
        r, s = np.nonzero(dist <= kth[tied, None])
        owner = np.concatenate([np.repeat(untied, k), tied[r]])
        order = np.argsort(owner, kind="stable")
        parts.append((rows[owner[order]],
                      np.concatenate([cols[untied].ravel(),
                                      dcols[r, s]])[order],
                      np.concatenate([near[untied].ravel(),
                                      dist[r, s]])[order],
                      kth))
    owner, nbr, nbr_dist, kdist = map(np.concatenate, zip(*parts))
    del parts  # the runs are held once from here on
    sizes = np.bincount(owner, minlength=n)

    reach = np.maximum(np.maximum(kdist[nbr], nbr_dist), _DISTANCE_FLOOR)
    lrd = sizes / _row_sums(reach, sizes)
    scores = _row_sums(lrd[nbr] / lrd[owner], sizes) / sizes
    return ScoreVector(scores=scores, method="LOF")


def _row_sums(values, sizes) -> np.ndarray:
    """Sum of each point's run of values, runs laid end to end; runs of one
    length are the rows of one block, so each sums bitwise as its own."""
    sums = np.empty(sizes.shape[0])
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        sums[rows] = values[starts[rows, None] + np.arange(size)].sum(axis=1)
    return sums
