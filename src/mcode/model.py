"""Decomposed conditional model over binary output vectors.

Instead of one joint model of P(Y | X), each output dimension i gets its
own factor. In full_conditional mode factor i models

    P(y_i | x, y_-i)

where y_-i are the remaining observed outputs, so the factors form a set
of full conditionals rather than an ordered chain. In independent mode
factor i models P(y_i | x) alone, which is the product-of-marginals
baseline. Scoring maps a dataset to an N x d matrix of probabilities
assigned to the observed output values (rho), the basis of all ranking
scores downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .dataset import Dataset, StandardizationStats, json_int, standardize
from .optim import (DEFAULT_LAMBDA_GRID, ConstantFactor, PROB_EPS,
                    cross_validate_lambda, factor_from_dict, factor_to_dict,
                    predict_prob_batch, train_logistic)

FULL_CONDITIONAL = "full_conditional"
INDEPENDENT = "independent"
MODES = (FULL_CONDITIONAL, INDEPENDENT)


@dataclass(frozen=True)
class FixedLambda:
    """Use one penalty value for every factor."""
    value: float


@dataclass(frozen=True)
class CvLambda:
    """Choose each factor's penalty by seeded k-fold cross-validation."""
    grid: tuple = DEFAULT_LAMBDA_GRID
    folds: int = 5
    seed: int = 0


@dataclass(frozen=True)
class RhoMatrix:
    """N x d matrix of conditional probabilities of the observed outputs.

    Entry (n, i) is the fitted factor's probability of the value y_i that
    instance n actually has, clamped into [PROB_EPS, 1 - PROB_EPS].
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DomainError("rho must be a 2-dimensional matrix")
        if not ((values >= PROB_EPS) & (values <= 1.0 - PROB_EPS)).all():
            raise DomainError("rho entries must lie in [eps, 1 - eps]")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class McodeModel:
    """Bundle of d fitted factors plus the feature standardization used."""

    mode: str
    m: int
    d: int
    stats: StandardizationStats
    factors: tuple
    lambdas: tuple  # chosen penalty per dimension, None for constant factors


def factor_features(mode: str, X_std: np.ndarray, Y: np.ndarray,
                    dim: int) -> np.ndarray:
    """Feature matrix for the factor of output dimension dim.

    full_conditional: standardized inputs followed by the other outputs
    (raw 0/1, in ascending dimension order). independent: inputs only.
    """
    if mode == INDEPENDENT:
        return X_std
    other = np.delete(np.arange(Y.shape[1]), dim)
    return np.hstack([X_std, Y[:, other].astype(np.float64)])


def check_mode(mode: str, d: int):
    """Reject an unknown mode, or one the d output dimensions cannot fit."""
    if mode not in MODES:
        raise ConfigError(f"unknown model mode {mode!r}, expected one of {MODES}")
    if mode == FULL_CONDITIONAL and d < 2:
        raise ConfigError(
            "full_conditional mode needs at least 2 output dimensions")


def fit_mcode(ds: Dataset, mode: str = FULL_CONDITIONAL,
              lambda_policy=None) -> McodeModel:
    """Fit one factor per output dimension on the given dataset.

    The penalty for each factor comes from the policy: FixedLambda uses
    the value as-is, CvLambda runs a per-dimension grid search. Dimensions
    with constant labels become ConstantFactors and skip the search; their
    recorded penalty is None.
    """
    check_mode(mode, ds.d)
    if lambda_policy is None:
        lambda_policy = CvLambda()
    if not isinstance(lambda_policy, (FixedLambda, CvLambda)):
        raise ConfigError(f"unknown lambda policy {lambda_policy!r}")

    ds_std, stats = standardize(ds)
    X_std = ds_std.X

    factors = []
    lambdas = []
    for i in range(ds.d):
        labels = ds.Y[:, i].astype(np.float64)
        feats = factor_features(mode, X_std, ds.Y, i)
        if labels.min() == labels.max():
            factor = train_logistic(feats, labels, 0.0, dim_index=i)
            lambdas.append(None)
        else:
            if isinstance(lambda_policy, FixedLambda):
                lam = float(lambda_policy.value)
            else:
                lam = cross_validate_lambda(
                    feats, labels, grid=lambda_policy.grid,
                    n_folds=lambda_policy.folds, seed=lambda_policy.seed)
            factor = train_logistic(feats, labels, lam, dim_index=i)
            lambdas.append(lam)
        factors.append(factor)

    return McodeModel(mode=mode, m=ds.m, d=ds.d, stats=stats,
                      factors=tuple(factors), lambdas=tuple(lambdas))


def estimate_rho(model: McodeModel, ds: Dataset) -> RhoMatrix:
    """Probability each fitted factor assigns to the observed output values.

    rho[n, i] = P(y_i = 1 | features) when instance n has y_i = 1, and the
    complement when it has y_i = 0.
    """
    if ds.m != model.m or ds.d != model.d:
        raise DomainError(
            f"dataset shape (m={ds.m}, d={ds.d}) does not match model "
            f"(m={model.m}, d={model.d})")
    X_std = model.stats.apply(ds.X)
    values = np.empty((ds.n, ds.d))
    for i, factor in enumerate(model.factors):
        feats = factor_features(model.mode, X_std, ds.Y, i)
        p = predict_prob_batch(factor, feats)
        values[:, i] = np.where(ds.Y[:, i] == 1, p, 1.0 - p)
    return RhoMatrix(np.clip(values, PROB_EPS, 1.0 - PROB_EPS))


MANIFEST_NAME = "manifest.json"


def save_model(model: McodeModel, path, meta: dict | None = None) -> None:
    """Write the model as a directory: manifest plus one file per factor."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    factor_files = []
    for i, factor in enumerate(model.factors):
        name = f"factor_{i:03d}.json"
        with open(root / name, "w") as fh:
            json.dump(factor_to_dict(factor), fh, indent=2, sort_keys=True)
            fh.write("\n")
        factor_files.append(name)
    manifest = {
        "format": "mcode-model",
        "mode": model.mode,
        "m": int(model.m),
        "d": int(model.d),
        "means": [float(v) for v in model.stats.means],
        "std_devs": [float(v) for v in model.stats.std_devs],
        "lambdas": [None if v is None else float(v) for v in model.lambdas],
        "factors": factor_files,
    }
    if meta:
        manifest["_meta"] = meta
    with open(root / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc


def _load_factor(path):
    try:
        return factor_from_dict(_load_json(path))
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_model(path) -> McodeModel:
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataError(f"{root}: no {MANIFEST_NAME} found")
    manifest = _load_json(manifest_path)
    if not isinstance(manifest, dict) or \
            manifest.get("format") != "mcode-model":
        raise DataError(f"{manifest_path}: not a model manifest")
    try:
        mode = manifest["mode"]
        m = json_int(manifest["m"])
        d = json_int(manifest["d"])
        stats = StandardizationStats(
            means=np.asarray(manifest["means"], dtype=np.float64),
            std_devs=np.asarray(manifest["std_devs"], dtype=np.float64))
        lambdas = tuple(None if v is None else float(v)
                        for v in manifest["lambdas"])
        factor_paths = [root / name for name in manifest["factors"]]
        if len(factor_paths) != d or len(lambdas) != d:
            raise DataError(
                f"{manifest_path}: lists {len(factor_paths)} factors and "
                f"{len(lambdas)} lambdas for d={d}")
        check_mode(mode, d)
    except (KeyError, TypeError, ValueError, OverflowError,
            ConfigError) as exc:
        raise DataError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if stats.means.shape != (m,) or stats.std_devs.shape != (m,):
        raise DataError(
            f"{manifest_path}: means and std_devs must each hold m={m} values")

    factors = tuple(_load_factor(p) for p in factor_paths)
    expected_arity = {FULL_CONDITIONAL: m + d - 1, INDEPENDENT: m}[mode]
    for i, factor in enumerate(factors):
        if factor.dim_index != i:
            raise DataError(
                f"{manifest_path}: lists the factor of dimension "
                f"{factor.dim_index} at position {i}")
        if not isinstance(factor, ConstantFactor) and \
                factor.arity != expected_arity:
            raise DataError(
                f"{root}: factor {factor.dim_index} has arity {factor.arity}, "
                f"expected {expected_arity}")
    return McodeModel(mode=mode, m=m, d=d, stats=stats,
                      factors=factors, lambdas=lambdas)
