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
from .dataset import Dataset, StandardizationStats, standardize
from .optim import (DEFAULT_LAMBDA_GRID, ConstantFactor, PROB_EPS,
                    cross_validate_lambda, factor_from_dict, factor_to_dict,
                    predict_prob_batch, train_logistic,
                    train_logistic_columns)

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
    """The fitted factors, one per output dimension in order, plus the
    feature standardization they were fit under."""

    mode: str
    stats: StandardizationStats
    factors: tuple

    @property
    def m(self) -> int:
        return self.stats.means.shape[0]

    @property
    def d(self) -> int:
        return len(self.factors)

    @property
    def lambdas(self) -> tuple:
        """Each factor's penalty, None for a ConstantFactor."""
        return tuple(None if isinstance(f, ConstantFactor) else f.lam
                     for f in self.factors)


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

    Y = ds.Y.astype(np.float64)
    lams = []
    for i in range(ds.d):
        if Y[:, i].min() == Y[:, i].max():
            lams.append(0.0)
        elif isinstance(lambda_policy, FixedLambda):
            lams.append(float(lambda_policy.value))
        else:
            lams.append(cross_validate_lambda(
                factor_features(mode, X_std, ds.Y, i), Y[:, i],
                grid=lambda_policy.grid, n_folds=lambda_policy.folds,
                seed=lambda_policy.seed))

    if mode == INDEPENDENT:
        # Every factor reads X_std alone: one stack of d label columns.
        factors = train_logistic_columns(X_std, Y, lams)
    else:
        factors = [train_logistic(factor_features(mode, X_std, ds.Y, i),
                                  Y[:, i], lam)
                   for i, lam in enumerate(lams)]
    return McodeModel(mode=mode, stats=stats, factors=tuple(factors))


def estimate_rho(model: McodeModel, ds: Dataset) -> RhoMatrix:
    """Probability each fitted factor assigns to the observed output values.

    rho[n, i] = P(y_i = 1 | features) when instance n has y_i = 1, and the
    complement when it has y_i = 0. A standardized input or a logit that
    overflows to +-inf gives its limit; one left undefined (inf - inf) is a
    DomainError, which a model of finite but extreme parameters can raise.
    """
    if ds.m != model.m or ds.d != model.d:
        raise DomainError(
            f"dataset shape (m={ds.m}, d={ds.d}) does not match model "
            f"(m={model.m}, d={model.d})")
    values = np.empty((ds.n, ds.d))
    with np.errstate(over="ignore", invalid="ignore"):
        X_std = model.stats.apply(ds.X)
        for i, factor in enumerate(model.factors):
            feats = factor_features(model.mode, X_std, ds.Y, i)
            p = predict_prob_batch(factor, feats)
            values[:, i] = np.where(ds.Y[:, i] == 1, p, 1.0 - p)
    if np.isnan(values).any():
        raise DomainError("the model's parameters overflow float64 on this "
                          "data: a logit is undefined")
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
            json.dump(factor_to_dict(factor, i), fh, indent=2, sort_keys=True)
            fh.write("\n")
        factor_files.append(name)
    manifest = {
        "format": "mcode-model",
        "mode": model.mode,
        "means": [float(v) for v in model.stats.means],
        "std_devs": [float(v) for v in model.stats.std_devs],
        "factors": factor_files,
    }
    if meta:
        manifest["_meta"] = meta
    with open(root / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: undecodable bytes or JSON, or a NUL in the name
        raise DataError(f"{path}: not readable JSON: {exc}") from exc


def _load_factor(path, dim_index: int):
    try:
        return factor_from_dict(_load_json(path), dim_index)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _plain_file_name(name: str) -> bool:
    """A name that can only mean a file in the directory itself: without
    a separator no name is absolute or leaves the directory."""
    return name not in ("", ".", "..") and "/" not in name and \
        "\\" not in name


def load_model(path) -> McodeModel:
    """Read a directory written by save_model. Manifest keys it does not
    read (m, d and lambdas, which older versions wrote) are ignored."""
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
        means = np.asarray(manifest["means"], dtype=np.float64)
        std_devs = np.asarray(manifest["std_devs"], dtype=np.float64)
        names = manifest["factors"]
        if means.ndim != 1 or not means.size or \
                means.shape != std_devs.shape:
            raise ValueError("means and std_devs must be non-empty lists of "
                             "equal length")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        if not (np.isfinite(std_devs) & (std_devs > 0.0)).all():
            raise ValueError("std_devs must be finite and positive")
        if not isinstance(names, list) or not names or \
                not all(isinstance(name, str) for name in names):
            raise ValueError("factors must be a non-empty list of file names")
        for name in names:
            if not _plain_file_name(name):
                raise ValueError(f"factor file {name!r} is not a plain file "
                                 f"name in the model directory")
        check_mode(mode, len(names))
    except (KeyError, TypeError, ValueError, OverflowError,
            ConfigError) as exc:
        raise DataError(f"{manifest_path}: malformed manifest: {exc}") from exc

    factors = tuple(_load_factor(root / name, i)
                    for i, name in enumerate(names))
    model = McodeModel(mode, StandardizationStats(means, std_devs), factors)
    expected_arity = {FULL_CONDITIONAL: model.m + model.d - 1,
                      INDEPENDENT: model.m}[mode]
    for i, factor in enumerate(model.factors):
        if not isinstance(factor, ConstantFactor) and \
                factor.arity != expected_arity:
            raise DataError(
                f"{root / names[i]}: factor {i} has arity {factor.arity}, "
                f"expected {expected_arity}")
    return model
