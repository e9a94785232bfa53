"""Decomposed conditional model over binary output vectors.

Instead of one joint model of P(Y | X), each output dimension i gets its
own factor. In full_conditional mode factor i models

    P(y_i | x, y_-i)

where y_-i are the remaining observed outputs, so the factors form a set
of full conditionals rather than an ordered chain: the conditionals of a
pseudo-likelihood (Besag 1975), or of a dependency network (Heckerman et
al., JMLR 2000). In independent mode factor i models P(y_i | x) alone,
which is the product-of-marginals baseline. Scoring maps a dataset to an
N x d matrix of probabilities assigned to the observed output values
(rho), the basis of all ranking scores downstream.

All factors of a mode read one design: the standardized inputs X in
independent mode, [X, Y] in full_conditional mode, where factor i holds
the weight of its own output y_i at 0 and stores the other m + d - 1. So
a mode's factors are fit as one stack, its penalties cross-validated as
one stack per fold, and its rho computed with one product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .dataset import Dataset, StandardizationStats, is_seed, standardize
from .optim import (DEFAULT_LAMBDA_GRID, ConstantFactor, PROB_EPS,
                    _checked_grid, check_folds, cross_validate_lambda,
                    observed_prob, predict_prob_stack, train_logistic_columns)

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
        if values.ndim != 2 or values.shape[0] < 1:
            raise DomainError("rho must be a 2-dimensional matrix with at "
                              "least one row")
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
    def arity(self) -> int:
        """Weights each logistic factor stores: the m inputs, and in
        full_conditional mode the d - 1 other outputs too."""
        return self.m if self.mode == INDEPENDENT else self.m + self.d - 1

    @property
    def lambdas(self) -> tuple:
        """Each factor's penalty, None for a ConstantFactor."""
        return tuple(None if isinstance(f, ConstantFactor) else f.lam
                     for f in self.factors)


def _design(mode: str, X_std: np.ndarray, Y: np.ndarray):
    """(features, pinned): the matrix every factor of the mode reads, and
    the column of each factor's own output in it, or None in independent
    mode. full_conditional: standardized inputs followed by the outputs
    (raw 0/1). independent: inputs only."""
    if mode == INDEPENDENT:
        return X_std, None
    return (np.hstack([X_std, Y.astype(np.float64)]),
            X_std.shape[1] + np.arange(Y.shape[1]))


def check_mode(mode: str, d: int):
    """Reject an unknown mode, or one the d output dimensions cannot fit."""
    if mode not in MODES:
        raise ConfigError(f"unknown model mode {mode!r}, expected one of {MODES}")
    if mode == FULL_CONDITIONAL and d < 2:
        raise ConfigError(
            "full_conditional mode needs at least 2 output dimensions")


def check_policy(policy, n=None):
    """A ConfigError unless policy is a FixedLambda or CvLambda whose values
    pass is_penalty, check_folds (with n, if given) and make_rng's is_seed."""
    if not isinstance(policy, (FixedLambda, CvLambda)):
        raise ConfigError(f"unknown lambda policy {policy!r}")
    _checked_grid(policy.grid if isinstance(policy, CvLambda)
                  else (policy.value,))
    if isinstance(policy, CvLambda):
        check_folds(policy.folds, n)
        if not is_seed(policy.seed):
            raise ConfigError(f"seed must be a non-negative integer, got "
                              f"{policy.seed!r}")


def fit_mcode(ds: Dataset, mode: str = FULL_CONDITIONAL,
              lambda_policy=CvLambda()) -> McodeModel:
    """Fit one factor per output dimension on the given dataset.

    The penalty for each factor comes from the policy: FixedLambda uses
    the value as-is, CvLambda runs a grid search for every dimension at
    once. Dimensions with constant labels enter no stack, in the search
    or after it, and become ConstantFactors with recorded penalty None.
    """
    check_mode(mode, ds.d)
    check_policy(lambda_policy, ds.n)

    ds_std, stats = standardize(ds)
    Y = ds.Y.astype(np.float64)
    features, pinned = _design(mode, ds_std.X, Y)
    if isinstance(lambda_policy, FixedLambda):
        lams = np.full(ds.d, float(lambda_policy.value))
    else:
        lams = cross_validate_lambda(
            features, Y, grid=lambda_policy.grid, n_folds=lambda_policy.folds,
            seed=lambda_policy.seed, pinned=pinned)
    factors = train_logistic_columns(features, Y, lams, pinned)
    return McodeModel(mode=mode, stats=stats, factors=factors)


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
    prob = np.empty((ds.n, ds.d))
    with np.errstate(over="ignore", invalid="ignore"):
        X_std = model.stats.apply(ds.X)
        features, pinned = _design(model.mode, X_std, ds.Y)
        fitted = []
        for i, factor in enumerate(model.factors):
            if isinstance(factor, ConstantFactor):
                prob[:, i] = np.clip(factor.prob_one, PROB_EPS,
                                     1.0 - PROB_EPS)
                continue
            if factor.arity != model.arity:
                raise DomainError(f"factor {i} has arity {factor.arity}, "
                                  f"expected {model.arity}")
            weights = factor.weights if pinned is None else \
                np.insert(factor.weights, pinned[i], 0.0)
            fitted.append((i, np.append(weights, factor.intercept)))
        if fitted:
            rows, params = zip(*fitted)
            prob[:, list(rows)] = predict_prob_stack(np.array(params),
                                                     features).T
    if np.isnan(prob).any():
        raise DomainError("the model's parameters overflow float64 on this "
                          "data: a logit is undefined")
    return RhoMatrix(observed_prob(prob, ds.Y))
