"""Training of per-dimension probabilistic factors.

Each factor models P(y=1 | features) as a logistic function and is fit by
minimizing the L2-penalized negative log-likelihood

    f(w, b) = sum_n [log(1 + exp(z_n)) - y_n z_n] + 0.5 * lam * ||w||^2,
    z_n = x_n . w + b,

with the intercept b left unpenalized. The objective is smooth and convex
(strictly convex in w for lam > 0), and a factor has few features, so a
damped Newton method whose line search tests ||g||, as its stopping rule
does, reaches the unique optimum from any start in a handful of iterations.
Degenerate single-class label vectors fall back to a constant factor with
a Laplace-smoothed probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit

from .errors import ConfigError, DomainError, NumericalError
from .dataset import json_int, make_rng

# Probability estimates are clamped into [PROB_EPS, 1 - PROB_EPS] so their
# logs stay finite everywhere downstream.
PROB_EPS = 1e-12

GRAD_TOL = 1e-6
MAX_ITER = 500
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

# Count of Newton solver runs performed in this process. Diagnostic only,
# used by the CLI to report how much training a command actually did.
_optimizer_runs = 0


def optimizer_run_count() -> int:
    return _optimizer_runs


@dataclass(frozen=True)
class LogisticFactor:
    """Fitted logistic factor for one output dimension."""

    lam: float
    weights: np.ndarray
    intercept: float
    final_gradient_norm: float

    @property
    def arity(self) -> int:
        return self.weights.shape[0]

    @property
    def converged(self) -> bool:
        return self.final_gradient_norm <= GRAD_TOL


@dataclass(frozen=True)
class ConstantFactor:
    """Fallback factor for a dimension whose training labels were constant.

    prob_one is Laplace-smoothed: (count of ones + 1) / (N + 2).
    """

    prob_one: float


def penalized_nll(params, features, labels, lam):
    """Objective value and gradient at params = [weights..., intercept]."""
    w = params[:-1]
    b = params[-1]
    z = features @ w + b
    # log(1 + e^z) - y*z, computed via logaddexp to avoid overflow
    value = float(np.logaddexp(0.0, z).sum() - labels @ z
                  + 0.5 * lam * (w @ w))
    residual = expit(z) - labels
    grad = np.empty(params.shape[0])
    grad[:-1] = features.T @ residual + lam * w
    grad[-1] = residual.sum()
    return value, grad


def _newton(features, labels, lam, params):
    """Damped Newton on penalized_nll from params; returns (params, ||g||).

    Each iteration solves (X'WX + lam * I_w) d = -g by Cholesky, with the
    intercept column left out of the penalty, or takes d = -g when that
    Hessian is not positive definite. Halving t from 1, it accepts the first
    step with finite f and ||g(x + t d)|| <= (1 - 1e-4 t) ||g(x)||. The merit
    ||g||^2 / 2 has slope -||g||^2 along the Newton d, so the test can be met,
    and it is the stopping rule's own measure: float64 resolves ||g|| far
    below GRAD_TOL, where the rounding of f, a sum of N terms, would not.
    """
    global _optimizer_runs
    _optimizer_runs += 1

    design = np.hstack([features, np.ones((features.shape[0], 1))])
    ridge = np.full(design.shape[1], lam)
    ridge[-1] = 0.0
    f, g = penalized_nll(params, features, labels, lam)
    if not np.isfinite(f) or not np.isfinite(g).all():
        raise NumericalError("objective not finite at the starting point")
    gnorm = float(np.linalg.norm(g))

    for _ in range(MAX_ITER):
        if gnorm <= GRAD_TOL:
            break
        prob = expit(design @ params)
        hess = (design.T * (prob * (1.0 - prob))) @ design + np.diag(ridge)
        try:
            d = -cho_solve(cho_factor(hess), g)
        except LinAlgError:
            d = -g

        step = 1.0
        for _ in range(60):
            trial = params + step * d
            f_new, g_new = penalized_nll(trial, features, labels, lam)
            gnorm_new = float(np.linalg.norm(g_new))
            if np.isfinite(f_new) and \
                    gnorm_new <= (1.0 - 1e-4 * step) * gnorm:
                break
            step *= 0.5
        else:
            # No step shrinks ||g|| in float64.
            break
        params, g, gnorm = trial, g_new, gnorm_new
    return params, gnorm


def _check_training_inputs(features, labels, lam):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2:
        raise DomainError("features must be a 2-dimensional array")
    if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
        raise DomainError(
            f"labels shape {labels.shape} does not match "
            f"{features.shape[0]} feature rows")
    if features.shape[0] < 1:
        raise DomainError("need at least one training instance")
    if not np.isfinite(features).all():
        raise DomainError("features contain non-finite values")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise DomainError("labels must all be 0 or 1")
    if not np.isfinite(lam) or lam < 0.0:
        raise DomainError(f"lam must be a finite non-negative real, got {lam!r}")
    return features, labels, float(lam)


def train_logistic(features, labels, lam, *, init=None):
    """Fit one factor; returns LogisticFactor or ConstantFactor.

    Deterministic given its inputs: the optimizer starts from zeros (or
    the explicit init) and uses no randomness.
    """
    features, labels, lam = _check_training_inputs(features, labels, lam)
    n, p = features.shape

    ones = int(labels.sum())
    if ones == 0 or ones == n:
        return ConstantFactor(prob_one=(ones + 1) / (n + 2))

    if init is None:
        x0 = np.zeros(p + 1)
    else:
        x0 = np.asarray(init, dtype=np.float64)
        if x0.shape != (p + 1,) or not np.isfinite(x0).all():
            raise DomainError(
                f"init must be {p + 1} finite reals (weights then intercept)")

    params, gnorm = _newton(features, labels, lam, x0)
    return LogisticFactor(lam=lam, weights=params[:-1],
                          intercept=float(params[-1]),
                          final_gradient_norm=gnorm)


def _clamp(p):
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def predict_prob_batch(factor, features) -> np.ndarray:
    """P(y=1 | features) for each row, clamped away from 0 and 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DomainError("features must be a 2-dimensional array")
    if isinstance(factor, ConstantFactor):
        return _clamp(np.full(features.shape[0], factor.prob_one))
    if features.shape[1] != factor.arity:
        raise DomainError(
            f"factor expects {factor.arity} features, got {features.shape[1]}")
    return _clamp(expit(features @ factor.weights + factor.intercept))


def _held_out_log_likelihood(factor, features, labels) -> float:
    p = predict_prob_batch(factor, features)
    rho = np.where(labels == 1.0, p, 1.0 - p)
    return float(np.log(_clamp(rho)).sum())


def cross_validate_lambda(features, labels, grid=DEFAULT_LAMBDA_GRID,
                          n_folds=5, seed=0) -> float:
    """Pick the penalty maximizing mean held-out log-likelihood.

    The instances are partitioned into n_folds random folds (seeded).
    Each grid value is scored by training on the complement of every fold
    and evaluating the held-out log-likelihood; exact ties go to the
    larger penalty. A training split with single-class labels falls back
    to ConstantFactor scoring for that fold rather than failing.
    """
    features, labels, _ = _check_training_inputs(features, labels, 0.0)
    grid = tuple(sorted(float(v) for v in grid))
    if not grid:
        raise ConfigError("lambda grid must not be empty")
    for v in grid:
        if not np.isfinite(v) or v < 0.0:
            raise ConfigError(f"lambda grid values must be >= 0, got {v!r}")
    n = features.shape[0]
    if not isinstance(n_folds, int) or n_folds < 2:
        raise ConfigError(f"n_folds must be an integer >= 2, got {n_folds!r}")
    if n_folds > n:
        raise ConfigError(f"n_folds={n_folds} exceeds the {n} instances")

    order = make_rng(seed).permutation(n)
    folds = np.array_split(order, n_folds)

    best_lam = None
    best_score = -np.inf
    for lam in grid:
        total = 0.0
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            factor = train_logistic(features[mask], labels[mask], lam)
            total += _held_out_log_likelihood(
                factor, features[fold], labels[fold])
        score = total / n
        # Iterating the grid in ascending order, >= sends ties to the
        # larger penalty.
        if score >= best_score:
            best_score = score
            best_lam = lam
    return best_lam


def factor_to_dict(factor, dim_index: int) -> dict:
    """Serializable form of the factor of output dimension dim_index;
    floats survive the JSON round trip exactly."""
    if isinstance(factor, ConstantFactor):
        return {"kind": "constant",
                "dim_index": int(dim_index),
                "prob_one": float(factor.prob_one)}
    return {"kind": "logistic",
            "dim_index": int(dim_index),
            "lambda": float(factor.lam),
            "intercept": float(factor.intercept),
            "weights": [float(w) for w in factor.weights],
            "final_gradient_norm": float(factor.final_gradient_norm)}


def factor_from_dict(doc: dict, dim_index: int):
    """Inverse of factor_to_dict. The document must record dim_index, so a
    factor read from the wrong position is caught; a missing, mistyped or
    out-of-range value is a DomainError. Keys it does not read, such as
    the "converged" flag older files carry, are ignored."""
    try:
        kind = doc["kind"]
        stored = json_int(doc["dim_index"])
        if kind == "constant":
            factor = ConstantFactor(
                prob_one=_number(doc, "prob_one", lambda p: 0.0 < p < 1.0))
        elif kind == "logistic":
            weights = np.asarray(doc["weights"], dtype=np.float64)
            if weights.ndim != 1 or not np.isfinite(weights).all():
                raise ValueError("weights must be a list of finite numbers")
            factor = LogisticFactor(
                lam=_number(doc, "lambda", _finite_non_negative),
                weights=weights,
                intercept=_number(doc, "intercept"),
                final_gradient_norm=_number(doc, "final_gradient_norm",
                                            _finite_non_negative))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed factor document: {exc}") from exc
    if stored != dim_index:
        raise DomainError(
            f"holds the factor of dimension {stored}, listed at position "
            f"{dim_index}")
    return factor


def _finite_non_negative(value: float) -> bool:
    return 0.0 <= value < math.inf


def _number(doc: dict, key: str, ok=math.isfinite) -> float:
    """doc[key] as a float that passes ok; json reads 1e400 as inf."""
    value = float(doc[key])
    if not ok(value):
        raise ValueError(f"{key} out of range: {value!r}")
    return value
