"""Training of per-dimension probabilistic factors.

Each factor models P(y=1 | features) as a logistic function and is fit by
minimizing the L2-penalized negative log-likelihood

    f(w, b) = sum_n [log(1 + exp(z_n)) - y_n z_n] + 0.5 * lam * ||w||^2,
    z_n = x_n . w + b,

with the intercept b left unpenalized. The objective is smooth and convex
(strictly convex in w for lam > 0), and a factor has few features, so a
damped Newton method with a backtracking line search reaches the unique
optimum from any start in a handful of iterations.
Degenerate single-class label vectors fall back to a constant factor with
a Laplace-smoothed probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit

from .errors import ConfigError, DomainError, NumericalError
from .dataset import make_rng

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

    dim_index: int
    lam: float
    weights: np.ndarray
    intercept: float
    converged: bool
    final_gradient_norm: float

    @property
    def arity(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ConstantFactor:
    """Fallback factor for a dimension whose training labels were constant.

    prob_one is Laplace-smoothed: (count of ones + 1) / (N + 2).
    """

    dim_index: int
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
    intercept column left out of the penalty, and falls back to d = -g when
    that Hessian is not positive definite or d is not a descent direction.
    The step is halved until it meets the Armijo condition, or until the
    objective is unchanged up to float64 rounding while ||g|| shrinks:
    next to the optimum the predicted decrease falls below the resolution
    of f, and Armijo alone would reject every step there.
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
        slope = float(d @ g)
        if not slope < 0.0:
            d, slope = -g, -gnorm * gnorm

        step = 1.0
        for _ in range(60):
            trial = params + step * d
            f_new, g_new = penalized_nll(trial, features, labels, lam)
            gnorm_new = float(np.linalg.norm(g_new))
            if f_new <= f + 1e-4 * step * slope or (
                    f_new - f <= 4 * np.spacing(f) and gnorm_new < gnorm):
                break
            step *= 0.5
        else:
            # No step improves on params in float64.
            break
        params, f, g, gnorm = trial, f_new, g_new, gnorm_new
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


def train_logistic(features, labels, lam, *, dim_index=0, init=None):
    """Fit one factor; returns LogisticFactor or ConstantFactor.

    Deterministic given its inputs: the optimizer starts from zeros (or
    the explicit init) and uses no randomness.
    """
    features, labels, lam = _check_training_inputs(features, labels, lam)
    n, p = features.shape

    ones = int(labels.sum())
    if ones == 0 or ones == n:
        return ConstantFactor(dim_index=dim_index,
                              prob_one=(ones + 1) / (n + 2))

    if init is None:
        x0 = np.zeros(p + 1)
    else:
        x0 = np.asarray(init, dtype=np.float64)
        if x0.shape != (p + 1,) or not np.isfinite(x0).all():
            raise DomainError(
                f"init must be {p + 1} finite reals (weights then intercept)")

    params, gnorm = _newton(features, labels, lam, x0)
    return LogisticFactor(
        dim_index=dim_index,
        lam=lam,
        weights=params[:-1],
        intercept=float(params[-1]),
        converged=gnorm <= GRAD_TOL,
        final_gradient_norm=gnorm,
    )


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


def factor_to_dict(factor) -> dict:
    """Serializable form; floats survive the JSON round trip exactly."""
    if isinstance(factor, ConstantFactor):
        return {"kind": "constant",
                "dim_index": int(factor.dim_index),
                "prob_one": float(factor.prob_one)}
    return {"kind": "logistic",
            "dim_index": int(factor.dim_index),
            "lambda": float(factor.lam),
            "intercept": float(factor.intercept),
            "weights": [float(w) for w in factor.weights],
            "converged": bool(factor.converged),
            "final_gradient_norm": float(factor.final_gradient_norm)}


def factor_from_dict(doc: dict):
    try:
        kind = doc["kind"]
        if kind == "constant":
            return ConstantFactor(dim_index=int(doc["dim_index"]),
                                  prob_one=float(doc["prob_one"]))
        if kind == "logistic":
            return LogisticFactor(
                dim_index=int(doc["dim_index"]),
                lam=float(doc["lambda"]),
                weights=np.asarray(doc["weights"], dtype=np.float64),
                intercept=float(doc["intercept"]),
                converged=bool(doc["converged"]),
                final_gradient_norm=float(doc["final_gradient_norm"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed factor document: {exc}") from exc
    raise DomainError(f"unknown factor kind {doc.get('kind')!r}")
