"""Training of per-dimension probabilistic factors.

Each factor models P(y=1 | features) as a logistic function and is fit by
minimizing the L2-penalized negative log-likelihood

    f(w, b) = sum_n [log(1 + exp(z_n)) - y_n z_n] + 0.5 * lam * ||w||^2,
    z_n = x_n . w + b,

with the intercept b left unpenalized. The objective is smooth and convex
(strictly convex in w for lam > 0), and a factor has few features, so a
damped Newton method whose line search tests ||g||, as its stopping rule
does, reaches the unique optimum from any start in a handful of iterations.

The solver works on a stack of such problems that share one feature
matrix, each with its own penalty, labels and training instances, and
forms all their Hessians from one product per iteration. A single fit is
a stack of one; cross-validation solves every grid value on every fold
as one stack, and the independent-mode factors, which all read the same
inputs, are one stack of label columns. Degenerate single-class label
vectors fall back to a constant factor with a Laplace-smoothed
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .errors import ConfigError, DomainError, NumericalError
from .dataset import json_int, make_rng

# Probability estimates are clamped into [PROB_EPS, 1 - PROB_EPS] so their
# logs stay finite everywhere downstream.
PROB_EPS = 1e-12

GRAD_TOL = 1e-6
MAX_ITER = 500
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

# Count of problems the Newton solver has been given in this process, one
# per row of a stack. Diagnostic only, used by the CLI to report how much
# training a command actually did.
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


def penalized_nll(params, features, labels, lam, mask=None, *,
                  curvature=False):
    """Objective value and gradient at params = [weights..., intercept].

    params may also be a B x (p+1) stack whose rows are separate problems:
    lam then holds B penalties, labels is one vector shared by every row or
    a B x N matrix, and mask, if given, a B x N matrix of 0/1 weights on
    the instances each problem is trained on. With curvature=True a third
    value is returned, the Hessian's instance weights p(1 - p), masked too.
    """
    lam = np.asarray(lam, dtype=np.float64)
    w = params[..., :-1]
    z = w @ features.T + params[..., -1:]
    # e^-|z| <= 1 gives both log(1 + e^z) = log1p(e^-|z|) + max(z, 0) and
    # expit(z) without overflow.
    e = np.exp(-np.abs(z))
    inv = 1.0 / (1.0 + e)
    prob = np.where(z >= 0.0, inv, e * inv)
    terms = np.log1p(e) + np.maximum(z, 0.0) - labels * z
    residual = prob - labels
    if mask is not None:
        terms *= mask
        residual *= mask
    value = terms.sum(axis=-1) + 0.5 * lam * (w * w).sum(axis=-1)
    grad = np.empty(params.shape)
    grad[..., :-1] = residual @ features + lam[..., None] * w
    grad[..., -1] = residual.sum(axis=-1)
    if not curvature:
        return value, grad
    weight = prob * (1.0 - prob)
    if mask is not None:
        weight *= mask
    return value, grad, weight


def _pair_products(features):
    """Rows x_i * x_j over the pairs i <= j of the columns of [features, 1],
    in np.triu_indices order, so that X'WX for every problem of a stack is
    one product with them."""
    n, p = features.shape
    design = np.empty((p + 1, n))
    design[:p] = features.T
    design[p] = 1.0
    pairs = np.empty(((p + 1) * (p + 2) // 2, n))
    start = 0
    for i in range(p + 1):
        np.multiply(design[i], design[i:], out=pairs[start:start + p + 1 - i])
        start += p + 1 - i
    return pairs


# OpenBLAS hands a product of more than about 2^20 multiply-adds to its
# worker threads, which then spin for a while, taking a CPU from the
# single-threaded kNN walk that follows a fit (LOF ran 60% slower after
# one on a 2-CPU box). The Hessian products are cut below that size.
_BLAS_SERIAL_SIZE = 2**20


def _newton_directions(hess, grad):
    """-H^-1 g by Cholesky for each H of the stack hess and row g of grad,
    or -g where H is not positive definite."""
    d = -grad
    for h, row in zip(hess, d):
        factor, info = dpotrf(h)
        if info == 0:
            row[:] = dpotrs(factor, row)[0]
    return d


def _newton(features, labels, lam, params, masks=None, mask_of=None):
    """Damped Newton on penalized_nll for a stack of problems that share
    features; returns (params, ||g||), one row or entry per problem.

    Row b of params is the start of problem b, lam[b] its penalty and
    labels its label vector (shared) or labels[b]; it is trained on the
    instances weighted 1 in masks[mask_of[b]], or on all when masks is
    None.

    Each iteration solves (X'WX + lam * I_w) d = -g per problem, with the
    intercept column left out of the penalty, or takes d = -g where that
    Hessian is not positive definite. Halving t from 1, it accepts the first
    step with finite f and ||g(x + t d)|| <= (1 - 1e-4 t) ||g(x)||. The merit
    ||g||^2 / 2 has slope -||g||^2 along the Newton d, so the test can be met,
    and it is the stopping rule's own measure: float64 resolves ||g|| far
    below GRAD_TOL, where the rounding of f, a sum of N terms, would not.
    A problem leaves the stack once ||g|| <= GRAD_TOL, or when no step
    shrinks its ||g||.
    """
    global _optimizer_runs
    _optimizer_runs += params.shape[0]

    def problem(rows):
        return (labels if labels.ndim == 1 else labels[rows], lam[rows],
                None if masks is None else masks[mask_of[rows]])

    params = params.copy()
    f, g, weight = penalized_nll(params, features,
                                 *problem(slice(None)), curvature=True)
    if not np.isfinite(f).all() or not np.isfinite(g).all():
        raise NumericalError("objective not finite at the starting point")
    gnorm = np.linalg.norm(g, axis=1)

    pairs = _pair_products(features)
    upper = np.triu_indices(params.shape[1])
    penalized = np.arange(params.shape[1] - 1)
    active = np.flatnonzero(gnorm > GRAD_TOL)
    for _ in range(MAX_ITER):
        if not active.size:
            break
        # X'WX + lam * I_w, the intercept left out of the penalty
        parts = -(-active.size * pairs.size // _BLAS_SERIAL_SIZE)
        products = np.concatenate(
            [pairs @ weight[rows].T for rows in np.array_split(
                active, min(parts, active.size))], axis=1).T
        hess = np.empty((active.size,) + 2 * (params.shape[1],))
        hess[:, upper[0], upper[1]] = products
        hess[:, upper[1], upper[0]] = products
        hess[:, penalized, penalized] += lam[active, None]
        d = _newton_directions(hess, g[active])

        start, start_norm = params[active], gnorm[active]
        step = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(60):
            rows = active[pending]
            trial = start[pending] + step[pending, None] * d[pending]
            f_new, g_new, w_new = penalized_nll(
                trial, features, *problem(rows), curvature=True)
            gnorm_new = np.linalg.norm(g_new, axis=1)
            ok = np.isfinite(f_new) & \
                (gnorm_new <= (1.0 - 1e-4 * step[pending])
                 * start_norm[pending])
            params[rows[ok]] = trial[ok]
            g[rows[ok]] = g_new[ok]
            gnorm[rows[ok]] = gnorm_new[ok]
            weight[rows[ok]] = w_new[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            step[pending] *= 0.5
        # A problem still pending found no step that shrinks ||g|| in
        # float64.
        moved = np.ones(active.size, dtype=bool)
        moved[pending] = False
        active = active[moved & (gnorm[active] > GRAD_TOL)]
    return params, gnorm


def _check_training_inputs(features, labels, lam, label_ndim=1):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2:
        raise DomainError("features must be a 2-dimensional array")
    if labels.ndim != label_ndim or labels.shape[0] != features.shape[0]:
        raise DomainError(
            f"labels shape {labels.shape} does not match "
            f"{features.shape[0]} feature rows")
    if features.shape[0] < 1:
        raise DomainError("need at least one training instance")
    if not np.isfinite(features).all():
        raise DomainError("features contain non-finite values")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise DomainError("labels must all be 0 or 1")
    lams = np.asarray(lam, dtype=np.float64)
    if lams.ndim != label_ndim - 1 or not np.isfinite(lams).all() or \
            (lams < 0.0).any():
        raise DomainError(f"lam must be a finite non-negative real, got {lam!r}")
    return features, labels, lams


def train_logistic(features, labels, lam, *, init=None):
    """Fit one factor; returns LogisticFactor or ConstantFactor.

    Deterministic given its inputs: the optimizer starts from zeros (or
    the explicit init) and uses no randomness.
    """
    features, labels, lam = _check_training_inputs(features, labels, lam)
    p = features.shape[1]
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (p + 1,) or not np.isfinite(init).all():
            raise DomainError(
                f"init must be {p + 1} finite reals (weights then intercept)")
        init = init[None]
    return _train_columns(features, labels[None], lam[None], init)[0]


def train_logistic_columns(features, labels, lams):
    """Fit one factor per column of the N x L label matrix, all on the same
    features, column j with penalty lams[j], as one stack; returns the L
    factors in column order, each as train_logistic would fit it."""
    features, labels, lams = _check_training_inputs(features, labels, lams,
                                                    label_ndim=2)
    if lams.shape != labels.shape[1:]:
        raise DomainError(f"need one penalty per label column, got "
                          f"{lams.size} for {labels.shape[1]}")
    return _train_columns(features, labels.T, lams, None)


def _train_columns(features, labels, lams, init):
    """One factor per row of labels (L x N), from init (L x (p+1)) or
    zeros; single-class rows become ConstantFactors."""
    n, p = features.shape
    ones = labels.sum(axis=1)
    factors = [ConstantFactor(prob_one=(int(k) + 1) / (n + 2)) for k in ones]
    solve = np.flatnonzero((ones > 0) & (ones < n))
    if solve.size:
        start = np.zeros((solve.size, p + 1)) if init is None else init
        params, gnorm = _newton(features, labels[solve], lams[solve], start)
        for k, j in enumerate(solve):
            factors[j] = LogisticFactor(
                lam=float(lams[j]), weights=params[k, :-1],
                intercept=float(params[k, -1]),
                final_gradient_norm=float(gnorm[k]))
    return tuple(factors)


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


def cross_validate_lambda(features, labels, grid=DEFAULT_LAMBDA_GRID,
                          n_folds=5, seed=0) -> float:
    """Pick the penalty maximizing mean held-out log-likelihood.

    The instances are partitioned into n_folds random folds (seeded).
    Each grid value is scored by training on the complement of every fold
    and evaluating the held-out log-likelihood; exact ties go to the
    larger penalty. Every grid value on every fold is one problem of a
    single stack for the solver. A training split with single-class labels
    falls back to ConstantFactor scoring for that fold rather than failing.
    """
    features, labels, _ = _check_training_inputs(features, labels, 0.0)
    grid = tuple(sorted(float(v) for v in grid))
    if not grid:
        raise ConfigError("lambda grid must not be empty")
    for v in grid:
        if not np.isfinite(v) or v < 0.0:
            raise ConfigError(f"lambda grid values must be >= 0, got {v!r}")
    n, p = features.shape
    if not isinstance(n_folds, int) or n_folds < 2:
        raise ConfigError(f"n_folds must be an integer >= 2, got {n_folds!r}")
    if n_folds > n:
        raise ConfigError(f"n_folds={n_folds} exceeds the {n} instances")

    order = make_rng(seed).permutation(n)
    folds = np.array_split(order, n_folds)
    train = np.ones((n_folds, n))
    for k, fold in enumerate(folds):
        train[k, fold] = 0.0
    ones = train @ labels
    sizes = n - np.array([fold.size for fold in folds])
    solved = np.flatnonzero((ones > 0) & (ones < sizes))
    if solved.size:
        # Problem j * len(solved) + s fits grid[j] on the training split of
        # fold solved[s].
        params, _ = _newton(
            features, labels, np.repeat(grid, solved.size),
            np.zeros((len(grid) * solved.size, p + 1)),
            masks=train, mask_of=np.tile(solved, len(grid)))
        params = params.reshape(len(grid), solved.size, p + 1)

    stack_of = {k: s for s, k in enumerate(solved)}
    total = np.zeros(len(grid))
    for k, fold in enumerate(folds):
        if k in stack_of:
            fitted = params[:, stack_of[k]]
            prob = expit(features[fold] @ fitted[:, :-1].T + fitted[:, -1])
        else:
            prob = np.full((fold.size, 1), (ones[k] + 1) / (sizes[k] + 2))
        prob = _clamp(prob)
        rho = np.where(labels[fold, None] == 1.0, prob, 1.0 - prob)
        total += np.log(_clamp(rho)).sum(axis=0)
    scores = total / n

    best_lam = None
    best_score = -np.inf
    for lam, score in zip(grid, scores):
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
