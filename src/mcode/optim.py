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
matrix, each with its own penalty and labels, and forms all their
Hessians from one product per iteration. A problem may pin one feature:
its weight stays exactly 0, which makes the problem the same as one fit
without that column. So all factors of a model are one stack on one
design, each with its own output column pinned, and cross-validation
solves every factor at every grid value on one fold's training rows as
one stack per fold, each problem starting from its solution in the
previous fold; every final fit starts from zeros. A single fit is a
stack of one. Degenerate single-class label vectors fall back to a
constant factor with a Laplace-smoothed probability.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .dataset import is_integer, is_number, make_rng

# Probability estimates are clamped into [PROB_EPS, 1 - PROB_EPS] so their
# logs stay finite everywhere downstream.
PROB_EPS = 1e-12

GRAD_TOL = 1e-6
MAX_ITER = 500
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
_FLOAT_MAX = float(np.finfo(np.float64).max)

_log = logging.getLogger("mcode")


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


# N-wide temporaries of one penalized_nll evaluation per problem: the
# logits, e^-|z|, 1 / (1 + e^-|z|), the probabilities and the loss terms.
_NLL_TEMPORARIES = 5


def penalized_nll(params, features, labels, lam, *, workspace=None):
    """Objective value, gradient and the Hessian's instance weights
    p(1 - p) at params = [weights..., intercept].

    params may also be a B x (p+1) stack whose rows are separate problems:
    lam then holds B penalties, and labels is one vector shared by every
    row or a B x N matrix.

    workspace, if given, is a float64 vector of at least _NLL_TEMPORARIES
    * B * N entries (B = 1 for a single problem) that holds every N-wide
    temporary in place of fresh arrays, so a caller evaluating many times
    allocates them once. The returned weights are then a view of it, valid
    until its next use. It changes no value.
    """
    lam = np.asarray(lam, dtype=np.float64)
    w = params[..., :-1]
    shape = params.shape[:-1] + features.shape[:1]
    size = _NLL_TEMPORARIES * math.prod(shape)
    if workspace is None:
        workspace = np.empty(size)
    z, e, inv, prob, terms = workspace[:size].reshape(
        (_NLL_TEMPORARIES,) + shape)
    # Each step below writes into an array no later step reads, in the
    # order of the plain expressions, so every value keeps its bits.
    # Separate fresh N-wide arrays cost pages the heap gives back and
    # faults in again: on a stack of 40 problems and 800 instances a call
    # took 155 minor page faults and 1.2 ms so, against none and 0.65 ms
    # with the temporaries in one block.
    _logits(params, features, out=z)
    # e^-|z| also gives log(1 + e^z) = log1p(e^-|z|) + max(z, 0) without
    # overflow.
    _logistic(z, e, inv, out=prob)
    # (log1p(e) + max(z, 0)) - labels * z
    np.log1p(e, out=terms)
    terms += np.maximum(z, 0.0, out=inv)
    terms -= np.multiply(labels, z, out=z)
    residual = np.subtract(prob, labels, out=inv)
    value = terms.sum(axis=-1) + 0.5 * lam * (w * w).sum(axis=-1)
    grad = np.empty(params.shape)
    grad[..., :-1] = (_summed_over_rows(residual, features)
                      + lam[..., None] * w)
    grad[..., -1] = residual.sum(axis=-1)
    weight = np.subtract(1.0, prob, out=e)
    return value, grad, np.multiply(prob, weight, out=weight)


def _logistic(z, e, inv, out):
    """1 / (1 + e^-z) into out, which may be z, through the buffers e and
    inv of z's shape; e is left holding e^-|z|.

    e^-|z| <= 1 cannot overflow, and the result is inv = 1 / (1 + e^-|z|)
    where z >= 0 and e * inv elsewhere. As e <= 1, the factor
    max(e, z >= 0) is exactly 1 or e (NaN included), so the product has
    that choice's bits without a per-entry select. No step raises a
    floating-point warning, whatever z holds: +-inf give 1 and 0, NaN
    gives NaN, and exp only underflows.
    """
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    np.divide(1.0, np.add(1.0, e, out=inv), out=inv)
    np.maximum(e, np.greater_equal(z, 0.0, out=out), out=out)
    return np.multiply(inv, out, out=out)


# OpenBLAS runs a product of more than about 2^18 multiply-adds on its
# worker threads (a CPU-time probe found smaller ones serial), which then
# spin for a while, taking a CPU from the single-threaded kNN walk that
# follows a fit (LOF ran 60% slower after one on a 2-CPU box). Every
# product of the solver is cut along the instance rows into calls of at
# most that size. With two BLAS threads on a 2-CPU box, a CV fit of both
# modes at N=1000, m=10, d=8 used 0.98-1.00 CPU-seconds per wall second
# so cut, and 1.76-2.02 with the same products cut at 2^20.
_BLAS_SERIAL_SIZE = 2**18


def _row_slices(n, per_row):
    """Slices of range(n) holding at most _BLAS_SERIAL_SIZE multiply-adds
    each, at per_row multiply-adds per instance row."""
    step = max(1, _BLAS_SERIAL_SIZE // max(1, per_row))
    return [slice(i, i + step) for i in range(0, n, step)]


def _logits(params, features, out=None):
    """z = features @ w + b for each problem [w..., b] of params: shape
    params.shape[:-1] + (N,), written into out if given."""
    w = params[..., :-1]
    z = np.empty(params.shape[:-1] + features.shape[:1]) if out is None \
        else out
    for rows in _row_slices(features.shape[0], w.size):
        np.matmul(w, features[rows].T, out=z[..., rows])
    z += params[..., -1:]
    return z


def _summed_over_rows(left, right):
    """left @ right for left (..., N) and right N x k, summed over pieces
    of the instance rows."""
    pieces = _row_slices(right.shape[0], left.size // right.shape[0]
                         * right.shape[1])
    total = left[..., pieces[0]] @ right[pieces[0]]
    for rows in pieces[1:]:
        total += left[..., rows] @ right[rows]
    return total


def _pair_products(features):
    """N x P matrix of the products x_i * x_j over the pairs i <= j of the
    columns of [features, 1], in np.triu_indices order, so that X'WX for
    every problem of a stack is one product with them."""
    n, p = features.shape
    design = np.empty((n, p + 1))
    design[:, :p] = features
    design[:, p] = 1.0
    pairs = np.empty((n, (p + 1) * (p + 2) // 2))
    start = 0
    for i in range(p + 1):
        np.multiply(design[:, i:i + 1], design[:, i:],
                    out=pairs[:, start:start + p + 1 - i])
        start += p + 1 - i
    return pairs


def _newton_directions(hess, grad):
    """-H^-1 g for each H of the stack hess and row g of grad, or -g where
    H is not positive definite.

    As in LAPACK's dposv, each positive definite H is factored as L L^T by
    Cholesky, and its direction comes from substitution with L and L^T.
    One batched factorization tests the whole stack. NumPy raises
    LinAlgError for the whole stack if one H fails, so only then is each
    H tested on its own, and the fallback falls on the failing problems
    alone. An LU solve after the test would not do: on an H singular but
    for rounding, such as X'WX at lam = 0 with two equal columns, it gave
    directions of norm 1e14 where substitution gives the small ones
    Newton converges with.
    """
    d = -grad
    try:
        low = np.linalg.cholesky(hess)
        definite = slice(None)
    except np.linalg.LinAlgError:
        definite = np.flatnonzero([_positive_definite(h) for h in hess])
        low = np.linalg.cholesky(hess[definite])
    d[definite] = _substituted(low, d[definite])
    return d


def _positive_definite(h):
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _substituted(low, b):
    """The solutions x of L L^T x = b for each lower-triangular L of the
    stack low and row b of b: forward substitution with L, then back
    substitution with L^T, each a loop over the entries that handles the
    whole stack at once. As in LAPACK, a NaN or inf in L spreads without
    a floating-point warning."""
    # Entries first: x[i] holds entry i of every problem and low[i, j]
    # every L_ij, so each step works on contiguous rows. With the stack
    # first, the loops took 230 us instead of 140 on 40 problems of 19
    # entries.
    x = b.T.copy()
    low = np.ascontiguousarray(low.transpose(1, 2, 0))
    with np.errstate(all="ignore"):
        for i in range(len(x)):
            row, rest = x[i], x[i + 1:]
            np.divide(row, low[i, i], out=row)
            np.subtract(rest, low[i + 1:, i] * row, out=rest)
        for i in reversed(range(len(x))):
            row, rest = x[i], x[:i]
            np.divide(row, low[i, i], out=row)
            np.subtract(rest, low[i, :i] * row, out=rest)
    return x.T


def _newton(features, labels, lam, params, pinned=None, pairs=None):
    """Damped Newton on penalized_nll for a stack of problems that share
    features; returns (params, ||g||), one row or entry per problem.

    Row b of params is the start of problem b, lam[b] its penalty and
    labels its label vector (shared) or labels[b]. If pinned is given,
    problem b holds the weight of feature pinned[b] at its start value,
    which must be 0: that gradient entry is 0 and that Hessian row and
    column are the identity's, so Newton never moves it and the problem
    is the one without that feature. pairs, if given, must be
    _pair_products(features), which a caller solving several stacks on
    rows of one matrix can form once.

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
    # every evaluation's temporaries, sized for the whole stack
    workspace = np.empty(_NLL_TEMPORARIES * params.shape[0]
                         * features.shape[0])

    def evaluate(rows, trial):
        # rows ascend, so a trial of the whole stack has rows 0..B-1
        shared = labels.ndim == 1 or rows.size == labels.shape[0]
        f, g, weight = penalized_nll(
            trial, features, labels if shared else labels[rows],
            lam[rows], workspace=workspace)
        if pinned is not None:
            g[np.arange(g.shape[0]), pinned[rows]] = 0.0
        return f, g, weight

    params = params.copy()
    f, g, weight = evaluate(np.arange(params.shape[0]), params)
    if not np.isfinite(f).all() or not np.isfinite(g).all():
        raise NumericalError("objective not finite at the starting point")
    weight = weight.copy()  # out of the workspace the next trial reuses
    gnorm = np.linalg.norm(g, axis=1)

    if pairs is None:
        pairs = _pair_products(features)
    size = params.shape[1]
    # entry[i, j]: the pair product of Hessian entry (i, j), and of (j, i)
    upper = np.triu_indices(size)
    entry = np.empty((size, size), dtype=np.intp)
    entry[upper] = entry.T[upper] = np.arange(upper[0].size)
    penalized = np.arange(size - 1)
    active = np.flatnonzero(gnorm > GRAD_TOL)
    for _ in range(MAX_ITER):
        if not active.size:
            break
        # Whole arrays stand for the active rows while every problem is
        # active. start and start_norm are then views, which is safe: a
        # problem's row is written only when its trial is accepted, and it
        # leaves the line search then.
        each = slice(None) if active.size == params.shape[0] else active
        # X'WX + lam * I_w, the intercept left out of the penalty
        hess = _summed_over_rows(weight[each], pairs)[:, entry]
        hess[:, penalized, penalized] += lam[each, None]
        if pinned is not None:
            problem, col = np.arange(active.size), pinned[each]
            hess[problem, col, :] = 0.0
            hess[problem, :, col] = 0.0
            hess[problem, col, col] = 1.0
        d = _newton_directions(hess, g[each])

        start, start_norm = params[each], gnorm[each]
        step = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(60):
            part = slice(None) if pending.size == active.size else pending
            rows = active[part]
            trial = start[part] + step[part, None] * d[part]
            f_new, g_new, w_new = evaluate(rows, trial)
            gnorm_new = np.linalg.norm(g_new, axis=1)
            ok = np.isfinite(f_new) & \
                (gnorm_new <= (1.0 - 1e-4 * step[part]) * start_norm[part])
            # Accepted rows are copied back: every row, by whole-array or
            # plain row copies when every trial passed, else those of ok.
            taken = slice(None) if ok.all() else ok
            into = slice(None) if rows.size == params.shape[0] and \
                ok.all() else rows[taken]
            params[into] = trial[taken]
            g[into] = g_new[taken]
            gnorm[into] = gnorm_new[taken]
            weight[into] = w_new[taken]
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


def _check_training_inputs(features, labels, lams=None, pinned=None):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2:
        raise DomainError("features must be a 2-dimensional array")
    if labels.ndim != 2:
        raise DomainError(f"labels must be a 2-dimensional array, got "
                          f"shape {labels.shape}")
    if labels.shape[0] != features.shape[0]:
        raise DomainError(
            f"labels shape {labels.shape} does not match "
            f"{features.shape[0]} feature rows")
    if features.shape[0] < 1:
        raise DomainError("need at least one training instance")
    if not np.isfinite(features).all():
        raise DomainError("features contain non-finite values")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise DomainError("labels must all be 0 or 1")
    if lams is not None:
        try:
            shape = np.shape(lams)
        except ValueError:  # a ragged nesting, which NumPy cannot shape
            shape = None
        if shape != labels.shape[1:] or not all(map(is_penalty, lams)):
            raise DomainError(f"need one penalty per column, got {lams!r}")
        lams = np.asarray(lams, dtype=np.float64)
    if pinned is not None:
        index = np.asarray(pinned)
        if index.shape != labels.shape[1:] or \
                not np.issubdtype(index.dtype, np.integer) or \
                ((index < 0) | (index >= features.shape[1])).any():
            raise DomainError(f"pinned must hold one feature index per "
                              f"label column, got {pinned!r}")
        pinned = index
    return features, labels, lams, pinned


def train_logistic(features, labels, lam):
    """Fit one factor to a label vector with one penalty, as a stack of
    one; returns LogisticFactor or ConstantFactor.

    Deterministic given its inputs: the optimizer starts from zeros and
    uses no randomness.
    """
    if np.ndim(labels) != 1 or np.ndim(lam) != 0:
        raise DomainError(f"need a label vector and one penalty, got labels "
                          f"of shape {np.shape(labels)} and lam {lam!r}")
    return train_logistic_columns(features, np.asarray(labels)[:, None],
                                  [lam])[0]


def train_logistic_columns(features, labels, lams, pinned=None):
    """Fit one factor per column of the N x L label matrix, all on the same
    features, column j with penalty lams[j], as one stack; returns the L
    factors in column order.

    pinned, if given, names one feature per column whose weight that
    column's factor holds at 0 and leaves out of its weights: factor j is
    the one train_logistic fits without feature pinned[j].

    Every fit starts from zeros; a single-class column enters no stack
    and becomes a ConstantFactor. Factors whose ||g|| ends above GRAD_TOL
    are returned as they are; one warning on the "mcode" logger names
    each by column, penalty and ||g||.
    """
    features, labels, lams, pinned = _check_training_inputs(
        features, labels, lams, pinned)
    n, p = features.shape
    laplace, solve = _single_class(labels.sum(axis=0), n)
    factors = [ConstantFactor(prob_one=float(prob)) for prob in laplace]
    if solve.size:
        params, gnorm = _newton(
            features, labels.T[solve], lams[solve],
            np.zeros((solve.size, p + 1)),
            None if pinned is None else pinned[solve])
        for k, j in enumerate(solve):
            weights = params[k, :-1]
            if pinned is not None:
                weights = np.delete(weights, pinned[j])
            factors[j] = LogisticFactor(
                lam=float(lams[j]), weights=weights,
                intercept=float(params[k, -1]),
                final_gradient_norm=float(gnorm[k]))
    missed = [(j, factor) for j, factor in enumerate(factors)
              if isinstance(factor, LogisticFactor) and not factor.converged]
    if missed:
        _log.warning(
            "training: %d factor(s) ended with ||g|| above %g: %s",
            len(missed), GRAD_TOL, "; ".join(
                f"column {j} at lambda {factor.lam!r} "
                f"(||g|| = {factor.final_gradient_norm:.3g})"
                for j, factor in missed))
    return tuple(factors)


def _single_class(ones, n):
    """Each column's Laplace-smoothed P(y = 1) from its count of ones in n
    labels, a ConstantFactor's prob_one, and the two-class columns."""
    return (ones + 1) / (n + 2), np.flatnonzero((ones > 0) & (ones < n))


def observed_prob(prob, labels):
    """P(y = 1) in prob turned in place into the probability of the 0/1
    labels, clamped into [PROB_EPS, 1 - PROB_EPS]; labels broadcast."""
    np.subtract(1.0, prob, out=prob, where=labels != 1)
    return np.clip(prob, PROB_EPS, 1.0 - PROB_EPS, out=prob)


def predict_prob_stack(params, features) -> np.ndarray:
    """P(y=1 | features) under each row [weights..., intercept] of the
    B x (p+1) stack params: a B x N matrix, clamped away from 0 and 1.

    A logit whose terms w_j x_j hold both infinities, or a 0 * inf, is
    undefined and gives NaN. Any other logit that overflows gives its
    limit. Whether the BLAS product's sum of such terms comes out inf or
    NaN depends on its order and on fused multiply-adds, so overflowing
    logits are summed again here.
    """
    z = _logits(params, features)
    overflow = ~np.isfinite(z)
    if overflow.any():
        problem, row = np.nonzero(overflow)
        terms = np.empty((problem.size, params.shape[1]))
        terms[:, :-1] = params[problem, :-1] * features[row]
        terms[:, -1] = params[problem, -1]
        undefined = np.isnan(terms).any(axis=1) | (
            (terms.max(axis=1) == np.inf) & (terms.min(axis=1) == -np.inf))
        # Scaled by a power of two at least their count, finite terms
        # cannot overflow their sum.
        scale = 2.0 ** math.ceil(math.log2(terms.shape[1]))
        z[overflow] = np.where(undefined, np.nan,
                               (terms / scale).sum(axis=1) * scale)
    _logistic(z, np.empty(z.shape), np.empty(z.shape), out=z)
    return np.clip(z, PROB_EPS, 1.0 - PROB_EPS, out=z)


def is_penalty(value) -> bool:
    """The rule of every penalty: a number in [0, float64 max]."""
    # a Python int compares exactly; a NumPy float32 would warn unwidened
    return is_number(value) and 0.0 <= (
        value if isinstance(value, int) else float(value)) <= _FLOAT_MAX


def _checked_grid(grid):
    """grid as ascending floats; a ConfigError unless one or more penalties."""
    values = tuple(grid) if np.iterable(grid) else ()
    if not values or not all(map(is_penalty, values)):
        raise ConfigError(f"lambda values must be finite numbers >= 0, at "
                          f"least one, got {grid!r}")
    return tuple(sorted(float(v) for v in values))


def check_folds(folds, n=None):
    """The fold rule: a ConfigError unless folds is an integer in [2, n]."""
    if not is_integer(folds) or folds < 2:
        raise ConfigError(f"folds must be an integer >= 2, got {folds!r}")
    if n is not None and folds > n:
        raise ConfigError(f"folds={folds} exceeds the {n} instances")


def cross_validate_lambda(features, labels, grid=DEFAULT_LAMBDA_GRID,
                          n_folds=5, seed=0, pinned=None):
    """Pick, for each column of the N x L label matrix, the penalty
    maximizing mean held-out log-likelihood: a tuple of L penalties, each
    chosen as for that column alone. pinned, if given, names one feature
    per column that its fits hold at weight 0, as train_logistic_columns
    does. Unless grid holds one or more penalties (is_penalty) and n_folds
    passes check_folds with N, as check_policy requires too, a ConfigError.

    The instances are partitioned into n_folds folds by make_rng(seed).
    Each grid value is scored by training on the complement of every fold
    and evaluating the held-out log-likelihood; exact ties go to the
    larger penalty. Every column at every grid value is one problem of a
    single stack per fold, on that fold's training rows. Each problem
    starts from the solution of its column and grid value in the last
    fold that solved that column, or from zeros in the first. Only the
    held-out scores read these fold solutions; every final fit starts
    from zeros. A column single-class on a fold's training rows scores as
    a ConstantFactor there, so one single-class in every fold takes the
    largest grid value. Fold problems whose ||g|| ends above GRAD_TOL
    still score; one warning on the "mcode" logger names each by column
    (an output dimension under fit_mcode), grid value and fold (from 0).
    """
    features, labels, _, pinned = _check_training_inputs(
        features, labels, pinned=pinned)
    grid = _checked_grid(grid)
    n, p = features.shape
    check_folds(n_folds, n)

    total = np.zeros((len(grid), labels.shape[1]))
    pairs = _pair_products(features)
    folds = np.array_split(make_rng(seed).permutation(n), n_folds)
    # Each fold takes its training rows of features and of pairs into
    # buffers sized for the largest training split. np.take writes
    # straight into out only with mode="clip" ("raise" goes through a
    # temporary); the row indices are in range, so it clips nothing.
    most = n - min(fold.size for fold in folds)
    fold_features = np.empty((most, p))
    fold_pairs = np.empty((most, pairs.shape[1]))
    # start[j, c] is the solution of column c at grid[j] in the last fold
    # that solved it, the start of its next fold; zeros before that.
    start = np.zeros((len(grid), labels.shape[1], p + 1))
    missed = []  # (column, grid value, fold, ||g||) left above GRAD_TOL
    for number, fold in enumerate(folds):
        rows = np.delete(np.arange(n), fold)  # the training rows, ascending
        train_labels = labels[rows].T
        laplace, solved = _single_class(train_labels.sum(axis=1), rows.size)
        # P(y = 1) of each held-out row, by grid value and column
        prob = np.tile(laplace[:, None], (len(grid), 1, fold.size))
        if solved.size:
            # Problem j * len(solved) + s fits grid[j] to column solved[s].
            params, gnorm = _newton(
                np.take(features, rows, axis=0, out=fold_features[:rows.size],
                        mode="clip"),
                np.tile(train_labels[solved], (len(grid), 1)),
                np.repeat(grid, solved.size),
                start[:, solved].reshape(-1, p + 1),
                None if pinned is None else np.tile(pinned[solved], len(grid)),
                np.take(pairs, rows, axis=0, out=fold_pairs[:rows.size],
                        mode="clip"))
            start[:, solved] = params.reshape(len(grid), solved.size, p + 1)
            missed += [(int(solved[b % solved.size]), grid[b // solved.size],
                        number, float(gnorm[b]))
                       for b in np.flatnonzero(gnorm > GRAD_TOL)]
            prob[:, solved] = predict_prob_stack(
                params, features[fold]).reshape(len(grid), -1, fold.size)
        total += np.log(observed_prob(prob, labels[fold].T)).sum(axis=-1)
    scores = total / n
    if missed:
        _log.warning(
            "cross-validation: %d fold problem(s) ended with ||g|| above "
            "%g: %s", len(missed), GRAD_TOL, "; ".join(
                f"column {column} at lambda {lam!r} in fold {number} "
                f"(||g|| = {norm:.3g})"
                for column, lam, number, norm in missed))

    # The last best grid value: ties go to the larger penalty.
    best = len(grid) - 1 - np.argmax(scores[::-1], axis=0)
    return tuple(grid[j] for j in best)
