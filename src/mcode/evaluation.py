"""Ranking evaluation against injected ground truth, and the experiment loop.

TPAR at an alert rate is the precision of the top of the ranking: with
a = max(1, round(rate * N)) alerts, the fraction of the top-a instances
that are true outliers. ATPAR averages TPAR over every achievable alert
count from 1 up to the count at an upper rate, rewarding rankings that
put outliers at the very top.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError
from .dataset import Dataset, inject_outliers, is_integer, is_rate, \
    round_half_up, standardize, write_table
from .lof import LofConfig, lof_scores
from .model import CvLambda, FULL_CONDITIONAL, INDEPENDENT, check_mode, \
    check_policy, estimate_rho, fit_mcode
from .scoring import NeighborIndex, ScoreVector, global_weights, \
    local_weights, rank_descending, score_lrw, score_prod, score_rw

METHODS = ("lof", "iprod", "mprod", "mrw", "mlrw")
# the mode of the model each method scores by; LOF fits none
_MODE_OF = {"iprod": INDEPENDENT, "mprod": FULL_CONDITIONAL,
            "mrw": FULL_CONDITIONAL, "mlrw": FULL_CONDITIONAL}

DEFAULT_UPPER_RATE = 0.01
DEFAULT_CURVE_RATE = 0.04


def _check_truth(scores: ScoreVector, truth) -> np.ndarray:
    n = scores.scores.shape[0]
    mask = np.zeros(n, dtype=bool)
    for row in truth:
        if not is_integer(row):
            raise DomainError(f"outlier rows must be integers, got {row!r}")
        if not (0 <= row < n):
            raise DomainError(f"outlier row {row} outside 0..{n - 1}")
        mask[row] = True
    if not mask.any():
        raise DomainError("truth contains no outlier rows")
    return mask


def _alert_count(rate: float, n: int) -> int:
    if not is_rate(rate):
        raise DomainError(f"alert rate must be in (0, 1], got {rate!r}")
    return max(1, round_half_up(rate * n))


def _precision_at(scores: ScoreVector, truth, a_max: int) -> np.ndarray:
    """TPAR at each alert count 1 .. a_max, from one ranking."""
    mask = _check_truth(scores, truth)
    hits = np.cumsum(mask[rank_descending(scores.scores)][:a_max])
    return hits / np.arange(1, a_max + 1)


def tpar(scores: ScoreVector, truth, alert_rate: float) -> float:
    """Fraction of the top-scoring alerts that are true outliers."""
    a = _alert_count(alert_rate, scores.scores.shape[0])
    return float(_precision_at(scores, truth, a)[-1])


def atpar(scores: ScoreVector, truth, upper: float = DEFAULT_UPPER_RATE) -> float:
    """Mean TPAR over alert counts 1 .. max(1, round(upper * N))."""
    a_max = _alert_count(upper, scores.scores.shape[0])
    return float(_precision_at(scores, truth, a_max).mean())


def tpar_curve(scores: ScoreVector, truth) -> tuple:
    """(alert_rates, tpar_values): TPAR at every achievable alert count
    from 1 to round(0.04 * N), expressed as rates a/N."""
    n = scores.scores.shape[0]
    a_top = _alert_count(DEFAULT_CURVE_RATE, n)
    return np.arange(1, a_top + 1) / n, _precision_at(scores, truth, a_top)


def write_curve(path, curve, comments=()) -> None:
    """Write tpar_curve's (alert_rates, tpar_values) as rows, rates
    ascending."""
    rates, values = curve
    write_table(path, "alert_rate,tpar", (
        f"{rate!r},{value!r}" for rate, value in
        zip(rates.tolist(), values.tolist())), comments)


def _check_methods(methods, d: int):
    if not methods:
        raise ConfigError("at least one method is required")
    seen = []
    for name in methods:
        if name not in METHODS:
            raise ConfigError(
                f"unknown method {name!r}, expected a subset of {METHODS}")
        if name in _MODE_OF:
            try:
                check_mode(_MODE_OF[name], d)
            except ConfigError as exc:
                raise ConfigError(f"method {name!r}: {exc}") from exc
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def check_experiment(ds: Dataset, methods, repeats: int, k_lof: int,
                     k_lrw: int, lambda_policy=CvLambda()) -> tuple:
    """Reject settings run_experiment cannot carry out on ds, the lambda
    policy by check_policy; returns the methods, duplicates dropped."""
    methods = _check_methods(methods, ds.d)
    if not is_integer(repeats) or repeats < 1:
        raise ConfigError(f"repeats must be a positive integer, got {repeats!r}")
    check_policy(lambda_policy, ds.n if _MODE_OF.keys() & methods else None)
    if "mlrw" in methods and not (is_integer(k_lrw) and 1 <= k_lrw <= ds.n):
        raise ConfigError(f"k_lrw must be an integer in [1, {ds.n}] on "
                          f"{ds.n} instances, got {k_lrw!r}")
    if "lof" in methods and not (is_integer(k_lof) and 1 <= k_lof < ds.n):
        raise ConfigError(f"k_lof must be an integer in [1, {ds.n - 1}] on "
                          f"{ds.n} instances, got {k_lof!r}")
    return methods


def score_methods(perturbed: Dataset, methods, *, lambda_policy=CvLambda(),
                  k_lof: int = 100, k_lrw: int = 100,
                  fit_ds: Dataset = None) -> dict:
    """Score one contaminated dataset with each requested method.

    Returns {method name: ScoreVector}. Model-based methods fit on the
    scored (contaminated) data unless an uncontaminated fit_ds is given.
    Methods sharing the full-conditional model share one fit. The LRW
    neighborhoods live in standardized input space.
    """
    methods = _check_methods(methods, perturbed.d)
    if fit_ds is None:
        fit_ds = perturbed

    out = {}
    std_ds, _ = standardize(perturbed)
    modes = {_MODE_OF.get(name) for name in methods}

    if FULL_CONDITIONAL in modes:
        model = fit_mcode(fit_ds, FULL_CONDITIONAL, lambda_policy)
        rho = estimate_rho(model, perturbed)
        if "mprod" in methods:
            out["mprod"] = score_prod(rho)
        if "mrw" in methods:
            out["mrw"] = score_rw(rho, global_weights(rho))
        if "mlrw" in methods:
            out["mlrw"] = score_lrw(
                rho, local_weights(rho, NeighborIndex(std_ds.X), k_lrw))

    if INDEPENDENT in modes:
        model_i = fit_mcode(fit_ds, INDEPENDENT, lambda_policy)
        out["iprod"] = score_prod(estimate_rho(model_i, perturbed))

    if "lof" in methods:
        pts = np.hstack([std_ds.X, perturbed.Y.astype(np.float64)])
        out["lof"] = lof_scores(pts, LofConfig(k=k_lof))

    return {name: out[name] for name in methods}


def run_experiment(ds: Dataset, methods, ratio: float, dim_fraction: float,
                   repeats: int = 10, seed: int = 0, *,
                   lambda_policy=CvLambda(),
                   k_lof: int = 100, k_lrw: int = 100,
                   fit_on_original: bool = False,
                   upper: float = DEFAULT_UPPER_RATE,
                   on_repeat=None) -> dict:
    """Repeated inject-fit-score-evaluate loop.

    Repeat r uses seed + r for its injection, so an experiment is fully
    reproducible from (dataset, config, seed). Returns {method name:
    tuple of its ATPAR in each repeat} in the order methods were
    requested. on_repeat, if given, is called after each repeat with
    (repeat index, PerturbationLog, {method: ScoreVector}, {method:
    ATPAR}) so callers can persist per-repeat artifacts.
    """
    methods = check_experiment(ds, methods, repeats, k_lof, k_lrw,
                               lambda_policy)
    _alert_count(upper, ds.n)  # atpar's check of upper, before any fit

    per_repeat = []
    for r in range(repeats):
        perturbed, log = inject_outliers(ds, ratio, dim_fraction, seed + r)
        scored = score_methods(
            perturbed, methods, lambda_policy=lambda_policy, k_lof=k_lof,
            k_lrw=k_lrw, fit_ds=ds if fit_on_original else None)
        atpars = {name: atpar(scored[name], log.outlier_rows, upper)
                  for name in methods}
        per_repeat.append(atpars)
        if on_repeat is not None:
            on_repeat(r, log, scored, atpars)

    return {name: tuple(a[name] for a in per_repeat) for name in methods}
