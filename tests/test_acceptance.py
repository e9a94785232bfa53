"""Acceptance gate for the package.

Four staged criteria, each reported on its own ``ACCEPTANCE <name>: ...``
line: a fast invariant sweep cross-checked against the plain-loop
reference implementations, a planted-structure benchmark with frozen
expected magnitudes, an optional reproduction on the Yeast multi-label
dataset (skipped when the file is not present), and trend checks across
outlier dimensionality. A fifth line records that web-scale datasets are
out of scope for this gate.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from mcode import (CvLambda, FixedLambda, LofConfig, NeighborIndex, RhoMatrix,
                   ScoreVector, atpar, estimate_rho, fit_mcode,
                   global_weights, inject_outliers, load_csv, local_weights,
                   lof_scores, make_rng, penalized_nll, round_half_up,
                   run_experiment, score_prod, score_rw, tpar)

from conftest import make_coupled_dataset
from oracles import (brute_knn, oracle_atpar, oracle_lof, oracle_rho,
                     oracle_tpar)
from synthdata import make_benchmark_dataset

ALL_METHODS = ("lof", "iprod", "mprod", "mrw", "mlrw")

# Frozen from a one-time run of the plain-loop reference scorers on the
# planted benchmark (generator seed 7, injection seeds 0-9, ratio 0.01,
# dim_fraction 0.25, lambda 1.0, k=100). Tolerance 0.05 on each mean.
EXPECTED_MEAN_ATPAR = {
    "lof": 0.0094,
    "iprod": 0.0876,
    "mprod": 0.6987,
    "mrw": 0.6554,
    "mlrw": 0.5988,
}

YEAST_SHAPE = (2417, 103, 14)
# Reference mean ATPAR for this dataset at 1% contamination and 10%
# flipped dimensions, k=100; each checked within 0.15 absolute.
YEAST_EXPECTED = {
    "lof": 0.08,
    "iprod": 0.04,
    "mprod": 0.45,
    "mrw": 0.64,
    "mlrw": 0.63,
}
YEAST_POLICY = CvLambda(grid=(0.1, 1.0, 10.0), folds=3, seed=0)


class _Note:
    text = ""


@contextmanager
def _criterion(name: str, capsys):
    note = _Note()
    try:
        yield note
    except Exception:
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    suffix = f" ({note.text})" if note.text else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: PASS{suffix}", flush=True)


def _yeast_path():
    env = os.environ.get("MCODE_YEAST_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "yeast.csv"


def _skip_yeast(name: str, capsys):
    path = _yeast_path()
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: SKIPPED (dataset file {path} not "
              "present; set MCODE_YEAST_CSV to enable)", flush=True)
    pytest.skip(f"yeast dataset not present at {path}")


@pytest.fixture(scope="module")
def benchmark_runs():
    """One shared pass over the planted benchmark at both dimensionalities."""
    ds = make_benchmark_dataset()
    first_repeat = {}

    def keep_first(r, log, scored, atpars):
        if r == 0:
            first_repeat["log"] = log
            first_repeat["scored"] = scored

    t0 = time.time()
    high = run_experiment(ds, ALL_METHODS, ratio=0.01, dim_fraction=0.25,
                          repeats=10, seed=0, lambda_policy=FixedLambda(1.0),
                          k_lof=100, k_lrw=100, on_repeat=keep_first)
    low = run_experiment(ds, ("mrw",), ratio=0.01, dim_fraction=0.125,
                         repeats=10, seed=0, lambda_policy=FixedLambda(1.0))
    return high, low, first_repeat, time.time() - t0


@pytest.fixture(scope="module")
def yeast_runs():
    path = _yeast_path()
    if not path.is_file():
        return None
    ds = load_csv(path, n_outputs=YEAST_SHAPE[2])
    assert (ds.n, ds.m, ds.d) == YEAST_SHAPE, \
        f"unexpected yeast shape {(ds.n, ds.m, ds.d)}"
    t0 = time.time()
    at_10 = run_experiment(ds, ALL_METHODS, ratio=0.01, dim_fraction=0.10,
                           repeats=10, seed=0, lambda_policy=YEAST_POLICY,
                           k_lof=100, k_lrw=100)
    at_20 = run_experiment(ds, ("mrw",), ratio=0.01, dim_fraction=0.20,
                           repeats=10, seed=0, lambda_policy=YEAST_POLICY)
    return at_10, at_20, time.time() - t0


def test_property_suite(capsys):
    with _criterion("property_suite", capsys) as note:
        t0 = time.time()
        checks = []

        def check(name, ok):
            checks.append(name)
            assert ok, f"property check failed: {name}"

        rng = make_rng(314)

        # analytic gradient vs central finite differences
        worst = 0.0
        for trial in range(3):
            feats = rng.standard_normal((40, 5))
            labels = (rng.random(40) < 0.5).astype(np.int8)
            params = rng.standard_normal(6)
            _, grad, _ = penalized_nll(params, feats, labels, lam=0.7)
            h = 1e-6
            for j in range(6):
                step = np.zeros(6)
                step[j] = h
                hi = penalized_nll(params + step, feats, labels, lam=0.7)[0]
                lo = penalized_nll(params - step, feats, labels, lam=0.7)[0]
                fd = (hi - lo) / (2 * h)
                worst = max(worst, abs(fd - grad[j]) / max(1.0, abs(grad[j])))
        check("gradient_finite_difference", worst <= 1e-5)

        # unit reliability weights reduce the weighted score to the product
        rho = RhoMatrix(np.clip(rng.random((50, 4)), 1e-6, 1 - 1e-6))
        unit = np.ones(4)
        check("rw_unit_weights_equals_prod",
              np.array_equal(score_rw(rho, unit).scores,
                             score_prod(rho).scores))

        # a whole-dataset neighborhood makes local weights global
        pts = rng.standard_normal((50, 3))
        index = NeighborIndex(pts)
        lw = local_weights(rho, index, k=50)
        gw = global_weights(rho)
        check("lrw_full_neighborhood_equals_rw",
              np.array_equal(lw.w, np.tile(gw, (50, 1))))

        # exact k-nearest-neighbour sets, listed in index order, against
        # a full-sort reference
        knn_ok = True
        for size in (50, 75, 100):
            p = rng.standard_normal((size, 4))
            p[size // 2] = p[0]  # plant a distance tie
            idx = NeighborIndex(p)
            for k in (1, 7, size):
                got = idx.query_all(k)
                for i in range(size):
                    if list(got[i]) != sorted(
                            brute_knn(p.tolist(), p[i].tolist(), k)):
                        knn_ok = False
        check("knn_vs_brute_force", knn_ok)

        # LOF against the definition-level reference
        p60 = rng.standard_normal((60, 3))
        for k in (3, 10):
            mine = lof_scores(p60, LofConfig(k=k)).scores
            ref = oracle_lof(p60.tolist(), k)
            check(f"lof_vs_reference_k{k}",
                  max(abs(mine - np.array(ref))) <= 1e-9)

        # pipeline rho versus direct per-instance re-evaluation
        ds = make_coupled_dataset(n=80, m=4, d=3, seed=5)
        for mode in ("full_conditional", "independent"):
            model = fit_mcode(ds, mode, FixedLambda(1.0))
            mine = estimate_rho(model, ds).values
            ref = np.array(oracle_rho(model, ds))
            check(f"rho_direct_reevaluation_{mode}",
                  np.max(np.abs(mine - ref)) <= 1e-12)

        # alert-rate metrics against plain enumeration
        raw = rng.standard_normal(120)
        vector = ScoreVector(scores=raw)
        outliers = frozenset(int(i) for i in rng.choice(120, 15,
                                                        replace=False))
        enum_ok = True
        for a in range(1, 16):
            lib = tpar(vector, outliers, alert_rate=a / 120)
            if abs(lib - oracle_tpar(raw.tolist(), outliers, a)) > 1e-12:
                enum_ok = False
        for upper in (0.01, 0.05, 0.1):
            lib = atpar(vector, outliers, upper=upper)
            ref = oracle_atpar(raw.tolist(), outliers,
                               round_half_up(upper * 120))
            if abs(lib - ref) > 1e-12:
                enum_ok = False
        check("tpar_atpar_enumeration", enum_ok)

        # flip counts follow the rounding rule and flipping is an involution
        base = make_coupled_dataset(n=97, m=3, d=5, seed=11)
        pert, log = inject_outliers(base, ratio=0.033, dim_fraction=0.5,
                                    seed=2)
        rows = round_half_up(0.033 * 97)
        per_row = round_half_up(0.5 * 5)
        restored = pert.Y.copy()
        for r, c in log.flipped_cells:
            restored[r, c] = 1 - restored[r, c]
        check("perturbation_involution_and_counts",
              len(log.outlier_rows) == rows
              and len(log.flipped_cells) == rows * per_row
              and np.array_equal(restored, base.Y)
              and np.array_equal(pert.X, base.X))

        note.text = f"{len(checks)} checks, {time.time() - t0:.1f}s"


def test_synthetic_benchmark(benchmark_runs, capsys):
    high, _, first_repeat, elapsed = benchmark_runs
    with _criterion("synthetic_benchmark", capsys) as note:
        means = {name: np.mean(values) for name, values in high.items()}

        assert means["mrw"] > means["iprod"] + 0.10, means
        assert means["mrw"] > means["lof"] + 0.10, means
        assert means["mprod"] >= means["iprod"], means
        for name, expected in EXPECTED_MEAN_ATPAR.items():
            assert abs(means[name] - expected) <= 0.05, \
                f"{name}: got {means[name]:.4f}, expected {expected}+-0.05"

        # second route: re-derive repeat 0 from the stored rankings with
        # the plain-loop evaluator
        log = first_repeat["log"]
        a_max = round_half_up(0.01 * 2000)
        for name, vector in first_repeat["scored"].items():
            ref = oracle_atpar([float(s) for s in vector.scores],
                               set(log.outlier_rows), a_max)
            assert abs(high[name][0] - ref) <= 1e-12, name

        note.text = (" ".join(f"{n}={means[n]:.3f}" for n in ALL_METHODS)
                     + f", {elapsed:.0f}s")


def test_yeast_reproduction(yeast_runs, capsys):
    if yeast_runs is None:
        _skip_yeast("yeast_reproduction", capsys)
    at_10, _, elapsed = yeast_runs
    with _criterion("yeast_reproduction", capsys) as note:
        means = {name: np.mean(values) for name, values in at_10.items()}
        for name, expected in YEAST_EXPECTED.items():
            assert abs(means[name] - expected) <= 0.15, \
                f"{name}: got {means[name]:.4f}, expected {expected}+-0.15"
        assert min(means["mrw"], means["mlrw"]) > means["mprod"], means
        assert means["mprod"] > max(means["lof"], means["iprod"]), means
        note.text = (" ".join(f"{n}={means[n]:.3f}" for n in ALL_METHODS)
                     + f", {elapsed:.0f}s")


def test_dimensionality_trend(benchmark_runs, yeast_runs, capsys):
    high, low, _, _ = benchmark_runs
    with _criterion("dimensionality_trend", capsys) as note:
        assert np.mean(high["mrw"]) > np.mean(low["mrw"]), \
            (np.mean(low["mrw"]), np.mean(high["mrw"]))
        parts = [f"synthetic mrw {np.mean(low['mrw']):.3f}->"
                 f"{np.mean(high['mrw']):.3f}"]
        if yeast_runs is None:
            parts.append("yeast portion skipped: dataset not present")
        else:
            at_10, at_20, _ = yeast_runs
            assert np.mean(at_20["mrw"]) >= np.mean(at_10["mrw"]) - 0.10, \
                (np.mean(at_10["mrw"]), np.mean(at_20["mrw"]))
            parts.append(f"yeast mrw {np.mean(at_10['mrw']):.3f}->"
                         f"{np.mean(at_20['mrw']):.3f}")
        note.text = "; ".join(parts)


def test_full_scale_exclusion(capsys):
    with _criterion("full_scale_exclusion", capsys) as note:
        # web-scale corpora are exercised only through the scale-free
        # invariants above; no bundled data, nothing to download
        data_dir = Path(__file__).resolve().parent.parent / "data"
        bundled = list(data_dir.glob("*")) if data_dir.is_dir() else []
        assert all(p.name == "yeast.csv" for p in bundled)
        note.text = "large corpora out of scope for this gate"
