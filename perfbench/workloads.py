"""The benchmark's workloads: set-up, one timed operation, and its checks.

An operation is one inject -> fit -> score -> ATPAR repeat for one
injection seed. Each workload has a fixed list of injection seeds that
every run processes in full, because the cost of one repeat depends on
its seed (on planted_fixed_2k the full-conditional fit alone ranges over
a factor of four between seeds), and ATPAR only stays comparable between
runs and commits on identical inputs. The run's own seed sets the order
in which the operations run.

All calls into the package go through module attributes (``mcode.x``,
``cli.main``) so that the traced run's wrappers see them. Checks run
after the timed region and raise CheckFailed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import numpy as np

import mcode
import mcode.scoring
from mcode import cli
from oracles import brute_knn, oracle_atpar, oracle_rho
from synthdata import make_benchmark_dataset

METHODS = ("lof", "iprod", "mprod", "mrw", "mlrw")
RATIO = 0.01
DIM_FRACTION = 0.25
UPPER = 0.01
K = 100
ATPAR_TOL = 1e-12
# Injection seeds and tolerance of the planted benchmark's acceptance means.
ACCEPTANCE_SEEDS = tuple(range(10))
ACCEPTANCE_TOL = 0.05
# Rows per operation whose rho and LRW weights are rebuilt by the oracles.
SAMPLE_ROWS = 4


class CheckFailed(Exception):
    """An operation's output disagreed with its reference."""


def _check_atpar(method, value, scores, outlier_rows):
    a_max = max(1, mcode.round_half_up(UPPER * len(scores)))
    ref = oracle_atpar([float(s) for s in scores], set(outlier_rows), a_max)
    if abs(value - ref) > ATPAR_TOL:
        raise CheckFailed(f"{method}: atpar {value!r} != oracle {ref!r}")


class Workload:
    """Defaults shared by the workloads below."""

    # {mode: [lambda per dimension]} that a traced run must see chosen.
    expected_lambdas = None

    def check_run(self, state, run_seed, atpars_by_seed):
        """Checks over the whole run, given each op seed's ATPARs."""


class PlantedFixed(Workload):
    """The acceptance-gate configuration, fit-bound.

    inject_outliers + score_methods (all five methods, FixedLambda(1.0),
    k=100) + atpar on the planted generator (generator seed 7). A run
    times injection seeds 0-4; the acceptance means need seeds 0-9, so a
    run at workload seed 0 completes them, untimed, in check_run.
    """

    name = "planted_fixed_2k"

    def __init__(self, n=2000, op_seeds=tuple(range(5)), expected_means=None):
        self.rows = n
        self.op_seeds = tuple(op_seeds)
        self.expected_means = expected_means

    def setup(self, workdir):
        return make_benchmark_dataset(n=self.rows)

    def run(self, ds, seed):
        perturbed, log = mcode.inject_outliers(ds, RATIO, DIM_FRACTION, seed)
        scored = mcode.score_methods(
            perturbed, METHODS, lambda_policy=mcode.FixedLambda(1.0),
            k_lof=K, k_lrw=K)
        atpars = {name: mcode.atpar(sv, log.outlier_rows, UPPER)
                  for name, sv in scored.items()}
        return log, scored, atpars

    def check(self, ds, seed, raw):
        log, scored, atpars = raw
        for name in METHODS:
            _check_atpar(name, atpars[name], scored[name].scores,
                         log.outlier_rows)
        return atpars, {}

    def check_run(self, ds, run_seed, atpars_by_seed):
        """At workload seed 0, the mean ATPARs over the acceptance seeds lie
        within ACCEPTANCE_TOL of the frozen acceptance means."""
        if self.expected_means is None or run_seed != 0:
            return
        by_seed = dict(atpars_by_seed)
        for seed in ACCEPTANCE_SEEDS:
            if seed not in by_seed:
                by_seed[seed], _ = self.check(ds, seed, self.run(ds, seed))
        for name, expected in self.expected_means.items():
            mean = float(np.mean([by_seed[s][name]
                                  for s in ACCEPTANCE_SEEDS]))
            if abs(mean - expected) > ACCEPTANCE_TOL:
                raise CheckFailed(
                    f"{name}: mean atpar {mean:.4f} outside "
                    f"{expected} +- {ACCEPTANCE_TOL}")


class DetectCv(Workload):
    """The user's default command: in-process `mcode detect` with CvLambda.

    The planted generator's data is written to CSV during set-up; each
    operation runs one repeat into a fresh output directory with stdout
    captured.
    """

    name = "detect_cv_1k"

    def __init__(self, n=1000, op_seeds=(0,), expected_lambdas=None):
        self.rows = n
        self.op_seeds = tuple(op_seeds)
        self.expected_lambdas = expected_lambdas

    def setup(self, workdir):
        path = workdir / "planted.csv"
        mcode.save_csv(make_benchmark_dataset(n=self.rows), path)
        return {"csv": path, "workdir": workdir, "runs": 0}

    def run(self, state, seed):
        state["runs"] += 1
        out = state["workdir"] / f"detect_{state['runs']:04d}"
        argv = ["detect", "--dataset", str(state["csv"]), "--n-outputs", "8",
                "--dim-fraction", str(DIM_FRACTION), "--repeats", "1",
                "--seed", str(seed), "--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def check(self, state, seed, raw):
        code, out = raw
        try:
            if code != 0:
                raise CheckFailed(f"detect exited with {code}")
            log = mcode.load_log(out / "logs" / "perturbation_r00.json")
            with open(out / "report.jsonl") as fh:
                reported = {rec["method"]: rec["atpar"]
                            for rec in map(json.loads, fh)}
            if sorted(reported) != sorted(METHODS):
                raise CheckFailed(f"report.jsonl lists {sorted(reported)}")
            for name in METHODS:
                scores, _ = mcode.scoring.load_score_table(
                    out / "scores" / f"{name}_r00.csv")
                _check_atpar(name, reported[name], scores, log.outlier_rows)
            written = sum(f.stat().st_size for f in out.rglob("*")
                          if f.is_file())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return reported, {"cli.artifact_bytes": written}


class ScoreKnn(Workload):
    """Fit once on clean data, then score many contaminated samples.

    Set-up fits both models with FixedLambda(1.0) on a clean planted
    sample; each operation injects into a larger planted dataset from
    another generator seed and scores it, so no training happens per
    operation and the kNN layer (two N x N distance matrices) dominates.
    """

    name = "score_knn_8k"

    def __init__(self, n_fit=2000, n_score=8000, k=K, op_seeds=(0, 1, 2)):
        self.n_fit = n_fit
        self.rows = n_score
        self.k = k
        self.op_seeds = tuple(op_seeds)

    def setup(self, workdir):
        clean = make_benchmark_dataset(n=self.n_fit)
        policy = mcode.FixedLambda(1.0)
        return {
            "full": mcode.fit_mcode(clean, mcode.FULL_CONDITIONAL, policy),
            "independent": mcode.fit_mcode(clean, mcode.INDEPENDENT, policy),
            "data": make_benchmark_dataset(n=self.rows, seed=11),
        }

    def run(self, state, seed):
        perturbed, log = mcode.inject_outliers(
            state["data"], RATIO, DIM_FRACTION, seed)
        std, _ = mcode.standardize(perturbed)
        rho = mcode.estimate_rho(state["full"], perturbed)
        rho_i = mcode.estimate_rho(state["independent"], perturbed)
        local = mcode.local_weights(rho, mcode.NeighborIndex(std.X), self.k)
        joint = np.hstack([std.X, perturbed.Y.astype(np.float64)])
        scored = {
            "lof": mcode.lof_scores(joint, mcode.LofConfig(k=self.k)),
            "iprod": mcode.score_prod(rho_i),
            "mprod": mcode.score_prod(rho),
            "mrw": mcode.score_rw(rho, mcode.global_weights(rho)),
            "mlrw": mcode.score_lrw(rho, local),
        }
        atpars = {name: mcode.atpar(sv, log.outlier_rows, UPPER)
                  for name, sv in scored.items()}
        return perturbed, log, std, rho, rho_i, local, scored, atpars

    def check(self, state, seed, raw):
        perturbed, log, std, rho, rho_i, local, scored, atpars = raw
        # The plain-loop ATPAR costs seconds at this N, so it checks the
        # two kNN-based methods this workload exists for.
        for name in ("lof", "mlrw"):
            _check_atpar(name, atpars[name], scored[name].scores,
                         log.outlier_rows)

        rows = np.sort(np.random.default_rng(seed).choice(
            self.rows, size=SAMPLE_ROWS, replace=False))
        sample = mcode.Dataset(perturbed.X[rows], perturbed.Y[rows])
        for model, values in ((state["full"], rho.values),
                              (state["independent"], rho_i.values)):
            ref = np.array(oracle_rho(model, sample))
            if np.max(np.abs(values[rows] - ref)) > 1e-12:
                raise CheckFailed(f"{model.mode}: rho differs from oracle_rho")

        # LRW weights of a row, rebuilt from brute-force neighborhoods.
        points = std.X.tolist()
        errors = 1.0 - rho.values
        for r in rows:
            members = sorted(brute_knn(points, points[r], self.k))
            expected = self.k / errors[members].sum(axis=0)
            if not np.allclose(local.w[r], expected, rtol=1e-12, atol=0.0):
                raise CheckFailed(f"row {r}: LRW neighborhood != brute_knn")
        return atpars, {}
