"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/tests

Runs every workload at a few hundred rows, untraced and traced, and
checks that each run reports exactly the metrics BENCHMARK.json declares
with no failed operation; then checks that the benchmark refuses to run
where the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "planted_fixed_2k": lambda: workloads.PlantedFixed(n=300, op_seeds=(0, 1)),
    "detect_cv_1k": lambda: workloads.DetectCv(n=200),
    "score_knn_8k": lambda: workloads.ScoreKnn(
        n_fit=300, n_score=400, k=20, op_seeds=(0,)),
}


def test_tiny_workloads_match_the_spec():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_declared_metrics(name, trace, tmp_path):
    rec = run.run_workload(TINY[name](), seed=3, seconds=0, trace=bool(trace),
                           workdir=tmp_path)
    assert rec["failures"] == []
    assert rec["failed"] == 0 and rec["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(rec["metrics"]) == {m["name"] for m in declared}
    if trace:
        layer = rec["metrics"]
        assert layer["trace.spans"] > 0
        if name == "detect_cv_1k":
            assert layer["optim.cv_calls"] > 0 and layer["cli.detect_s"] > 0
        if name == "score_knn_8k":
            assert layer["optim.train_calls"] == 0
            assert layer["scoring.dist_bytes"] == 16 * 400 ** 2


def test_failed_acceptance_means_fail_every_operation(tmp_path):
    wl = workloads.PlantedFixed(n=300, op_seeds=(0, 1),
                                expected_means={"mrw": 5.0})
    rec = run.run_workload(wl, seed=0, seconds=0, trace=False,
                           workdir=tmp_path)
    assert rec["failed"] == rec["attempted"] == 2
    assert rec["failures"][-1].startswith("run: mrw: mean atpar")


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "planted_fixed_2k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
