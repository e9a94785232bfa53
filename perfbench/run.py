"""Layered benchmark of the mcode inject -> fit -> score -> ATPAR loop.

    python3 perfbench/run.py --workload planted_fixed_2k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A named workload runs in this process. It sets up several times (the
median is setup_s), then runs whole passes over the workload's fixed list
of operations while another pass fits in --seconds (at least one pass),
checks every operation's output after its timed region, and prints a
table followed, on the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every operation runs
under the span recorder and the metrics are the per-layer ones. A record
with provenance (and, when traced, every span) goes to
perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json.

`--workload all` runs every workload untraced and then traced, each in
its own process, and prints the tracing overhead (traced minus untraced
repeat_s) next to each workload's numbers.

perfbench/README.md lists the workloads, metrics, and which layer metric
should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("planted_fixed_2k", "detect_cv_1k", "score_knn_8k")
# Set-up runs at least SETUP_REPEATS times and, when it is cheap, until
# SETUP_MIN_SECONDS have passed, so that the median of a millisecond
# set-up is taken over enough samples to be steady.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPEATS = 500
E2E_METHODS = ("iprod", "mprod", "mrw", "mlrw")

# Penalties CvLambda chose per output dimension on detect_cv_1k at the
# commit that introduced the benchmark. A traced run fails an operation
# whose fits choose others, so any change to CV must reproduce them.
CV_LAMBDAS = {
    "full_conditional": [1.0, 1.0, 1.0, 0.1, 1.0, 1.0, 100.0, 100.0],
    "independent": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 100.0, 100.0],
}


def _cap_blas_threads():
    # Must run before NumPy is imported; every NumPy import here is lazy.
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)


def _find_sources():
    missing = [p for p in ("src/mcode/__init__.py", "tests/synthdata.py",
                           "tests/oracles.py", "tests/test_acceptance.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: run from a checkout of the repository; "
                 f"missing {', '.join(missing)}")
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]


def build_workload(name):
    import workloads
    from test_acceptance import EXPECTED_MEAN_ATPAR

    if name == "planted_fixed_2k":
        return workloads.PlantedFixed(expected_means=EXPECTED_MEAN_ATPAR)
    if name == "detect_cv_1k":
        return workloads.DetectCv(expected_lambdas=CV_LAMBDAS)
    return workloads.ScoreKnn()


def _git_sha(root):
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(name, seed, seconds, trace):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcode").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(ROOT),
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": name,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_workload(wl, seed, seconds, trace, workdir):
    """Set up, run whole passes for `seconds`, check; return the record."""
    import numpy as np
    from tracing import LAYER_SPANS, OPERATION_SPAN, Recorder
    from workloads import CheckFailed

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS
            and len(setup_times) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        state = wl.setup(workdir)
        setup_times.append(perf_counter() - t0)

    order = list(wl.op_seeds)
    random.Random(seed).shuffle(order)
    recorder = Recorder() if trace else None

    times, run_ops, atpars, extras, failures = [], [], [], [], []
    first_pass = {}  # op seed -> ATPARs of its first passing operation
    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for op_seed in order:
            op_id = f"op{attempted:04d}-seed{op_seed}"
            attempted += 1
            traced = (recorder.operation(op_id) if recorder
                      else contextlib.nullcontext())
            try:
                with traced:
                    t0 = perf_counter()
                    raw = wl.run(state, op_seed)
                    elapsed = perf_counter() - t0
                times.append(elapsed)
                run_ops.append(op_id)
                op_atpars, extra = wl.check(state, op_seed, raw)
                if recorder is not None and wl.expected_lambdas is not None:
                    chosen = {mode: lams for op, mode, lams in recorder.models
                              if op == op_id}
                    if chosen != wl.expected_lambdas:
                        raise CheckFailed(
                            f"CV chose {chosen}, expected "
                            f"{wl.expected_lambdas}")
            except Exception as exc:  # one failed operation; keep measuring
                traceback.print_exc(file=sys.stderr)
                failures.append(f"{op_id}: {exc}")
                failed += 1
                continue
            atpars.append(op_atpars)
            first_pass.setdefault(op_seed, op_atpars)
            extras.append(extra)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    try:
        wl.check_run(state, seed, first_pass)
    except Exception as exc:  # a check over the whole run fails every op
        traceback.print_exc(file=sys.stderr)
        failures.append(f"run: {exc}")
        failed = attempted

    repeat = statistics.median(times) if times else float("nan")
    rec = {
        "attempted": attempted, "failed": failed,
        "failures": failures, "op_seed_order": order,
        "op_seconds": times, "setup_seconds": setup_times,
        "samples": len(times),
    }
    if not trace:
        rec["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "repeat_s": repeat,
            "rows_per_s": wl.rows * len(times) / sum(times) if times else 0.0,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{f"atpar.{m}": float(np.mean([a[m] for a in atpars]))
               if atpars else 0.0 for m in E2E_METHODS},
        }
        return rec

    n_ops = max(1, len(run_ops))
    self_times = recorder.self_times(run_ops)
    factors = recorder.factors

    def per_op(counter):
        return sum(recorder.counts[op, counter] for op in run_ops) / n_ops

    metrics = {f"{name}_s": self_times[name] / n_ops for name in LAYER_SPANS}
    metrics.update({
        "optim.train_calls": recorder.span_count(run_ops, "optim.train") / n_ops,
        "optim.cv_calls": recorder.span_count(run_ops, "optim.cv") / n_ops,
        "optim.objective_evals": per_op("optim.objective_evals"),
        "optim.unconverged": sum(not c for _, c, _ in factors) / n_ops,
        "optim.max_grad_norm": max((g for _, _, g in factors), default=0.0),
        "scoring.dist_bytes": per_op("scoring.dist_bytes"),
        "cli.artifact_bytes": float(np.mean(
            [e.get("cli.artifact_bytes", 0) for e in extras]))
        if extras else 0.0,
        "lof.atpar": float(np.mean([a["lof"] for a in atpars]))
        if atpars else 0.0,
        "trace.repeat_s": repeat,
        "trace.spans": recorder.span_count(run_ops) / n_ops,
        "trace.unattributed_s": self_times[OPERATION_SPAN] / n_ops,
    })
    rec["metrics"] = metrics
    rec["lambdas"] = recorder.models
    rec["spans"] = recorder.dump()
    return rec


def metric_units():
    """{metric name: unit} as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args):
    _find_sources()
    wl = build_workload(args.workload)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        rec = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                           workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec["provenance"] = provenance(args.workload, args.seed, args.seconds,
                                   args.trace)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)
        fh.write("\n")

    units = metric_units()
    print(json.dumps(rec["provenance"], sort_keys=True))
    print(f"{args.workload}: {rec['attempted']} operations attempted, "
          f"{rec['failed']} failed; repeat_s is the median of "
          f"{rec['samples']} operations, setup_s of "
          f"{len(rec['setup_seconds'])} set-ups")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")
    for name, value in rec["metrics"].items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in rec["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload untraced then traced, each in a process of its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name}: exited with {proc.returncode}")
                summary["correct"] = False
                results.append({})
                continue
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = entry
            results.append(result["metrics"])
        untraced, traced = results
        if "repeat_s" in untraced and "trace.repeat_s" in traced:
            overhead = (traced["trace.repeat_s"]["value"]
                        - untraced["repeat_s"]["value"])
            print(f"  {'trace.overhead_s':<28} {overhead:>16.6g} s "
                  f"(traced minus untraced repeat_s)")
            summary["metrics"][f"{name}/trace.overhead_s"] = {
                "value": overhead, "unit": "s"}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the operations of each pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run whole passes while another one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    _cap_blas_threads()
    sys.exit(main())
