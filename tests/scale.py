"""Scale record: default `mcode detect` on planted data at a large N, with
the time each layer took, the wall time, the peak RSS and the machine.

    PYTHONPATH=src python tests/scale.py [--rows N] [--repeats R]
    python tests/scale.py --parent TREE [--rows N] [--repeats R]

It generates the planted data of tests/synthdata.make_benchmark_dataset
(generator seed 11, N = 50,000 rows unless --rows says otherwise),
writes it to a temporary directory and runs

    mcode detect --dataset data.csv --n-outputs 8 --dim-fraction 0.25
                 --repeats R --out-dir out

there, in this process, with the package first on the path (R = 10
unless --repeats says otherwise), every other option at its default,
under perfbench/tracing.py's span recorder. It prints detect's report
table, the machine record (Python, NumPy, platform, the CPUs the
process may use and the BLAS thread variables, which it records but
does not set), each layer's self time, the wall time of detect and the
process's peak resident set size, then the same record as one JSON
object on the last line.

With --parent TREE, a source checkout holding src/mcode, it runs TREE's
package and then this tree's, each in a fresh process of its own, and
prints both records and their ratio, layer by layer. The data, the
tracer and this script are this tree's in both runs.

A default run takes about 3 min on a 2-CPU machine and peaks near
320 MiB. pytest collects only test_*.py, so the tier-1 suite does not
run this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
GENERATOR_SEED = 11
N_OUTPUTS = 8
DIM_FRACTION = 0.25
OPERATION = "detect"


def machine() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "blas_threads": {var: os.environ.get(var, "unset")
                             for var in BLAS_THREAD_VARS}}


def record(rows: int, repeats: int) -> dict:
    """Run the traced detect in this process; its record."""
    import mcode
    import mcode.cli
    from synthdata import make_benchmark_dataset
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import LAYER_SPANS, OPERATION_SPAN, Recorder

    recorder = Recorder()
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        mcode.save_csv(make_benchmark_dataset(n=rows, seed=GENERATOR_SEED),
                       data)
        argv = ["detect", "--dataset", str(data),
                "--n-outputs", str(N_OUTPUTS),
                "--dim-fraction", str(DIM_FRACTION),
                "--repeats", str(repeats), "--out-dir", str(Path(tmp) / "out")]
        echoed = io.StringIO()
        start = perf_counter()
        # mcode.cli.main as the recorder binds it, so that its span opens
        with recorder.operation(OPERATION), \
                contextlib.redirect_stdout(echoed):
            code = mcode.cli.main(argv)
        wall = perf_counter() - start
    # what detect printed, less its first line, the resolved configuration
    print(echoed.getvalue().split("\n", 1)[-1], end="")
    if code != 0:
        raise SystemExit(f"mcode detect exited {code}")
    self_times = recorder.self_times([OPERATION])
    layers = {name: self_times.get(name, 0.0) for name in LAYER_SPANS}
    layers["unattributed"] = self_times.get(OPERATION_SPAN, 0.0)
    return {"machine": machine(),
            "source": os.path.relpath(Path(mcode.__file__).parent),
            "rows": rows, "repeats": repeats, "wall_s": wall,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers_s": layers}


def show(rec: dict) -> None:
    print(f"package: {rec['source']}")
    print("machine: " + json.dumps(rec["machine"], sort_keys=True))
    repeats = rec["repeats"]
    print(f"detect at N = {rec['rows']}, {repeats} repeats: "
          f"{rec['wall_s']:.2f} s wall, {rec['wall_s'] / repeats:.2f} s per "
          f"repeat, peak RSS {rec['peak_rss_mib']:.0f} MiB")
    print(f"  {'layer (self time)':<28}{'total s':>10}{'per repeat':>12}")
    for name, seconds in rec["layers_s"].items():
        print(f"  {name:<28}{seconds:>10.3f}{seconds / repeats:>12.3f}")


def compare(parent: Path, args) -> int:
    """Run parent's package, then this tree's, each in a fresh process."""
    if not (parent / "src" / "mcode" / "__init__.py").is_file():
        print(f"{parent}: no src/mcode package", file=sys.stderr)
        return 2
    recs = []
    for tree in (parent, ROOT):
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        child = subprocess.run(
            [sys.executable, __file__, "--rows", str(args.rows),
             "--repeats", str(args.repeats)],
            env=env, stdout=subprocess.PIPE, text=True, check=True)
        print(child.stdout, end="")
        recs.append(json.loads(child.stdout.splitlines()[-1]))
    before, after = recs
    print(f"this tree / parent: wall {after['wall_s'] / before['wall_s']:.3f}"
          f", peak RSS {after['peak_rss_mib'] / before['peak_rss_mib']:.3f}")
    print(f"  {'layer (self time)':<28}{'parent s':>10}{'this s':>10}"
          f"{'ratio':>8}")
    for name, seconds in after["layers_s"].items():
        old = before["layers_s"].get(name, 0.0)
        ratio = f"{seconds / old:.3f}" if old else "-"
        print(f"  {name:<28}{old:>10.3f}{seconds:>10.3f}{ratio:>8}")
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--parent", type=Path)
    args = parser.parse_args(argv)
    if args.parent is not None:
        return compare(args.parent.resolve(), args)
    rec = record(args.rows, args.repeats)
    show(rec)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
