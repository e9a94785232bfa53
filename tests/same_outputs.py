"""Same-output check: run one fixed matrix of inputs through two source
trees and compare every output bit for bit.

    python tests/same_outputs.py PARENT_TREE [TREE] [--env NAME=VALUE ...]

Each tree is a source checkout holding src/mcode; TREE defaults to the
one this script lives in. Each --env NAME=VALUE sets that environment
variable for TREE's run alone, so that a tree can be compared with
itself under another BLAS kernel:

    python tests/same_outputs.py . --env OPENBLAS_CORETYPE=Haswell

The script makes the inputs once, with TREE's
package and the test helpers beside this script, then runs the matrix in
one fresh process per tree, the parent's first, in the same temporary
directory: every dataset, artifact directory and curve lies at the same
path in both runs, since the configuration hash in each artifact covers
the dataset path and stdout prints the artifact paths. It hashes every
output, prints the first one that differs, and exits 1 if any differs or
exists in one run only, 0 if all are identical.

The matrix:
- fit_mcode in both modes, under CvLambda() and FixedLambda(1.0), on the
  planted data at N = 1000, 3000 and 8000, each also with one output
  column forced to 0: every saved model file, and rho on the fitted data;
- NeighborIndex.query_all, local_weights and lof_scores at k = 100 on
  score_knn_8k's data (N = 8000, injection seed 0) and on an 8000 x 10
  grid of integers 0-3, and at several k on the tie sets of
  tests/conftest.py, one of them scaled until the screen's margin
  overflows;
- `mcode detect --repeats 3` under CV and under `--lambda 1`, each with
  and without `--fit-on-original`; `mcode fit` in both modes, under CV
  and under `--lambda 1`; `mcode eval --curve-out` on every score table
  of one detect repeat: exit codes, stdout and every file written.

It takes about ten seconds per tree on a 2-CPU machine. pytest collects
only test_*.py, so the tier-1 suite does not run this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

FIT_SIZES = (1000, 3000, 8000)
CONSTANT_COLUMN = 4  # the output forced to 0 in the constant cases
K = 100
TIE_KS = (1, 3, 7)
DETECTS = {
    "detect_cv": [],
    "detect_cv_original": ["--fit-on-original"],
    "detect_lambda1": ["--lambda", "1"],
    "detect_lambda1_original": ["--lambda", "1", "--fit-on-original"],
}
FITS = {"fit_cv": [], "fit_lambda1": ["--lambda", "1"]}


def make_inputs(work: Path) -> None:
    """Write every input of the matrix under work, with the package and
    the test helpers found first on the path."""
    import mcode
    from conftest import grid_with_duplicates, mixed_ties
    from synthdata import make_benchmark_dataset

    arrays = {}
    for n in FIT_SIZES:
        ds = make_benchmark_dataset(n=n)
        arrays[f"fit{n}_X"], arrays[f"fit{n}_Y"] = ds.X, ds.Y

    # score_knn_8k's scoring inputs: the clean fit's rho on the
    # contaminated data, its standardized inputs and the joint points
    clean = make_benchmark_dataset(n=2000)
    model = mcode.fit_mcode(clean, mcode.FULL_CONDITIONAL,
                            mcode.FixedLambda(1.0))
    perturbed, _ = mcode.inject_outliers(
        make_benchmark_dataset(n=8000, seed=11), 0.01, 0.25, 0)
    std, _ = mcode.standardize(perturbed)
    arrays["knn8k_points"] = std.X
    arrays["knn8k_joint"] = np.hstack([std.X, perturbed.Y.astype(float)])
    arrays["knn8k_rho"] = mcode.estimate_rho(model, perturbed).values

    gen = np.random.default_rng(0)
    arrays["grid8k_points"] = gen.integers(0, 4, size=(8000, 10)).astype(
        float)
    arrays["grid8k_joint"] = arrays["grid8k_points"]
    arrays["grid8k_rho"] = gen.uniform(0.01, 0.99, size=(8000, 8))

    for seed in range(3):
        for name, pts in ((f"grid{seed}", grid_with_duplicates(seed)),
                          (f"mixed{seed}", mixed_ties(seed))):
            arrays[f"{name}_points"] = arrays[f"{name}_joint"] = pts
            arrays[f"{name}_rho"] = gen.uniform(0.01, 0.99,
                                                size=(len(pts), 3))
    # every distance finite, every screen margin inf
    pts = mixed_ties(5) * (3 * 2.0 ** 504)
    arrays["overflow_points"] = arrays["overflow_joint"] = pts
    arrays["overflow_rho"] = gen.uniform(0.01, 0.99, size=(len(pts), 3))
    np.savez(work / "inputs.npz", **arrays)

    mcode.save_csv(make_benchmark_dataset(n=1000), work / "planted.csv")


def run_matrix(work: Path, tree: Path) -> dict:
    """{output name: sha256 of its bytes}, in the matrix's order."""
    import mcode
    import mcode.cli

    where = Path(mcode.__file__).resolve()
    if not where.is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"imported mcode from {where}, not from {tree}")

    hashes = {}

    def put(name, data):
        hashes[name] = hashlib.sha256(
            data if isinstance(data, bytes) else data.tobytes()).hexdigest()

    def put_files(prefix, root: Path):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            put(f"{prefix}/{path.relative_to(root)}", path.read_bytes())

    inputs = np.load(work / "inputs.npz")
    for n in FIT_SIZES:
        X, Y = inputs[f"fit{n}_X"], inputs[f"fit{n}_Y"]
        constant = Y.copy()
        constant[:, CONSTANT_COLUMN] = 0
        for label, ds in ((f"N{n}", mcode.Dataset(X, Y)),
                          (f"N{n}_constant", mcode.Dataset(X, constant))):
            for mode in (mcode.FULL_CONDITIONAL, mcode.INDEPENDENT):
                for policy in (mcode.CvLambda(), mcode.FixedLambda(1.0)):
                    tag = f"fit_mcode/{label}/{mode}/{type(policy).__name__}"
                    model = mcode.fit_mcode(ds, mode, policy)
                    target = work / "model"
                    shutil.rmtree(target, ignore_errors=True)
                    mcode.save_model(model, target)
                    put_files(tag, target)
                    put(f"{tag}/rho", mcode.estimate_rho(model, ds).values)

    point_sets = [key[:-len("_points")] for key in inputs.files
                  if key.endswith("_points")]
    for name, k in [(name, k) for name in point_sets
                    for k in ((K,) if name.endswith("8k") else TIE_KS)]:
        points = inputs[f"{name}_points"]
        tag = f"knn/{name}/k{k}"
        put(f"{tag}/query_all", mcode.NeighborIndex(points).query_all(k))
        rho = mcode.RhoMatrix(inputs[f"{name}_rho"])
        put(f"{tag}/local_weights", mcode.local_weights(
            rho, mcode.NeighborIndex(points), k).w)
        put(f"{tag}/lof_scores", mcode.lof_scores(
            inputs[f"{name}_joint"], mcode.LofConfig(k=k)).scores)

    def cli(name, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = mcode.cli.main([str(a) for a in argv])
        put(f"{name}/exit", str(code).encode())
        put(f"{name}/stdout", stdout.getvalue().encode())

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    data = ["--dataset", work / "planted.csv", "--n-outputs", 8]
    for name, extra in DETECTS.items():
        cli(name, ["detect", *data, "--dim-fraction", 0.25, "--repeats", 3,
                   "--seed", 0, "--out-dir", out / name, *extra])
        put_files(name, out / name)
    for name, extra in FITS.items():
        cli(name, ["fit", *data, "--modes", mcode.FULL_CONDITIONAL,
                   mcode.INDEPENDENT, "--out-dir", out / name, *extra])
        put_files(name, out / name)
    detected = out / "detect_cv"
    for table in sorted((detected / "scores").glob("*_r01.csv")):
        name = f"eval/{table.stem}"
        curve = out / "curve.csv"
        cli(name, ["eval", "--scores", table, "--log",
                   detected / "logs" / "perturbation_r01.json",
                   "--curve-out", curve])
        put(f"{name}/curve", curve.read_bytes())
        curve.unlink()
    return hashes


def _run(tree: Path, work: Path, *args, environ=None) -> None:
    # the tree's package first; Python puts this script's directory,
    # with the test helpers, on the path too
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **(environ or {}))
    subprocess.run([sys.executable, __file__, *args, str(work), str(tree)],
                   cwd=work, env=env, check=True)


def main(argv) -> int:
    trees, environ = [], {}
    args = iter(argv)
    for arg in args:
        if arg != "--env":
            trees.append(arg)
            continue
        name, sep, value = next(args, "").partition("=")
        if not (name and sep):
            trees = []  # print the usage
            break
        environ[name] = value
    if len(trees) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent = Path(trees[0]).resolve()
    tree = Path(trees[1]).resolve() if len(trees) == 2 else ROOT
    for path in (parent, tree):
        if not (path / "src" / "mcode" / "__init__.py").is_file():
            print(f"{path}: no src/mcode package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _run(tree, work, "--inputs")
        runs = []
        for source, env in ((parent, None), (tree, environ)):
            _run(source, work, "--matrix", environ=env)
            runs.append(json.loads((work / "hashes.json").read_text()))
    before, after = runs
    names = list(before) + [name for name in after if name not in before]
    differ = [name for name in names if before.get(name) != after.get(name)]
    if differ:
        first = differ[0]
        print(f"first difference: {first}: "
              f"{before.get(first, 'missing')} in {parent}, "
              f"{after.get(first, 'missing')} in {tree}")
        print(f"{len(differ)} of {len(names)} outputs differ")
        return 1
    print(f"all {len(names)} outputs identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] in ("--inputs", "--matrix"):
        work_dir, source_tree = Path(sys.argv[2]), Path(sys.argv[3])
        if sys.argv[1] == "--inputs":
            make_inputs(work_dir)
        else:
            (work_dir / "hashes.json").write_text(
                json.dumps(run_matrix(work_dir, source_tree)))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
