"""Mutation check: each mutant is one edit to the package that the named
test modules must catch.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only the named mutants

For each mutant the script copies src/ to a temporary directory, replaces
the mutant's old text, which must occur exactly once in its file, by the
new text, and runs `pytest -x -q` on the mutant's test modules with the
copy first on PYTHONPATH. It tests two mutants at a time, or one if the
process may use one CPU, and prints every mutant's outcome in the order
of MUTANTS. It exits 1 if any mutant survived (its tests pass), is stale
(its old text no longer occurs once) or could not be tested (pytest
itself failed).
pytest collects only test_*.py, so the tier-1 suite does not run this
file.

When a change rewrites a line a mutant guards, it updates that mutant;
when it adds a rule or fixes a bug, it adds a mutant its new test catches.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# mutants tested at once, each in its own copy of src/: at most 2, and
# no more than the CPUs the process may use
WORKERS = min(2, len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/mcode
    old: str
    new: str
    tests: tuple  # test modules, relative to tests/


MUTANTS = (
    # one JSON reader: a missing file escapes as a raw OSError
    Mutant("json-reader-oserror", "dataset.py",
           "except (OSError, ValueError, RecursionError) as exc:",
           "except (ValueError, RecursionError) as exc:",
           ("test_dataset.py", "test_cli.py")),
    # one JSON reader: a document nested too deep escapes as RecursionError
    Mutant("json-reader-recursion", "dataset.py",
           "except (OSError, ValueError, RecursionError) as exc:",
           "except (OSError, ValueError) as exc:",
           ("test_dataset.py",)),
    # one JSON writer: the final newline dropped
    Mutant("json-writer-newline", "dataset.py",
           "        json.dump(doc, fh, indent=2, sort_keys=True)\n"
           "        fh.write(\"\\n\")\n",
           "        json.dump(doc, fh, indent=2, sort_keys=True)\n",
           ("test_dataset.py",)),
    # one table writer: comment lines left unmarked
    Mutant("table-writer-comments", "dataset.py",
           'f"# {line}" for line in comments',
           'f"{line}" for line in comments',
           ("test_scoring.py",)),
    # a rho with no rows is a DomainError, not 0 / 0 weights
    Mutant("rho-no-rows-accepted", "model.py",
           "if values.ndim != 2 or values.shape[0] < 1:",
           "if values.ndim != 2:",
           ("test_model.py",)),
    # a ragged penalty list is a DomainError, not NumPy's ValueError
    Mutant("ragged-penalties", "optim.py",
           "except ValueError:  # a ragged nesting",
           "except ZeroDivisionError:  # a ragged nesting",
           ("test_optim.py",)),
    # the CLI checks --cv-folds and --seed by the library's rules
    Mutant("cli-fold-rule", "cli.py",
           "lambda v: check_folds(v) or True",
           "lambda v: True",
           ("test_cli.py",)),
    Mutant("cli-seed-rule", "cli.py",
           'is_seed,\n                   "an integer >= 0"',
           'lambda v: True,\n                   "an integer >= 0"',
           ("test_cli.py",)),
    # a run resolves once: a number to a float, a grid to its ascending
    # floats, whichever source gave it
    Mutant("cli-number-raw", "cli.py",
           '"a number", float),',
           '"a number", _as_is),',
           ("test_cli.py",)),
    Mutant("cli-grid-raw", "cli.py",
           "lambda v: _checked_grid(_parse_grid(v))),",
           "lambda v: _checked_grid(_parse_grid(v)) and v),",
           ("test_cli.py",)),
    Mutant("cli-grid-unsorted", "cli.py",
           "lambda v: _checked_grid(_parse_grid(v))),",
           "lambda v: _checked_grid(_parse_grid(v)) and _parse_grid(v)),",
           ("test_cli.py",)),
    # a grid holds each penalty once, 0 and -0 as one
    Mutant("grid-duplicates-kept", "optim.py",
           "return tuple(sorted({float(v) + 0.0 for v in values}))",
           "return tuple(sorted(float(v) + 0.0 for v in values))",
           ("test_cli.py",)),
    Mutant("grid-negative-zero-kept", "optim.py",
           "return tuple(sorted({float(v) + 0.0 for v in values}))",
           "return tuple(sorted({float(v) for v in values}))",
           ("test_cli.py",)),
    # a star import binds no submodule
    Mutant("all-lists-modules", "__init__.py",
           " and not isinstance(value, _Module)]",
           "]",
           ("test_readme.py",)),
    # the curve's alert count is _alert_count's
    Mutant("curve-alert-count", "evaluation.py",
           "a_top = _alert_count(DEFAULT_CURVE_RATE, n)",
           "a_top = _alert_count(DEFAULT_UPPER_RATE, n)",
           ("test_evaluation.py",)),
    # the full-conditional methods are named once, with check_mode's rule
    Mutant("method-mode", "evaluation.py",
           '"mrw": FULL_CONDITIONAL',
           '"mrw": INDEPENDENT',
           ("test_evaluation.py",)),
    # a bool is not a rate, a penalty, a fold count or a seed
    Mutant("bool-rate", "dataset.py",
           "return is_number(value) and 0.0 < value <= 1.0",
           "return isinstance(value, (int, float)) and 0.0 < value <= 1.0",
           ("test_dataset.py",)),
    Mutant("bool-penalty", "optim.py",
           "return is_number(value) and 0.0 <= (",
           "return isinstance(value, (int, float)) and 0.0 <= (",
           ("test_optim.py",)),
    Mutant("bool-folds", "optim.py",
           "if not is_integer(folds) or folds < 2:",
           "if not isinstance(folds, int) or folds < 2:",
           ("test_optim.py",)),
    Mutant("bool-seed", "dataset.py",
           "return is_integer(value) and value >= 0",
           "return isinstance(value, int) and value >= 0",
           ("test_evaluation.py",)),
    # Newton directions: the fallback to -g falls on the failing problems
    # alone, and the others solve by Cholesky substitution
    Mutant("directions-fallback-whole-stack", "optim.py",
           "definite = np.flatnonzero([_positive_definite(h) for h in hess])",
           "definite = np.flatnonzero([False for h in hess])",
           ("test_optim.py",)),
    Mutant("directions-no-fallback", "optim.py",
           "definite = np.flatnonzero([_positive_definite(h) for h in hess])",
           "definite = np.arange(len(hess))",
           ("test_optim.py",)),
    Mutant("directions-lu-solve", "optim.py",
           "d[definite] = _substituted(low, d[definite])",
           "d[definite] = np.linalg.solve(hess[definite],\n"
           "                                  d[definite, :, None])[..., 0]",
           ("test_optim.py",)),
    Mutant("substitution-untransposed", "optim.py",
           "np.subtract(rest, low[i, :i] * row, out=rest)",
           "np.subtract(rest, low[:i, i] * row, out=rest)",
           ("test_optim.py",)),
    # NumPy is the only runtime dependency
    Mutant("scipy-import", "optim.py",
           "import numpy as np\n",
           "import numpy as np\nimport scipy.special\n",
           ("test_readme.py",)),
    # a pinned feature's weight stays exactly 0
    Mutant("pinned-gradient-kept", "optim.py",
           "g[np.arange(g.shape[0]), pinned[rows]] = 0.0",
           "g[np.arange(g.shape[0]), pinned[rows]] *= 1.0",
           ("test_optim.py", "test_model.py")),
    Mutant("pinned-hessian-diagonal-2", "optim.py",
           "hess[problem, col, col] = 1.0",
           "hess[problem, col, col] = 2.0",
           ("test_optim.py", "test_model.py")),
    Mutant("pinned-weight-one-early", "model.py",
           "np.insert(factor.weights, pinned[i], 0.0)",
           "np.insert(factor.weights, pinned[i] - 1, 0.0)",
           ("test_optim.py", "test_model.py")),
    # an overflowing logit is summed again
    Mutant("overflow-resum-off", "optim.py",
           "if overflow.any():",
           "if False:",
           ("test_optim.py",)),
    # exact CV ties go to the larger penalty
    Mutant("cv-ties-smaller-lambda", "optim.py",
           "best = len(grid) - 1 - np.argmax(scores[::-1], axis=0)",
           "best = np.argmax(scores, axis=0)",
           ("test_optim.py",)),
    # each fold problem starts from its column's last fold solution
    Mutant("warm-start-wrong-columns", "optim.py",
           "start[:, solved].reshape(-1, p + 1),",
           "start[:, solved[::-1]].reshape(-1, p + 1),",
           ("test_optim.py",)),
    Mutant("warm-start-not-carried", "optim.py",
           "start[:, solved] = params.reshape(len(grid), solved.size, p + 1)",
           "params.reshape(len(grid), solved.size, p + 1)",
           ("test_optim.py",)),
    # the solver's workspace
    Mutant("curvature-weights-in-workspace", "optim.py",
           "weight = weight.copy()  # out of the workspace",
           "weight = weight  # out of the workspace",
           ("test_optim.py",)),
    Mutant("workspace-one-short", "optim.py",
           "workspace = np.empty(_NLL_TEMPORARIES * params.shape[0]",
           "workspace = np.empty((_NLL_TEMPORARIES - 1) * params.shape[0]",
           ("test_optim.py",)),
    # the kNN walk's screen: a margin too small, or none, lets a clean
    # verdict through where a point within rounding of the k-th may be
    # nearer
    Mutant("screen-margin-small", "scoring.py",
           "margin = (8 * (m + 3) * 2.0 ** -53 * reach",
           "margin = 1e-3 * (8 * (m + 3) * 2.0 ** -53 * reach",
           ("test_scoring.py",)),
    Mutant("clean-rule-no-margin", "scoring.py",
           "limit = kth_s + margin[rows]",
           "limit = kth_s",
           ("test_scoring.py",)),
    # the walk's exact distances: padding at inf, a point's own distance
    # excluded for LOF
    Mutant("padding-not-inf", "scoring.py",
           "dist[np.arange(dist.shape[1]) >= counts[:, None]] = np.inf",
           "pass",
           ("test_scoring.py", "test_lof.py")),
    Mutant("self-screen-kept", "scoring.py",
           "screen[np.arange(rows.size), rows] = np.inf",
           "pass",
           ("test_lof.py",)),
    Mutant("self-distance-kept", "scoring.py",
           "dist[dcols == rows[rest, None]] = np.inf",
           "pass",
           ("test_scoring.py",)),
    # the walk's verdicts: a tie across the cut, clean columns in index
    # order, k = N clean, the (k+1)-th a true one
    Mutant("tie-count-at-k", "scoring.py",
           "tied[rest] = rank[:, -1] > room",
           "tied[rest] = rank[:, -1] >= room",
           ("test_scoring.py", "test_lof.py")),
    Mutant("clean-columns-unsorted", "scoring.py",
           "cols[settled] = np.sort(part[settled, :k], axis=1)",
           "cols[settled] = part[settled, :k]",
           ("test_scoring.py",)),
    Mutant("k-equals-n-never-clean", "scoring.py",
           "return ~np.isnan(kth_s)",
           "return np.zeros(kth_s.shape, dtype=bool)",
           ("test_scoring.py",)),
    Mutant("wrong-next-after-kth", "scoring.py",
           "next_s = (screen[np.arange(rows.size), part[:, k]]",
           "next_s = (screen[np.arange(rows.size), part[:, k - 1]]",
           ("test_scoring.py",)),
    # points whose distances overflow are rejected
    Mutant("diagonal-check-off", "scoring.py",
           "if diagonal.size and not np.isfinite(diagonal[-1]):",
           "if False:",
           ("test_scoring.py",)),
    # LRW's lists are summed one neighbour column at a time in ascending
    # index order, at every d, so that k = N gives global_weights' bits:
    # not in reverse, not in one reduction over k (pairwise at d = 1);
    # global_weights sums in the same order, not pairwise at d = 1
    Mutant("local-weights-descending-order", "scoring.py",
           "columns = index.query_all(k).T",
           "columns = index.query_all(k).T[::-1]",
           ("test_scoring.py",)),
    Mutant("local-weights-one-reduction", "scoring.py",
           "    total = errors[columns[0]]\n",
           "    total = errors[columns.T].sum(axis=1)\n"
           "    columns = columns[:1]\n",
           ("test_scoring.py",)),
    Mutant("global-weights-pairwise", "scoring.py",
           "np.cumsum(errors, axis=0)[-1]",
           "errors.sum(axis=0)",
           ("test_scoring.py",)),
    # LRW holds a few N x d arrays beside the lists: no copy of the lists,
    # no gather buffered before it is copied into the column
    Mutant("local-weights-lists-copied", "scoring.py",
           "columns = index.query_all(k).T",
           "columns = index.query_all(k).T.copy()",
           ("test_scoring.py",)),
    Mutant("local-weights-take-buffered", "scoring.py",
           'out=term, mode="clip")',
           'out=term, mode="raise")',
           ("test_scoring.py",)),
    # re-aimed: a tie at the k-th distance goes to the lowest index (the
    # tied-row rule this guarded went in an earlier rewrite)
    Mutant("ties-to-highest-index", "scoring.py",
           "keep = below | (ties & (rank <= room[:, None]))",
           "keep = below | (ties & (rank > rank[:, -1:] - room[:, None]))",
           ("test_scoring.py",)),
    # re-aimed: LOF reads the walk's tied rows (the tied-row rule this
    # guarded went in an earlier rewrite)
    Mutant("tied-rows-never-flagged", "scoring.py",
           "tied[rest] = rank[:, -1] > room",
           "tied[rest] = False",
           ("test_lof.py",)),
    # LOF's tie-inclusive neighbourhoods and its ratio
    Mutant("lof-extra-members-dropped", "lof.py",
           "return rows[tied[r]], dcols[r, s], dist[r, s]",
           "return rows[tied[r]][:0], dcols[r, s][:0], dist[r, s][:0]",
           ("test_lof.py",)),
    Mutant("lof-first-k-from-walk", "lof.py",
           "nbr[rows[tied]] = np.take_along_axis(dcols, first, axis=1)",
           "nbr[rows[tied]] = cols[tied]",
           ("test_lof.py",)),
    Mutant("lof-ratio-not-divided", "lof.py",
           "ratio /= lrd[:, None]",
           "pass",
           ("test_lof.py",)),
    # the two-thread walk: halves cut at the block boundary nearest N / 2,
    # joined in row order, a failure in the second raised in the caller,
    # a failure in the first raised once the second has stopped, the
    # second walked by the caller once interpreter shutdown has begun, the
    # shared set-up gone when the walk ends, and argpartition over slabs
    # of _BLOCK_ENTRIES // N rows on one half or two
    Mutant("split-cut-one-block-off", "scoring.py",
           "cut = step * ((n + step) // (2 * step))",
           "cut = step * ((n + step) // (2 * step) + 1)",
           ("test_scoring.py",)),
    Mutant("split-second-half-joined-first", "scoring.py",
           "return first + [out for half in rest for out in half]",
           "return [out for half in rest for out in half] + first",
           ("test_scoring.py",)),
    Mutant("split-worker-error-dropped", "scoring.py",
           "rest = pool.map(run, walks[1:])",
           "rest = (task.result() if not task.exception() else [] for "
           "task in [pool.submit(run, walk) for walk in walks[1:]])",
           ("test_scoring.py",)),
    Mutant("split-shutdown-not-walked", "scoring.py",
           "rest = map(run, walks[1:])",
           "raise",
           ("test_scoring.py",)),
    Mutant("split-second-half-not-waited", "scoring.py",
           "with ThreadPoolExecutor(1) as pool:",
           "for pool in [ThreadPoolExecutor(1)]:",
           ("test_scoring.py",)),
    Mutant("split-set-up-kept", "scoring.py",
           "shared = self._screen()",
           'shared = self.__dict__.setdefault("_shared", self._screen())',
           ("test_lof.py",)),
    Mutant("split-slab-quartered", "scoring.py",
           "slab = max(1, _BLOCK_ENTRIES // n)",
           "slab = max(1, _BLOCK_ENTRIES // n "
           "// (1 if (starts.start, starts.stop) == (0, n) else 4))",
           ("test_scoring.py",)),
    Mutant("slab-quartered", "scoring.py",
           "slab = max(1, _BLOCK_ENTRIES // n)",
           "slab = max(1, _BLOCK_ENTRIES // 4 // n)",
           ("test_scoring.py",)),
    # every Y cell is 0 or 1, not just one of them
    Mutant("zeros-and-ones-any-cell", "dataset.py",
           "return bool(((cells == 0) | (cells == 1)).all())",
           "return bool(((cells == 0) | (cells == 1)).any())",
           ("test_dataset.py",)),
    # every documented rejection: guard off, or the error left unmapped
    Mutant("config-array-accepted", "cli.py",
           "if not isinstance(file_values, dict):",
           "if False:",
           ("test_cli.py",)),
    Mutant("numerical-failure-unmapped", "cli.py",
           "except NumericalError as exc:",
           "except ZeroDivisionError as exc:",
           ("test_cli.py",)),
    Mutant("memory-error-unmapped", "cli.py",
           "except MemoryError as exc:",
           "except ZeroDivisionError as exc:",
           ("test_cli.py",)),
    Mutant("constant-factor-unnamed", "cli.py",
           "if isinstance(factor, ConstantFactor):",
           "if False:",
           ("test_cli.py",)),
    Mutant("header-width-unchecked", "dataset.py",
           "if names is not None and len(names) != width:",
           "if False:",
           ("test_cli.py",)),
    Mutant("dataset-not-2d-accepted", "dataset.py",
           "if X.ndim != 2 or Y.ndim != 2:",
           "if False:",
           ("test_dataset.py",)),
    Mutant("dataset-empty-accepted", "dataset.py",
           "if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:",
           "if False:",
           ("test_dataset.py",)),
    Mutant("output-names-uncounted", "dataset.py",
           "if len(names_y) != Y.shape[1]:",
           "if False:",
           ("test_dataset.py",)),
    Mutant("standardize-columns-unchecked", "dataset.py",
           "if X.ndim != 2 or X.shape[1] != self.means.shape[0]:",
           "if False:",
           ("test_dataset.py",)),
    Mutant("newton-start-not-finite", "optim.py",
           "if not np.isfinite(f).all() or not np.isfinite(g).all():",
           "if False:",
           ("test_optim.py",)),
    Mutant("training-features-1d-accepted", "optim.py",
           "if features.ndim != 2:",
           "if False:",
           ("test_optim.py",)),
    Mutant("training-no-rows-accepted", "optim.py",
           "if features.shape[0] < 1:",
           "if False:",
           ("test_optim.py",)),
    Mutant("train-logistic-label-matrix", "optim.py",
           "if np.ndim(labels) != 1 or np.ndim(lam) != 0:",
           "if False:",
           ("test_optim.py",)),
    Mutant("training-labels-any-value", "optim.py",
           "if not _zeros_and_ones(labels):",
           "if False:",
           ("test_optim.py",)),
    Mutant("score-table-without-rows", "scoring.py",
           "if not entries:",
           "if False:",
           ("test_cli.py",)),
    # a '#' line after the first row of a score table is an error
    Mutant("late-comment-skipped", "dataset.py",
           "if started and not comments_anywhere:",
           "if False:",
           ("test_scoring.py",)),
    # detect: one ATPAR per method and repeat, written for its own repeat,
    # summarized by the sample std, which is 0 for one repeat
    Mutant("detect-stale-atpar", "evaluation.py",
           "on_repeat(r, log, scored, atpars)",
           "on_repeat(r, log, scored, per_repeat[0])",
           ("test_cli.py",)),
    Mutant("detect-recomputes-atpar", "cli.py",
           '"atpar": atpars[name]}',
           '"atpar": atpar(sv, log.outlier_rows, resolved["upper"])}',
           ("test_cli.py",)),
    Mutant("report-std-ddof-0", "cli.py",
           "std = np.std(values, ddof=1) if len(values) > 1 else 0.0",
           "std = np.std(values, ddof=0) if len(values) > 1 else 0.0",
           ("test_cli.py",)),
    Mutant("report-single-repeat-std", "cli.py",
           "std = np.std(values, ddof=1) if len(values) > 1 else 0.0",
           "std = np.std(values, ddof=1) if len(values) > 0 else 0.0",
           ("test_cli.py",)),
    # truth is integer row indices: a mask, a float or a string raises
    Mutant("truth-not-integer-accepted", "evaluation.py",
           "if not is_integer(row):",
           "if False:",
           ("test_evaluation.py",)),
    # a score table's method column names its scores
    Mutant("score-table-fixed-method", "scoring.py",
           'f"{idx},{method},{score!r}"',
           'f"{idx},PROD,{score!r}"',
           ("test_cli.py",)),
    # save_csv's data rows end in CRLF, as csv.writer ended them
    Mutant("csv-row-end-lf", "dataset.py",
           "{','.join(map(str, y))}\\r\\n\"",
           "{','.join(map(str, y))}\\n\"",
           ("test_dataset.py",)),
    # an input column whose mean or std overflows is a DomainError
    Mutant("standardize-overflow-accepted", "dataset.py",
           "if overflowed.any():",
           "if False:",
           ("test_dataset.py", "test_cli.py")),
    # every file is UTF-8 whatever the locale, a leading byte-order mark
    # not data
    Mutant("csv-read-bom-kept", "dataset.py",
           'open(path, newline="", encoding="utf-8-sig")',
           'open(path, newline="", encoding="utf-8")',
           ("test_dataset.py", "test_scoring.py")),
    Mutant("json-read-bom-kept", "dataset.py",
           'open(path, encoding="utf-8-sig")',
           'open(path, encoding="utf-8")',
           ("test_dataset.py", "test_cli.py")),
    Mutant("csv-write-locale", "dataset.py",
           'open(path, "w", newline="", encoding="utf-8")',
           'open(path, "w", newline="")',
           ("test_cli.py",)),
    # RW takes exactly d weights: a row of them or one would broadcast
    Mutant("rw-weights-shape-unchecked", "scoring.py",
           "if np.shape(weights) != (rho.d,):",
           "if False:",
           ("test_scoring.py",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error'."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "mcode" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new))
        paths = [str(src)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider"] + [f"tests/{t}" for t in mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        # pytest exits 1 when a test fails, other than 0 or 1 when it
        # could not run them
        return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, outcome in zip(chosen, pool.map(run, chosen)):
            print(f"{outcome:<8} {mutant.name}", flush=True)
            bad += outcome != "killed"
    print(f"{bad} mutant(s) not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
