"""Mutation check: each mutant is one edit to the package that the named
test modules must catch.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only the named mutants

For each mutant the script copies src/ to a temporary directory, replaces
the mutant's old text, which must occur exactly once in its file, by the
new text, and runs `pytest -x -q` on the mutant's test modules with the
copy first on PYTHONPATH. It prints every mutant's outcome and exits 1
if any mutant survived (its tests pass), is stale (its old text no
longer occurs once) or could not be tested (pytest itself failed).
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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    # one stored number rule: a bool or numeric string read as a number
    Mutant("stored-number-string", "model.py",
           "if not is_number(value) or not ok(float(value)):",
           "if not ok(float(value)):",
           ("test_model.py",)),
    Mutant("stored-numbers-string", "model.py",
           "is_number(v) and ok(float(v)) for v in values",
           "ok(float(v)) for v in values",
           ("test_model.py",)),
    # a stored lambda passes the configured-lambda rule
    Mutant("stored-lambda-rule", "model.py",
           'lam=_number(doc, "lambda", is_penalty)',
           'lam=_number(doc, "lambda")',
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
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant)
        print(f"{outcome:<8} {mutant.name}", flush=True)
        bad += outcome != "killed"
    print(f"{bad} mutant(s) not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
