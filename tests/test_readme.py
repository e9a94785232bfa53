"""The README's code runs as printed."""

import importlib
import re
import shlex
from pathlib import Path
from types import ModuleType

import mcode
from mcode import save_csv
from mcode.cli import main

from conftest import make_coupled_dataset, run_python

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, language):
    [block] = re.findall(rf"^## {heading}\n.*?^```{language}\n(.*?)^```",
                         README.read_text(), flags=re.M | re.S)
    return block


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the block reads data.csv from the working directory, 14 outputs
    block = _block("Library quick start", "python")
    save_csv(make_coupled_dataset(n=300, m=4, d=14, seed=3),
             tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_cli_commands_run(tmp_path, monkeypatch, capsys):
    # every command of the CLI section's block, in order, on data.csv
    commands = [shlex.split(line) for line in
                _block("CLI", "bash").replace("\\\n", " ").splitlines()
                if line.startswith("mcode ")]
    assert [argv[1] for argv in commands] == ["simulate", "fit", "detect",
                                              "eval"]
    save_csv(make_coupled_dataset(n=300, m=4, d=14, seed=3),
             tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, capsys.readouterr().err


def test_dotted_names_resolve():
    # every mcode.<name>.<name> the README names is an attribute or a
    # submodule of the one before it
    names = set(re.findall(r"\bmcode(?:\.\w+)+", README.read_text()))
    assert names
    for name in sorted(names):
        parts, value = name.split("."), mcode
        for depth in range(2, len(parts) + 1):
            try:
                value = getattr(value, parts[depth - 1])
            except AttributeError:
                value = importlib.import_module(".".join(parts[:depth]))


def test_package_imports_no_scipy():
    # the dependency paragraph: NumPy is the only runtime dependency. The
    # child imports the package these tests import.
    loaded = run_python(
        "import mcode, mcode.cli, sys; print(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy'))").stdout
    assert loaded == "[]\n"


def test_star_import_binds_no_module():
    # `from mcode import *` binds the package's names, never its
    # submodules, which would overwrite a caller's `model` or `dataset`
    names = {}
    exec("from mcode import *", names)
    assert [name for name, value in names.items()
            if isinstance(value, ModuleType)] == []
    assert "fit_mcode" in names
