"""The README's code runs as printed."""

import re
from pathlib import Path

from mcode import save_csv

from conftest import make_coupled_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the block reads data.csv from the working directory, 14 outputs
    [block] = re.findall(r"^## Library quick start\n\n```python\n(.*?)^```",
                         README.read_text(), flags=re.M | re.S)
    save_csv(make_coupled_dataset(n=300, m=4, d=14, seed=3),
             tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
