import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcode import (ConfigError, CvLambda, Dataset, DomainError, FixedLambda,
                   NumericalError, PerturbationLog, ScoreVector, atpar,
                   inject_outliers, load_csv, load_log, save_csv, save_log)
import mcode.cli
from mcode.cli import COMMANDS, OPTIONS, build_parser, main
from mcode.evaluation import METHODS, score_methods
from mcode.model import MODES, check_policy
from mcode.scoring import load_score_table

from conftest import make_coupled_dataset, run_python


@pytest.fixture
def dataset_file(tmp_path):
    ds = make_coupled_dataset(n=60, m=3, d=3, seed=100)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_outputs_are_byte_identical_across_runs(self, tmp_path,
                                                    dataset_file):
        for name in ("a", "b"):
            code = run("simulate", "--dataset", dataset_file,
                       "--n-outputs", 3, "--ratio", "0.1",
                       "--dim-fraction", "0.34", "--seed", 9,
                       "--out-dir", tmp_path / name)
            assert code == 0
        for artifact in ("perturbed.csv", "perturbation_log.json"):
            assert (tmp_path / "a" / artifact).read_bytes() == \
                (tmp_path / "b" / artifact).read_bytes()

    def test_artifacts_consistent(self, tmp_path, dataset_file):
        out = tmp_path / "out"
        assert run("simulate", "--dataset", dataset_file, "--n-outputs", 3,
                   "--ratio", "0.1", "--dim-fraction", "0.34",
                   "--seed", 3, "--out-dir", out) == 0
        original = load_csv(dataset_file, 3)
        perturbed = load_csv(out / "perturbed.csv", 3)
        log = json.loads((out / "perturbation_log.json").read_text())
        assert np.array_equal(perturbed.X, original.X)
        assert len(log["outlier_rows"]) == 6  # 10% of 60
        assert len(log["flipped_cells"]) == 6  # 1 dim each (34% of 3)
        changed = np.flatnonzero((perturbed.Y != original.Y).any(axis=1))
        assert changed.tolist() == log["outlier_rows"]
        header = (out / "perturbed.csv").read_text().splitlines()[0]
        assert header.startswith("# mcode ")

    def test_usage_errors_exit_1(self, tmp_path, dataset_file):
        assert run("simulate", "--n-outputs", 3, "--dim-fraction", "0.3",
                   "--out-dir", tmp_path) == 1
        assert run("simulate", "--dataset", dataset_file, "--n-outputs", 3,
                   "--dim-fraction", "1.5", "--out-dir", tmp_path) == 1
        assert run("simulate", "--dataset", dataset_file, "--n-outputs", 3,
                   "--dim-fraction", "0.3", "--ratio", "0",
                   "--out-dir", tmp_path) == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert run("simulate", "--dataset", tmp_path / "nope.csv",
                   "--n-outputs", 3, "--dim-fraction", "0.3",
                   "--out-dir", tmp_path) == 2

    def test_corrupt_data_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,oops\n")
        assert run("simulate", "--dataset", bad, "--n-outputs", 1,
                   "--dim-fraction", "0.9", "--out-dir", tmp_path) == 2
        bady = tmp_path / "bady.csv"
        bady.write_text("1,2,3\n")  # output cell outside {0,1}
        assert run("simulate", "--dataset", bady, "--n-outputs", 1,
                   "--dim-fraction", "0.9", "--out-dir", tmp_path) == 2

    def test_header_of_another_width_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2,0\n3,4,1\n")
        code, err = run_quiet("simulate", "--dataset", bad, "--n-outputs", 1,
                              "--dim-fraction", "0.9", "--out-dir", tmp_path)
        assert code == 2
        assert err == (f"mcode: data error: {bad}: header has 2 fields but "
                       f"data rows have 3\n")


class TestFit:
    def test_fixed_lambda_fit_reports_each_factor(self, tmp_path,
                                                  dataset_file, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("fit", "--dataset", dataset_file, "--n-outputs", 3,
                   "--modes", "full_conditional", "independent",
                   "--lambda", "1.0") == 0
        printed = capsys.readouterr().out.splitlines()
        assert [printed[0], printed[4]] == ["mode=full_conditional",
                                            "mode=independent"]
        for line in printed[1:4] + printed[5:]:
            assert line.startswith("  dim ") and " lambda=1 converged=" \
                in line and " grad_norm=" in line
        # the report is the whole output: no model is written
        assert [p.name for p in tmp_path.iterdir()] == [dataset_file.name]

    def test_takes_no_out_dir(self, tmp_path, dataset_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "models")}))
        for flags, message in (
                (["--out-dir", tmp_path / "models"],
                 "unrecognized arguments: --out-dir"),
                (["--config", config], "unknown config keys ['out_dir']")):
            code, err = run_quiet("fit", "--dataset", dataset_file,
                                  "--n-outputs", 3, "--lambda", "1",
                                  *flags)
            assert code == 1 and err.startswith("mcode: error: ")
            assert message in err
        assert not (tmp_path / "models").exists()

    def test_constant_output_column_is_named(self, tmp_path, capsys):
        ds = make_coupled_dataset(n=60, m=3, d=3, seed=100)
        Y = ds.Y.copy()
        Y[:, 1] = 1
        path = tmp_path / "data.csv"
        save_csv(Dataset(ds.X, Y), path)
        assert run("fit", "--dataset", path, "--n-outputs", 3,
                   "--modes", "independent", "--lambda", "1.0") == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "mode=independent"
        # Laplace-smoothed: (60 + 1) / (60 + 2)
        assert printed[2] == "  dim 1: constant prob_one=0.983871"
        assert printed[1].startswith("  dim 0: lambda=1 ")
        assert printed[3].startswith("  dim 2: lambda=1 ")

    def test_numerical_failure_exits_3(self, tmp_path, dataset_file,
                                       monkeypatch):
        def failing(*args):
            raise NumericalError("objective not finite at the starting "
                                 "point")

        monkeypatch.setattr(mcode.cli, "fit_mcode", failing)
        code, err = run_quiet("fit", "--dataset", dataset_file,
                              "--n-outputs", 3, "--lambda", "1.0")
        assert code == 3
        assert err == ("mcode: numerical failure: objective not finite at "
                       "the starting point\n")

    def test_lambda_and_grid_conflict(self, tmp_path, dataset_file):
        assert run("fit", "--dataset", dataset_file, "--n-outputs", 3,
                   "--lambda", "1.0", "--cv-grid", "0.1,1") == 1


class TestDetect:
    @pytest.fixture
    def detect_out(self, tmp_path, dataset_file):
        out = tmp_path / "run"
        code = run("detect", "--dataset", dataset_file, "--n-outputs", 3,
                   "--methods", "lof", "iprod", "mrw",
                   "--ratio", "0.1", "--dim-fraction", "0.34",
                   "--k-lof", 10, "--k-lrw", 10, "--lambda", "1.0",
                   "--repeats", 2, "--seed", 5, "--upper", "0.1",
                   "--out-dir", out)
        assert code == 0
        return out

    def test_artifact_layout(self, detect_out):
        assert (detect_out / "config.json").is_file()
        assert (detect_out / "report.txt").is_file()
        records = [json.loads(line) for line in
                   (detect_out / "report.jsonl").read_text().splitlines()]
        assert len(records) == 3 * 2
        assert {r["method"] for r in records} == {"lof", "iprod", "mrw"}
        assert {r["repeat"] for r in records} == {0, 1}
        for r in records:
            assert set(r) == {"dataset", "method", "dim_fraction", "repeat",
                              "atpar"}
            assert 0.0 <= r["atpar"] <= 1.0
        for method in ("lof", "iprod", "mrw"):
            for rep in (0, 1):
                assert (detect_out / "scores" /
                        f"{method}_r{rep:02d}.csv").is_file()
                assert (detect_out / "curves" /
                        f"{method}_r{rep:02d}.csv").is_file()
        assert (detect_out / "logs" / "perturbation_r00.json").is_file()

    def test_score_tables_ranked_and_labeled(self, detect_out):
        path = detect_out / "scores" / "mrw_r00.csv"
        scores, method = load_score_table(path)
        assert method == "mrw"
        assert scores.shape == (60,)
        body = [line for line in path.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        values = [float(line.split(",")[2]) for line in body]
        assert values == sorted(values, reverse=True)

    def test_headers_traceable(self, detect_out):
        lines = (detect_out / "scores" / "lof_r01.csv").read_text()
        assert "# mcode " in lines and "# seed=5" in lines
        assert "# config=" in lines
        config = json.loads((detect_out / "config.json").read_text())
        assert config["_meta"]["seed"] == 5

    def test_records_hold_each_repeats_atpar(self, detect_out):
        # every report.jsonl record is the ATPAR of the score table and
        # perturbation log written for its own repeat
        for line in (detect_out / "report.jsonl").read_text().splitlines():
            record = json.loads(line)
            tag = f"r{record['repeat']:02d}"
            scores, _ = load_score_table(
                detect_out / "scores" / f"{record['method']}_{tag}.csv")
            log = load_log(detect_out / "logs" / f"perturbation_{tag}.json")
            assert record["atpar"] == atpar(ScoreVector(scores),
                                            log.outlier_rows, 0.1)

    def test_out_of_memory_exits_3(self, tmp_path, dataset_file,
                                   monkeypatch):
        # an allocation too large for the machine is one line on stderr
        # and exit 3, not a traceback and the uncaught exception's exit 1
        def failing(*args, **kwargs):
            raise MemoryError("Unable to allocate 18.6 GiB for an array "
                              "with shape (50000, 50000) and data type "
                              "float64")

        monkeypatch.setattr(mcode.cli, "run_experiment", failing)
        code, err = run_quiet("detect", "--dataset", dataset_file,
                              "--n-outputs", 3, "--methods", "iprod",
                              "--dim-fraction", "0.34", "--lambda", "1",
                              "--out-dir", tmp_path / "run")
        assert code == 3
        assert err == ("mcode: out of memory: Unable to allocate 18.6 GiB "
                       "for an array with shape (50000, 50000) and data "
                       "type float64\n")

    def test_failed_repeat_leaves_no_report(self, tmp_path, dataset_file,
                                            monkeypatch):
        # report.txt is written after the last repeat, so a directory
        # without it holds an unfinished run
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("Unable to allocate")
            return score_methods(*args, **kwargs)

        monkeypatch.setattr(mcode.evaluation, "score_methods", second_fails)
        out = tmp_path / "run"
        code, err = run_quiet("detect", "--dataset", dataset_file,
                              "--n-outputs", 3, "--methods", "iprod",
                              "--dim-fraction", "0.34", "--lambda", "1",
                              "--repeats", 2, "--out-dir", out)
        assert (code, err) == (3, "mcode: out of memory: Unable to allocate\n")
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
            "config.json", "curves", "curves/iprod_r00.csv", "logs",
            "logs/perturbation_r00.json", "report.jsonl", "scores",
            "scores/iprod_r00.csv"]
        assert len((out / "report.jsonl").read_text().splitlines()) == 1

    @pytest.mark.parametrize("rows, value", [(1, 1.7976931348623157e308),
                                             (30, 1e308)])
    def test_overflowing_input_column_exits_2(self, tmp_path, rows, value):
        # one line naming the column, and no NumPy warning before it
        ds = make_coupled_dataset(n=60, m=3, d=3, seed=100)
        X = ds.X.copy()
        X[:rows, 1] = value
        path = tmp_path / "data.csv"
        save_csv(Dataset(X, ds.Y), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run_quiet("detect", "--dataset", path,
                                  "--n-outputs", 3, "--methods", "iprod",
                                  "--dim-fraction", "0.34", "--lambda", "1",
                                  "--repeats", 1, "--out-dir",
                                  tmp_path / "run")
        assert code == 2
        assert err == ("mcode: data error: input column 'x2' spreads too "
                       "far: its mean or standard deviation overflows "
                       "float64\n")

    def test_one_atpar_per_method_and_repeat(self, tmp_path, dataset_file,
                                             monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return atpar(*args, **kwargs)

        monkeypatch.setattr(mcode.evaluation, "atpar", spy)
        monkeypatch.setattr(mcode.cli, "atpar", spy)
        assert run("detect", "--dataset", dataset_file, "--n-outputs", 3,
                   "--methods", "lof", "iprod", "mrw", "--ratio", "0.1",
                   "--dim-fraction", "0.34", "--k-lof", 10, "--k-lrw", 10,
                   "--lambda", "1.0", "--repeats", 2, "--upper", "0.1",
                   "--out-dir", tmp_path / "run") == 0
        assert len(calls) == 3 * 2

    @pytest.mark.parametrize("repeats", [1, 4])
    def test_report_summarizes_the_records(self, tmp_path, dataset_file,
                                           repeats):
        out = tmp_path / "run"
        assert run("detect", "--dataset", dataset_file, "--n-outputs", 3,
                   "--methods", "lof", "iprod", "mrw", "--ratio", "0.1",
                   "--dim-fraction", "0.34", "--k-lof", 10, "--k-lrw", 10,
                   "--lambda", "1.0", "--repeats", repeats,
                   "--upper", "0.1", "--out-dir", out) == 0
        values = {}
        for line in (out / "report.jsonl").read_text().splitlines():
            record = json.loads(line)
            values.setdefault(record["method"], []).append(record["atpar"])
        lines = [line for line in (out / "report.txt").read_text()
                 .splitlines() if not line.startswith("#")]
        assert lines[0].split() == ["method", "dim_fraction", "mean_atpar",
                                    "std", "repeats"]
        rows = [line.split() for line in lines[1:]]
        assert [row[0] for row in rows] == ["lof", "iprod", "mrw"]
        stds = []
        for name, dim_fraction, mean, std, count in rows:
            atpars = values[name]
            assert (dim_fraction, count) == ("0.34", str(repeats))
            assert len(atpars) == repeats
            assert mean == f"{np.mean(atpars):.4f}"
            # the sample std, ddof=1; 0 for a single repeat
            expected = np.std(atpars, ddof=1) if repeats > 1 else 0.0
            assert std == f"{expected:.4f}"
            stds.append(float(std))
        # the repeats differ, so ddof=0 would print other numbers
        assert (max(stds) > 0) == (repeats > 1)

    def test_usage_errors(self, tmp_path, dataset_file):
        assert run("detect", "--dataset", dataset_file,
                   "--dim-fraction", "0.34", "--out-dir", tmp_path) == 1
        assert run("detect", "--dataset", dataset_file, "--n-outputs", 3,
                   "--dim-fraction", "0.34", "--k-lof", 0,
                   "--out-dir", tmp_path) == 1
        # unknown method names are rejected by the parser itself
        assert run("detect", "--dataset", dataset_file, "--n-outputs", 3,
                   "--dim-fraction", "0.34", "--methods", "zscore",
                   "--out-dir", tmp_path) == 1

    def test_config_file_merge(self, tmp_path, dataset_file, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dataset": str(dataset_file), "n_outputs": 3,
            "methods": ["iprod"], "dim_fraction": 0.34, "ratio": 0.1,
            "k_lof": 10, "k_lrw": 10, "lam": 1.0, "repeats": 4,
            "upper": 0.1}))
        out = tmp_path / "merged"
        assert run("detect", "--config", config, "--repeats", 2,
                   "--out-dir", out) == 0
        echoed = json.loads(capsys.readouterr().out.splitlines()[0])
        assert echoed["repeats"] == 2  # flag beats config file
        assert echoed["methods"] == ["iprod"]
        records = (out / "report.jsonl").read_text().splitlines()
        assert len(records) == 2

    def test_config_byte_order_mark_is_not_data(self, tmp_path, dataset_file,
                                                capsys):
        config = tmp_path / "config.json"
        config.write_bytes("\ufeff".encode() + json.dumps({
            "dataset": str(dataset_file), "n_outputs": 3,
            "methods": ["iprod"], "dim_fraction": 0.34, "ratio": 0.1,
            "lam": 1.0, "repeats": 1}).encode())
        assert run("detect", "--config", config, "--out-dir",
                   tmp_path / "out") == 0
        echoed = json.loads(capsys.readouterr().out.splitlines()[0])
        assert echoed["methods"] == ["iprod"] and echoed["lam"] == 1.0

    def test_config_list_keys_reject_strings(self, tmp_path, dataset_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"methods": "lof"}))
        out = tmp_path / "run"
        assert run("detect", "--config", config, "--dataset", dataset_file,
                   "--n-outputs", 3, "--dim-fraction", "0.34",
                   "--out-dir", out) == 1
        assert not out.exists()
        config.write_text(json.dumps({"modes": "independent"}))
        assert run("fit", "--config", config, "--dataset", dataset_file,
                   "--n-outputs", 3, "--lambda", "1.0") == 1
        config.write_bytes(b"\xff\xfe{}")
        assert run("detect", "--config", config, "--dataset", dataset_file,
                   "--n-outputs", 3, "--dim-fraction", "0.34",
                   "--out-dir", out) == 1

    def test_unreadable_config_file_exits_1_naming_it(self, tmp_path,
                                                     dataset_file):
        # the one JSON reader's data error, re-raised as a usage error
        config = tmp_path / "config.json"
        for content in (None, b"{", b"\xff\xfe{}"):
            if content is not None:
                config.write_bytes(content)
            code, err = run_quiet("fit", "--config", config, "--dataset",
                                  dataset_file, "--n-outputs", 3)
            assert code == 1
            assert err.startswith(f"mcode: error: {config}: ")

    @pytest.mark.parametrize("document", [[], ["dataset"], 1, None])
    def test_config_that_is_not_an_object_exits_1(self, tmp_path,
                                                  dataset_file, document):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        code, err = run_quiet("fit", "--config", config, "--dataset",
                              dataset_file, "--n-outputs", 3)
        assert code == 1
        assert err == (f"mcode: error: {config}: config must be a JSON "
                       f"object\n")

    def test_unknown_config_key(self, tmp_path, dataset_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(dataset_file),
                                      "mystery": 1}))
        assert run("detect", "--config", config, "--n-outputs", 3,
                   "--dim-fraction", "0.34", "--out-dir", tmp_path) == 1

    @pytest.mark.parametrize("flags,config", [
        (["--lambda", "1"], {"lam": 1}),
        (["--cv-grid", "0.1,1,10"], {"cv_grid": [10, 0.1, 1]}),
    ], ids=["lam", "cv_grid"])
    def test_flag_and_config_give_one_run(self, tmp_path, dataset_file,
                                          flags, config):
        # a value resolves to one form whichever source gave it, so both
        # runs write the same bytes: one config hash, one config.json
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        written = []
        for source in (flags, ["--config", path]):
            shutil.rmtree(out, ignore_errors=True)
            assert run_quiet(
                "detect", "--dataset", dataset_file, "--n-outputs", 3,
                "--methods", "iprod", "--ratio", "0.1",
                "--dim-fraction", "0.34", "--repeats", 1,
                "--out-dir", out, *source)[0] == 0
            written.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert written[0] == written[1]
        assert b"# config=" in written[0][Path("report.txt")]
        resolved = json.loads(written[0][Path("config.json")])
        assert resolved["cv_grid"] in (None, [0.1, 1.0, 10.0])


class TestEval:
    def test_reproduces_detect_atpar(self, tmp_path, dataset_file, capsys):
        out = tmp_path / "run"
        assert run("detect", "--dataset", dataset_file, "--n-outputs", 3,
                   "--methods", "mrw", "--ratio", "0.1",
                   "--dim-fraction", "0.34", "--k-lrw", 10,
                   "--lambda", "1.0", "--repeats", 1, "--seed", 2,
                   "--upper", "0.1", "--out-dir", out) == 0
        record = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        capsys.readouterr()

        curve_out = tmp_path / "curve.csv"
        assert run("eval", "--scores", out / "scores" / "mrw_r00.csv",
                   "--log", out / "logs" / "perturbation_r00.json",
                   "--upper", "0.1", "--curve-out", curve_out) == 0
        printed = capsys.readouterr().out
        value = float(printed.split("atpar=")[1].split()[0])
        assert value == pytest.approx(record["atpar"], abs=1e-9)
        assert curve_out.is_file()
        assert curve_out.read_text().splitlines()[3] == "alert_rate,tpar"

    def test_corrupt_inputs_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("instance_index,method,score\n0,RW,1.0\n")
        log = tmp_path / "log.json"
        log.write_text("{broken")
        assert run("eval", "--scores", scores, "--log", log) == 2
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"\xff\xfe1,2,0\n")
        assert run("eval", "--scores", undecodable, "--log", log) == 2
        assert run("eval", "--scores", scores, "--log", undecodable) == 2
        assert run("detect", "--dataset", undecodable, "--n-outputs", 1,
                   "--dim-fraction", "0.5", "--out-dir", tmp_path) == 2
        scores.write_text("instance_index,method,score\n0,RW,1.0\n"
                          "1,RW,0.5\n")
        good = {"seed": 0, "ratio": 0.5, "dim_fraction": 1.0,
                "outlier_rows": [0], "flipped_cells": [[0, 0]]}
        # json reads 1e400 as inf; 1.7 must not be truncated to row 1
        for key, value in (("seed", "1e400"), ("outlier_rows", ["1e400"]),
                           ("flipped_cells", [["1e400", 0]]),
                           ("outlier_rows", [1.7]), ("seed", -1),
                           ("ratio", 2.0), ("dim_fraction", math.nan)):
            log.write_text(json.dumps({**good, key: value})
                           .replace('"1e400"', "1e400"))
            code, err = run_quiet("eval", "--scores", scores, "--log", log)
            assert code == 2, key
            assert f"{log}: malformed perturbation log" in err, key
        log.write_text(json.dumps(good))
        scores.write_text("instance_index,method,score\n0,RW,nan\n"
                          "1,RW,0.5\n")
        assert run("eval", "--scores", scores, "--log", log) == 2

    @pytest.mark.parametrize("table", ["", "instance_index,method,score\n",
                                       "# mcode 0.1.0\n"])
    def test_score_table_without_rows_exits_2(self, tmp_path, table):
        scores = tmp_path / "scores.csv"
        scores.write_text(table)
        log = tmp_path / "log.json"
        save_log(PerturbationLog(seed=0, ratio=0.5, dim_fraction=1.0,
                                 outlier_rows=frozenset({0}),
                                 flipped_cells=((0, 0),)), log)
        code, err = run_quiet("eval", "--scores", scores, "--log", log)
        assert code == 2
        assert err == f"mcode: data error: {scores}: no score rows\n"

    def test_oversized_csv_field_exits_2(self, tmp_path, dataset_file):
        lines = dataset_file.read_text().splitlines(keepends=True)
        lines[2] = "1" * (csv.field_size_limit() + 1) + lines[2]
        dataset_file.write_text("".join(lines))
        code, err = run_quiet("detect", "--dataset", dataset_file,
                              "--n-outputs", 1, "--dim-fraction", "0.5",
                              "--out-dir", tmp_path / "run")
        assert code == 2
        assert f"{dataset_file}: line 3: field larger than field limit" in err

    def test_curve_hash_ignores_curve_out(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("instance_index,method,score\n0,RW,1.0\n"
                          "1,RW,0.5\n")
        log = tmp_path / "log.json"
        save_log(PerturbationLog(seed=0, ratio=0.5, dim_fraction=1.0,
                                 outlier_rows=frozenset({0}),
                                 flipped_cells=((0, 0),)), log)
        for name in ("a.csv", "b.csv"):
            assert run_quiet("eval", "--scores", scores, "--log", log,
                             "--curve-out", tmp_path / name)[0] == 0
        a, b = ((tmp_path / name).read_text().splitlines()[2]
                for name in ("a.csv", "b.csv"))
        assert a == b and a.startswith("# config=")

    @pytest.mark.parametrize("flags", [["--seed", "1"], ["--out-dir", "x"]])
    def test_takes_no_seed_or_out_dir(self, tmp_path, flags):
        # eval writes only to --curve-out and takes its seed from the log
        assert run("eval", "--scores", tmp_path / "s.csv",
                   "--log", tmp_path / "log.json", *flags) == 1


def run_quiet(*argv):
    """(exit code, stderr) of one run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


class TestConfigValues:
    """Every malformed config value exits 1, names its key, and leaves
    --out-dir uncreated; so does every setting the dataset cannot support,
    though the dataset is read first."""

    @pytest.mark.parametrize("command,config,flags,key", [
        ("detect", {"cv_grid": 1.0}, [], "cv_grid"),
        ("detect", {"lam": "abc"}, [], "lam"),
        ("detect", {"seed": "x"}, [], "seed"),
        ("simulate", {"seed": "x"}, [], "seed"),
        ("detect", {"fit_on_original": "no"}, [], "fit_on_original"),
        ("detect", {"k_lof": True}, [], "k_lof"),
        ("detect", {"ratio": True}, [], "ratio"),
        ("detect", {"methods": ["bogus"]}, [], "methods"),
        ("detect", {"methods": []}, [], "methods"),
        ("detect", {}, ["--cv-folds", 0], "cv_folds"),
        ("detect", {}, ["--lambda", -1], "lam"),
        ("detect", {}, ["--lambda", "nan"], "lam"),
    ])
    def test_rejected_before_any_artifact(self, tmp_path, dataset_file,
                                          command, config, flags, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code, err = run_quiet(
            command, "--config", path, "--dataset", dataset_file,
            "--n-outputs", 3, "--dim-fraction", "0.34", "--out-dir", out,
            *flags)
        assert code == 1
        assert err.startswith("mcode: error: ") and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,d,flags", [
        ("detect", 3, ["--methods", "mlrw", "--dim-fraction", "0.5",
                       "--lambda", "1"]),
        ("detect", 3, ["--methods", "lof", "--k-lof", 60,
                       "--dim-fraction", "0.5", "--lambda", "1"]),
        ("detect", 1, ["--methods", "iprod", "mrw", "--dim-fraction", "1",
                       "--lambda", "1"]),
        ("fit", 1, ["--modes", "independent", "full_conditional",
                    "--lambda", "1"]),
        ("detect", 3, ["--methods", "iprod", "--dim-fraction", "1",
                       "--cv-folds", 61]),
    ], ids=["default_k_lrw_above_n", "k_lof_at_n", "model_method_d1",
            "full_conditional_d1", "cv_folds_above_n"])
    def test_data_checks_before_any_artifact(self, tmp_path, command, d,
                                             flags):
        data = tmp_path / "data.csv"
        save_csv(make_coupled_dataset(n=60, m=3, d=d, seed=100), data)
        out = tmp_path / "out"
        if "out_dir" in COMMANDS[command][2]:
            flags = ["--out-dir", out, *flags]
        code, err = run_quiet(command, "--dataset", data, "--n-outputs", d,
                              *flags)
        assert code == 1 and err.startswith("mcode: error: ")
        assert "unrecognized" not in err
        assert not out.exists()

    @pytest.mark.parametrize("upper", ["2", "0", "nan"])
    def test_eval_upper_out_of_range(self, tmp_path, upper):
        scores = tmp_path / "scores.csv"
        scores.write_text("instance_index,method,score\n0,mrw,1.0\n"
                          "1,mrw,0.5\n")
        log = tmp_path / "log.json"
        save_log(PerturbationLog(seed=0, ratio=0.5, dim_fraction=1.0,
                                 outlier_rows=frozenset({0}),
                                 flipped_cells=((0, 0),)), log)
        curve = tmp_path / "curve.csv"
        code, err = run_quiet("eval", "--scores", scores, "--log", log,
                              "--upper", upper, "--curve-out", curve)
        assert code == 1 and "'upper'" in err
        assert not curve.exists()


# Values of the wrong JSON type, by the JSON types a key takes. Text is
# drawn from characters that spell numbers, lists and the words nan/inf.
_NULL, _BOOL = st.none(), st.booleans()
_TEXT = st.text(alphabet="0123456789.,-+e nafil", max_size=6)
_INT, _FLOAT = st.integers(), st.floats()
_LIST = st.lists(_INT | _TEXT, max_size=3)
_DICT = st.dictionaries(_TEXT, _INT, max_size=2)
_NOT_INT = _NULL | _BOOL | _FLOAT | _TEXT | _LIST | _DICT
_NOT_NUMBER = _NULL | _BOOL | _TEXT | _LIST | _DICT
_NOT_STR = _NULL | _BOOL | _INT | _FLOAT | _LIST | _DICT


def _penalty(item):
    """Whether one entry of a cv_grid string, or a number, is a valid
    penalty."""
    try:
        value = float(item)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0


def _bad_list(choices):
    bad_item = _INT | _NULL | _TEXT.filter(lambda s: s not in choices)
    return (_NULL | _BOOL | _INT | _FLOAT | _TEXT | _DICT | st.just([])
            | st.builds(lambda good, bad: good + [bad],
                        st.lists(st.sampled_from(choices), max_size=2),
                        bad_item))


_BAD_RATE = (_NOT_NUMBER | st.integers(max_value=0) | st.integers(min_value=2)
             | st.floats().filter(lambda v: not 0 < v <= 1))

# Only invalid values, for every config key.
INVALID = {
    "dataset": _NOT_STR,
    "scores": _NOT_STR,
    "log_path": _NOT_STR,
    "out_dir": _NOT_STR,
    "curve_out": _BOOL | _INT | _FLOAT | _LIST | _DICT,
    "n_outputs": _NOT_INT | st.integers(max_value=0),
    "k_lof": _NOT_INT | st.integers(max_value=0),
    "k_lrw": _NOT_INT | st.integers(max_value=0),
    "repeats": _NOT_INT | st.integers(max_value=0),
    "cv_folds": _NOT_INT | st.integers(max_value=1),
    "seed": _NOT_INT | st.integers(max_value=-1),
    "ratio": _BAD_RATE,
    "dim_fraction": _BAD_RATE,
    "upper": _BAD_RATE,
    "lam": (_BOOL | _TEXT | _LIST | _DICT | st.integers(max_value=-1)
            | st.integers(min_value=2 ** 1024)
            | st.floats().filter(lambda v: not (math.isfinite(v)
                                                and v >= 0))),
    "cv_grid": (_BOOL | _INT | _FLOAT | _DICT | st.just([])
                | _TEXT.filter(lambda s: not all(map(_penalty,
                                                     s.split(","))))
                | st.builds(lambda good, bad: good + [bad],
                            st.lists(st.floats(0, 100), max_size=2),
                            # a list holds numbers, never numeric strings
                            _NULL | _BOOL | _DICT | _TEXT
                            | st.floats().filter(lambda v: not _penalty(v)))),
    "fit_on_original": _NULL | _INT | _FLOAT | _TEXT | _LIST | _DICT,
    "methods": _bad_list(METHODS),
    "modes": _bad_list(MODES),
}

# Flags that make every other option of a subcommand valid; the files
# they name are never opened because validation fails first.
_REQUIRED = {"dataset": ["--dataset", "absent.csv"],
             "n_outputs": ["--n-outputs", "3"],
             "dim_fraction": ["--dim-fraction", "0.5"],
             "scores": ["--scores", "absent.csv"],
             "log_path": ["--log", "absent.json"]}


@pytest.mark.parametrize("command,key", [
    (command, key) for command, (_, _, keys) in COMMANDS.items()
    for key in keys])
@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_invalid_config_value_exits_1(command, key, data):
    value = data.draw(INVALID[key], label=key)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps({key: value}))
        argv = [command, "--config", config]
        for other in COMMANDS[command][2]:
            if other != key:
                argv += _REQUIRED.get(other, [])
        if key != "out_dir" and "out_dir" in COMMANDS[command][2]:
            argv += ["--out-dir", tmp / "out"]
        code, err = run_quiet(*argv)
        assert code == 1, err
        assert OPTIONS[key].flag in err
        assert sorted(p.name for p in tmp.iterdir()) == ["config.json"]


# Each setting whose rule the library applies: the library's gate, which
# rejects a value with a ConfigError or DomainError.
_DS = Dataset(np.zeros((4, 1)), np.zeros((4, 2)))
_GATES = {
    "lam": lambda v: check_policy(FixedLambda(v)),
    "cv_grid": lambda v: check_policy(
        CvLambda(grid=mcode.cli._parse_grid(v))),
    "ratio": lambda v: inject_outliers(_DS, v, 0.5, 0),
    "dim_fraction": lambda v: inject_outliers(_DS, 0.5, v, 0),
    "upper": lambda v: atpar(ScoreVector(np.arange(4.0)), {0}, v),
    "cv_folds": lambda v: check_policy(CvLambda(folds=v)),
    "seed": lambda v: check_policy(CvLambda(seed=v)),
}
# JSON values of every type, and values near the rules' edges; null means
# unset for lam and cv_grid, so it is left out
_JSON = st.recursive(_BOOL | _INT | _FLOAT | _TEXT,
                     lambda inner: st.lists(inner | _NULL, max_size=3)
                     | st.dictionaries(_TEXT, inner, max_size=2),
                     max_leaves=4)
_NUMBERS = st.lists(st.floats(-1, 100) | st.integers(-1, 100) | _TEXT,
                    min_size=1, max_size=3)
_EDGES = (st.floats(0, 1) | st.floats(-0.5, 1.5) | st.integers(-1, 2)
          | st.just(2 ** 1024)
          | _NUMBERS | _NUMBERS.map(lambda v: ",".join(map(str, v))))


def _passes(check, value):
    try:
        check(value)
    except (ConfigError, DomainError, ValueError):  # ValueError: float("x")
        return False
    return True


@pytest.mark.parametrize("key", sorted(_GATES))
@settings(max_examples=80, deadline=None, database=None)
@given(value=_JSON | _EDGES)
def test_cli_check_matches_library_gate(key, value):
    # the CLI and the library apply one rule, so they cannot drift apart
    assert _passes(lambda v: mcode.cli._check(key, v), value) == \
        _passes(_GATES[key], value)


@pytest.mark.parametrize("key,value,resolved", [
    ("lam", 1, "1.0"),
    ("ratio", 1, "1.0"),
    ("cv_grid", "10,0.1,1", "(0.1, 1.0, 10.0)"),
    ("cv_grid", [10, 0.1, 1], "(0.1, 1.0, 10.0)"),
    ("seed", 3, "3"),
    ("methods", ["mrw", "lof"], "['mrw', 'lof']"),
    ("cv_grid", "1,1,10", "(1.0, 10.0)"),
    ("cv_grid", "0,-0,1", "(0.0, 1.0)"),
    ("cv_grid", [-0.0, 1], "(0.0, 1.0)"),
])
def test_check_resolves_by_kind(key, value, resolved):
    # a number as a float, a grid as its distinct ascending floats (0 and
    # -0 one penalty), the rest as given; compared by repr, since 1 == 1.0
    assert repr(mcode.cli._check(key, value)) == resolved


# The locale's encoding is ASCII here, and an open() that falls back on
# it is an error.
ASCII_LOCALE = dict(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
ENCODING_WARNINGS = ("-X", "warn_default_encoding",
                     "-W", "error::EncodingWarning")


def test_files_are_utf8_whatever_the_locale(tmp_path):
    ds = make_coupled_dataset(n=60, m=3, d=3, seed=100)
    data = tmp_path / "data.csv"
    save_csv(Dataset(ds.X, ds.Y, ("x1", "temp\u00e9", "x3")), data)
    out = tmp_path / "out"
    commands = [
        ["simulate", "--dataset", data, "--n-outputs", 3,
         "--dim-fraction", 0.34, "--out-dir", out / "sim"],
        ["detect", "--dataset", data, "--n-outputs", 3, "--dim-fraction",
         0.34, "--ratio", 0.1, "--k-lof", 10, "--k-lrw", 10, "--lambda", 1,
         "--repeats", 1, "--out-dir", out / "det"],
        ["eval", "--scores", out / "det" / "scores" / "mrw_r00.csv",
         "--log", out / "det" / "logs" / "perturbation_r00.json",
         "--curve-out", out / "curve.csv"]]
    argvs = [list(map(str, argv)) for argv in commands]
    child = run_python(f"from mcode.cli import main\n"
                       f"print([main(argv) for argv in {argvs!r}])",
                       *ENCODING_WARNINGS, **ASCII_LOCALE)
    assert child.stdout.splitlines()[-1] == "[0, 0, 0]", child.stderr

    def header(path):
        return next(line for line in path.read_bytes().splitlines()
                    if not line.startswith(b"#"))

    assert header(out / "sim" / "perturbed.csv") == header(data)
    assert "temp\u00e9".encode() in header(data)


class TestTopLevel:
    def test_version_and_help_exit_zero(self, capsys):
        assert run("--version") == 0
        assert "mcode" in capsys.readouterr().out
        assert run("--help") == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_parser_is_built_once(self, monkeypatch, capsys):
        # every call after the first reuses the parser, usage errors and
        # --version included
        built = []
        monkeypatch.setattr(mcode.cli, "build_parser",
                            lambda: built.append(1) or build_parser())
        mcode.cli._parser.cache_clear()
        try:
            assert [main([]), run("--version"), main(["fit"]),
                    main([])] == [1, 0, 1, 1]
        finally:
            mcode.cli._parser.cache_clear()
        assert built == [1]
        out, err = capsys.readouterr()
        assert out == f"mcode {mcode.__version__}\n"
        assert err.count("mcode: error: ") == 3
