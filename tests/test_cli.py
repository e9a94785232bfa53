import json

import numpy as np
import pytest

from mcode import Dataset, load_csv, load_model, save_csv
from mcode.cli import main
from mcode.scoring import load_score_table

from conftest import make_coupled_dataset


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


class TestFit:
    def test_fixed_lambda_fit_and_reload(self, tmp_path, dataset_file,
                                         capsys):
        out = tmp_path / "models"
        assert run("fit", "--dataset", dataset_file, "--n-outputs", 3,
                   "--modes", "full_conditional", "independent",
                   "--lambda", "1.0", "--out-dir", out) == 0
        printed = capsys.readouterr().out
        assert "lambda=1" in printed
        full = load_model(out / "model_full_conditional")
        ind = load_model(out / "model_independent")
        assert full.mode == "full_conditional"
        assert ind.mode == "independent"

    def test_cv_does_more_training_than_fixed(self, tmp_path, dataset_file,
                                              capsys):
        def runs_reported(*argv):
            assert run(*argv) == 0
            line = [l for l in capsys.readouterr().out.splitlines()
                    if "optimizer runs:" in l][0]
            return int(line.split("optimizer runs:")[1].split()[0])

        fixed = runs_reported("fit", "--dataset", dataset_file,
                              "--n-outputs", 3, "--lambda", "1.0",
                              "--out-dir", tmp_path / "f")
        cv = runs_reported("fit", "--dataset", dataset_file,
                           "--n-outputs", 3, "--cv-grid", "0.1,10",
                           "--cv-folds", "2", "--out-dir", tmp_path / "cv")
        assert fixed == 3  # one optimization per output dimension
        assert cv == 3 * (2 * 2 + 1)

    def test_lambda_and_grid_conflict(self, tmp_path, dataset_file):
        assert run("fit", "--dataset", dataset_file, "--n-outputs", 3,
                   "--lambda", "1.0", "--cv-grid", "0.1,1",
                   "--out-dir", tmp_path) == 1


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
                   "--n-outputs", 3, "--lambda", "1.0",
                   "--out-dir", out) == 1
        assert not out.exists()
        config.write_bytes(b"\xff\xfe{}")
        assert run("detect", "--config", config, "--dataset", dataset_file,
                   "--n-outputs", 3, "--dim-fraction", "0.34",
                   "--out-dir", out) == 1

    def test_unknown_config_key(self, tmp_path, dataset_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(dataset_file),
                                      "mystery": 1}))
        assert run("detect", "--config", config, "--n-outputs", 3,
                   "--dim-fraction", "0.34", "--out-dir", tmp_path) == 1


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


class TestTopLevel:
    def test_version_and_help_exit_zero(self, capsys):
        assert run("--version") == 0
        assert "mcode" in capsys.readouterr().out
        assert run("--help") == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 1
