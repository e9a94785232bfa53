import json
import logging
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcode.optim
from mcode import (ConfigError, ConstantFactor, CvLambda, Dataset,
                   DomainError, FULL_CONDITIONAL, FixedLambda, INDEPENDENT,
                   LogisticFactor, PROB_EPS, RhoMatrix, estimate_rho,
                   fit_mcode, inject_outliers, load_model, save_model,
                   standardize, train_logistic)
from mcode.model import MODES, factor_from_dict, factor_to_dict
from mcode.optim import GRAD_TOL
from mcode.errors import DataError

import oracles
from conftest import make_coupled_dataset
from synthdata import make_benchmark_dataset
from strategies import json_like


class TestFit:
    def test_arity_by_mode(self, coupled_dataset):
        full = fit_mcode(coupled_dataset, FULL_CONDITIONAL, FixedLambda(1.0))
        ind = fit_mcode(coupled_dataset, INDEPENDENT, FixedLambda(1.0))
        m, d = coupled_dataset.m, coupled_dataset.d
        assert all(f.arity == m + d - 1 for f in full.factors)
        assert all(f.arity == m for f in ind.factors)
        assert full.lambdas == (1.0,) * d

    def test_mode_validation(self, coupled_dataset):
        with pytest.raises(ConfigError):
            fit_mcode(coupled_dataset, "chain", FixedLambda(1.0))
        narrow = Dataset(coupled_dataset.X, coupled_dataset.Y[:, :1])
        with pytest.raises(ConfigError):
            fit_mcode(narrow, FULL_CONDITIONAL, FixedLambda(1.0))
        fit_mcode(narrow, INDEPENDENT, FixedLambda(1.0))  # fine with d=1

    def test_bad_policy(self, coupled_dataset):
        with pytest.raises(ConfigError):
            fit_mcode(coupled_dataset, INDEPENDENT, lambda_policy=0.5)
        # a penalty that is not a finite number >= 0 is rejected as a
        # ConfigError before any fit, in a FixedLambda or in a grid
        for bad in (FixedLambda(-1.0), FixedLambda(math.nan),
                    FixedLambda(math.inf), FixedLambda(10**400),
                    FixedLambda("x"), FixedLambda(True),
                    CvLambda(grid=(-1.0,)), CvLambda(grid=()),
                    CvLambda(grid=(1.0, False))):
            with pytest.raises(ConfigError):
                fit_mcode(coupled_dataset, INDEPENDENT, bad)
        # any real number counts, as it does in a grid
        for good in (FixedLambda(1), FixedLambda(np.float64(1.0))):
            model = fit_mcode(coupled_dataset, INDEPENDENT, good)
            assert model.lambdas == (1.0,) * coupled_dataset.d

    def test_constant_output_dimension(self):
        gen = np.random.default_rng(4)
        Y = gen.integers(0, 2, (30, 3))
        Y[:, 1] = 1
        ds = Dataset(gen.normal(size=(30, 2)), Y)
        model = fit_mcode(ds, FULL_CONDITIONAL, FixedLambda(1.0))
        factor = model.factors[1]
        assert isinstance(factor, ConstantFactor)
        assert factor.prob_one == pytest.approx(31 / 32)
        assert model.lambdas[1] is None
        # every dimension constant: CV still runs, so it still rejects
        # more folds than instances, as check_experiment does
        with pytest.raises(ConfigError, match="exceeds"):
            fit_mcode(Dataset(ds.X, np.ones_like(Y)), INDEPENDENT,
                      CvLambda(folds=31))

    @pytest.mark.parametrize("mode", MODES)
    def test_mode_stack_matches_lone_fits(self, mode):
        # every factor of the mode's stack, on the shared design with its
        # own output pinned, is the lone fit on its own design: inputs, then
        # the other outputs in ascending order in full_conditional mode
        ds = make_coupled_dataset(n=150, m=3, d=4, seed=21)
        Y = ds.Y.copy()
        Y[:, 2] = 1
        ds = Dataset(ds.X, Y)
        model = fit_mcode(ds, mode, FixedLambda(0.3))
        X_std = standardize(ds)[0].X
        for i, factor in enumerate(model.factors):
            own = X_std if mode == INDEPENDENT else np.hstack(
                [X_std, np.delete(ds.Y, i, axis=1)])
            lone = train_logistic(own, ds.Y[:, i], 0.3)
            if i == 2:
                assert factor == lone and isinstance(lone, ConstantFactor)
                continue
            assert factor.converged and factor.lam == lone.lam
            np.testing.assert_allclose(factor.weights, lone.weights,
                                       rtol=1e-12, atol=1e-12)
            assert factor.intercept == pytest.approx(lone.intercept,
                                                     rel=1e-12, abs=1e-12)

    def test_cv_policy_runs(self):
        ds = make_coupled_dataset(n=60, m=2, d=2, seed=9)
        model = fit_mcode(ds, FULL_CONDITIONAL,
                          CvLambda(grid=(0.1, 10.0), folds=3, seed=1))
        assert all(lam in (0.1, 10.0) for lam in model.lambdas)

    @pytest.mark.parametrize("mode, expected", [
        (FULL_CONDITIONAL, (1.0, 1.0, 1.0, 0.1, 1.0, 1.0, 100.0, 100.0)),
        (INDEPENDENT, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 100.0, 100.0))])
    def test_cv_keeps_the_detect_benchmark_lambdas(self, mode, expected):
        # the penalties perfbench/run.py's CV_LAMBDAS expects of the
        # default detect run on its N=1000 planted data, which only traced
        # benchmark runs check
        ds, _ = inject_outliers(make_benchmark_dataset(n=1000), 0.01, 0.25, 0)
        assert fit_mcode(ds, mode, CvLambda()).lambdas == expected

    @pytest.mark.parametrize("mode", MODES)
    def test_cv_warning_names_output_dimensions(self, mode, monkeypatch,
                                                caplog):
        # output 0 is constant, so it enters no stack; the fold problems
        # left above GRAD_TOL are named by their output dimensions, 1 and 2
        ds = make_coupled_dataset(n=60, m=3, d=3, seed=13)
        Y = ds.Y.copy()
        Y[:, 0] = 0
        monkeypatch.setattr(mcode.optim, "MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="mcode"):
            model = fit_mcode(Dataset(ds.X, Y), mode,
                              CvLambda(grid=(1.0,), folds=2))
        [message] = [record.getMessage() for record in caplog.records
                     if record.getMessage().startswith("cross-validation")]
        for column in (1, 2):
            assert f"column {column} at lambda 1.0 in fold " in message
        assert "column 0 " not in message
        assert model.lambdas[0] is None

    def test_deterministic(self, coupled_dataset):
        a = fit_mcode(coupled_dataset, FULL_CONDITIONAL, FixedLambda(0.5))
        b = fit_mcode(coupled_dataset, FULL_CONDITIONAL, FixedLambda(0.5))
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa.weights, fb.weights)
            assert fa.intercept == fb.intercept


class TestEstimateRho:
    def test_matches_direct_evaluation(self):
        ds = make_coupled_dataset(n=20, m=4, d=3, seed=5)
        model = fit_mcode(ds, FULL_CONDITIONAL, FixedLambda(1.0))
        rho = estimate_rho(model, ds)
        expected = oracles.oracle_rho(model, ds)
        for i in range(ds.n):
            for j in range(ds.d):
                assert abs(rho.values[i, j] - expected[i][j]) < 1e-12

    def test_matches_direct_evaluation_independent(self):
        ds = make_coupled_dataset(n=20, m=3, d=2, seed=6)
        model = fit_mcode(ds, INDEPENDENT, FixedLambda(2.0))
        rho = estimate_rho(model, ds)
        expected = oracles.oracle_rho(model, ds)
        np.testing.assert_allclose(rho.values, expected, atol=1e-12)

    def test_bounds(self, coupled_dataset):
        model = fit_mcode(coupled_dataset, FULL_CONDITIONAL, FixedLambda(0.01))
        rho = estimate_rho(model, coupled_dataset)
        assert (rho.values >= PROB_EPS).all()
        assert (rho.values <= 1.0 - PROB_EPS).all()

    def test_complement_identity_independent(self):
        ds = make_coupled_dataset(n=40, m=3, d=2, seed=7, coupling=False)
        model = fit_mcode(ds, INDEPENDENT, FixedLambda(1.0))
        rho = estimate_rho(model, ds)
        Y = ds.Y.copy()
        Y[11, 1] = 1 - Y[11, 1]
        flipped = estimate_rho(model, Dataset(ds.X, Y))
        assert rho.values[11, 1] + flipped.values[11, 1] == \
            pytest.approx(1.0, abs=1e-12)
        # other cells unaffected in independent mode
        mask = np.ones_like(rho.values, dtype=bool)
        mask[11, 1] = False
        assert np.array_equal(rho.values[mask], flipped.values[mask])

    def test_complement_identity_full_conditional(self):
        ds = make_coupled_dataset(n=40, m=3, d=3, seed=8)
        model = fit_mcode(ds, FULL_CONDITIONAL, FixedLambda(1.0))
        rho = estimate_rho(model, ds)
        Y = ds.Y.copy()
        Y[5, 0] = 1 - Y[5, 0]
        flipped = estimate_rho(model, Dataset(ds.X, Y))
        # holding the other outputs fixed, the flipped dimension's
        # estimate is complemented; sibling factors see new features
        assert rho.values[5, 0] + flipped.values[5, 0] == \
            pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self, coupled_dataset):
        model = fit_mcode(coupled_dataset, INDEPENDENT, FixedLambda(1.0))
        gen = np.random.default_rng(0)
        other = Dataset(gen.normal(size=(5, coupled_dataset.m + 1)),
                        gen.integers(0, 2, (5, coupled_dataset.d)))
        with pytest.raises(DomainError):
            estimate_rho(model, other)

    def test_coupling_pays_off_on_held_out_data(self):
        # the last output duplicates its neighbor, which inputs alone
        # cannot capture; conditioning on the other outputs must win
        ds = make_coupled_dataset(n=300, m=4, d=3, seed=10)
        train = Dataset(ds.X[:200], ds.Y[:200])
        test = Dataset(ds.X[200:], ds.Y[200:])
        full = fit_mcode(train, FULL_CONDITIONAL, FixedLambda(1.0))
        ind = fit_mcode(train, INDEPENDENT, FixedLambda(1.0))
        ll_full = np.log(estimate_rho(full, test).values).sum()
        ll_ind = np.log(estimate_rho(ind, test).values).sum()
        assert ll_full > ll_ind


class TestRhoMatrixAndPseudoJoint:
    def test_rho_matrix_validation(self):
        with pytest.raises(DomainError):
            RhoMatrix(np.array([[0.5, 1.5]]))
        with pytest.raises(DomainError):
            RhoMatrix(np.array([0.5, 0.5]))

    def test_rho_matrix_needs_a_row(self):
        # weights over no instances would be 0 / 0
        with pytest.raises(DomainError, match="at least one row"):
            RhoMatrix(np.empty((0, 3)))


class TestPersistence:
    def test_round_trip_preserves_rho_exactly(self, tmp_path,
                                              coupled_dataset):
        model = fit_mcode(coupled_dataset, FULL_CONDITIONAL, FixedLambda(1.0))
        save_model(model, tmp_path / "model")
        back = load_model(tmp_path / "model")
        rho_a = estimate_rho(model, coupled_dataset)
        rho_b = estimate_rho(back, coupled_dataset)
        assert np.array_equal(rho_a.values, rho_b.values)
        assert back.mode == model.mode
        assert back.lambdas == model.lambdas

    @pytest.mark.parametrize("mode", MODES)
    def test_fit_save_load_rho_round_trip(self, tmp_path, mode):
        ds = make_coupled_dataset(n=80, m=3, d=3, seed=13)
        Y = ds.Y.copy()
        Y[:, 0] = 0
        ds = Dataset(ds.X, Y)
        model = fit_mcode(ds, mode, CvLambda(grid=(0.1, 1.0), folds=3))
        save_model(model, tmp_path / "m")
        # the stored weights leave out the pinned output: m + d - 1 of them
        arity = {INDEPENDENT: 3, FULL_CONDITIONAL: 3 + 3 - 1}[mode]
        docs = [json.loads((tmp_path / "m" / f"factor_{i:03d}.json")
                           .read_text()) for i in range(3)]
        assert docs[0]["kind"] == "constant"
        assert [len(doc["weights"]) for doc in docs[1:]] == [arity] * 2
        back = load_model(tmp_path / "m")
        assert back.lambdas == model.lambdas
        assert np.array_equal(estimate_rho(back, ds).values,
                              estimate_rho(model, ds).values)
        np.testing.assert_allclose(estimate_rho(back, ds).values,
                                   oracles.oracle_rho(back, ds), atol=1e-12)

    def test_manifest_contents(self, tmp_path):
        gen = np.random.default_rng(11)
        Y = gen.integers(0, 2, (25, 2))
        Y[:, 0] = 0  # force one constant factor
        ds = Dataset(gen.normal(size=(25, 3)), Y)
        model = fit_mcode(ds, INDEPENDENT, FixedLambda(0.5))
        assert (model.m, model.d, model.lambdas) == (3, 2, (None, 0.5))
        save_model(model, tmp_path / "m", meta={"seed": 1})
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert set(manifest) == {"format", "mode", "means", "std_devs",
                                 "factors", "_meta"}
        assert manifest["format"] == "mcode-model"
        assert manifest["mode"] == INDEPENDENT
        assert len(manifest["means"]) == len(manifest["std_devs"]) == 3
        assert manifest["factors"] == ["factor_000.json", "factor_001.json"]
        docs = [json.loads((tmp_path / "m" / name).read_text())
                for name in manifest["factors"]]
        assert docs[0] == {"kind": "constant", "dim_index": 0,
                           "prob_one": 1 / 27}
        assert set(docs[1]) == {"kind", "dim_index", "lambda", "intercept",
                                "weights", "final_gradient_norm"}
        assert (docs[1]["dim_index"], docs[1]["lambda"]) == (1, 0.5)

    def test_load_rejects_garbage(self, tmp_path, coupled_dataset):
        with pytest.raises(DataError):
            load_model(tmp_path / "missing")
        target = tmp_path / "corrupt"
        target.mkdir()
        for manifest in (b"{}", b"[]", b"\xff\xfe{}"):
            (target / "manifest.json").write_bytes(manifest)
            with pytest.raises(DataError, match="manifest.json"):
                load_model(target)
        save_model(fit_mcode(coupled_dataset, INDEPENDENT, FixedLambda(1.0)),
                   tmp_path / "m")
        manifest_path = tmp_path / "m" / "manifest.json"
        good = json.loads(manifest_path.read_text())

        def with_value(doc, key, value):
            # json reads 1e400 as inf, which int() cannot convert
            return json.dumps({**doc, key: value}).replace('"1e400"', "1e400")

        std_devs = good["std_devs"]
        for key, value in (("means", good["means"] + [0.0]),
                           ("means", ["1e400"] + good["means"][1:]),
                           ("means", [math.nan] + good["means"][1:]),
                           ("means", good["means"][0]),
                           ("std_devs", std_devs[:-1]),
                           ("std_devs", [0.0] + std_devs[1:]),
                           ("std_devs", [-1.0] + std_devs[1:]),
                           ("std_devs", ["1e400"] + std_devs[1:]),
                           # a numeric string or a bool is not a number
                           ("means", [str(v) for v in good["means"]]),
                           ("std_devs", [True] + std_devs[1:]),
                           ("factors", [0, 1, 2]), ("factors", []),
                           ("factors", "factor_000.json"),
                           ("mode", "mystery")):
            manifest_path.write_text(with_value(good, key, value))
            with pytest.raises(DataError, match="manifest.json: malformed"):
                load_model(tmp_path / "m")
        manifest_path.write_text(with_value(good, "factors",
                                            good["factors"][::-1]))
        with pytest.raises(DataError, match="factor_002.json: .*position 0"):
            load_model(tmp_path / "m")
        # a factor file outside the model directory is never opened
        outside = tmp_path / "outside.json"
        shutil.copy(tmp_path / "m" / good["factors"][0], outside)
        for name in ("../outside.json", str(outside), "..", ".",
                     "sub\\factor_000.json"):
            manifest_path.write_text(with_value(
                good, "factors", [name] + good["factors"][1:]))
            with pytest.raises(DataError, match="manifest.json: malformed"):
                load_model(tmp_path / "m")
        manifest_path.write_text(with_value(good, "factors",
                                            good["factors"] + ["gone.json"]))
        with pytest.raises(DataError, match="gone.json"):
            load_model(tmp_path / "m")
        manifest_path.write_text(json.dumps(good))
        factor_path = tmp_path / "m" / "factor_000.json"
        factor = json.loads(factor_path.read_text())
        # json writes nan as NaN and reads it back as nan
        for key, value in (("dim_index", "1e400"),
                           ("weights", ["1e400"] + factor["weights"][1:]),
                           ("weights", 1.0), ("weights", [factor["weights"]]),
                           ("intercept", math.nan), ("lambda", "1e400"),
                           ("lambda", -math.inf), ("lambda", -1.0),
                           ("final_gradient_norm", math.nan),
                           ("final_gradient_norm", "1e400"),
                           ("final_gradient_norm", -1e-9),
                           ("lambda", True), ("intercept", "0.5"),
                           ("weights", [str(factor["weights"][0])]
                            + factor["weights"][1:])):
            factor_path.write_text(with_value(factor, key, value))
            with pytest.raises(DataError,
                               match="factor_000.json: malformed factor"):
                load_model(tmp_path / "m")
        constant = tmp_path / "m" / "constant.json"
        for prob_one in ("1e400", math.nan, 0.0, 1.0):
            constant.write_text(with_value(
                {"kind": "constant", "dim_index": 0}, "prob_one", prob_one))
            factors = ["constant.json"] + good["factors"][1:]
            manifest_path.write_text(json.dumps({**good, "factors": factors}))
            with pytest.raises(DataError,
                               match="constant.json: malformed factor"):
                load_model(tmp_path / "m")
        manifest_path.write_text(json.dumps(good))
        factor_path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(DataError, match="factor_000.json"):
            load_model(tmp_path / "m")

    def test_load_checks_factor_arity(self, tmp_path, coupled_dataset):
        # m is the length of means and d the number of factor files, so a
        # manifest with one more input, or a full-conditional one with one
        # factor fewer, no longer matches the stored weights
        for mode, edit in ((INDEPENDENT, "means"),
                           (FULL_CONDITIONAL, "factors")):
            target = tmp_path / mode
            save_model(fit_mcode(coupled_dataset, mode, FixedLambda(1.0)),
                       target)
            manifest = json.loads((target / "manifest.json").read_text())
            if edit == "means":
                manifest["means"].append(0.0)
                manifest["std_devs"].append(1.0)
            else:
                manifest["factors"].pop()
            (target / "manifest.json").write_text(json.dumps(manifest))
            with pytest.raises(DataError, match="arity"):
                load_model(target)

    def test_loads_directory_with_stale_keys(self, tmp_path, coupled_dataset):
        # Directories written before m, d, lambdas and converged were
        # derived carry those keys; they load, and give the same rho
        # bit for bit.
        Y = coupled_dataset.Y.copy()
        Y[:, 0] = 1  # one constant factor, whose lambda was written null
        ds = Dataset(coupled_dataset.X, Y)
        model = fit_mcode(ds, FULL_CONDITIONAL, FixedLambda(1.0))
        root = tmp_path / "m"
        save_model(model, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest.update(m=model.m, d=model.d, lambdas=list(model.lambdas))
        (root / "manifest.json").write_text(json.dumps(manifest))
        for name, factor in zip(manifest["factors"], model.factors):
            doc = json.loads((root / name).read_text())
            if doc["kind"] == "logistic":
                doc["converged"] = bool(factor.converged)
            (root / name).write_text(json.dumps(doc))
        back = load_model(root)
        assert back.lambdas == (None, 1.0, 1.0)
        assert np.array_equal(estimate_rho(back, ds).values,
                              estimate_rho(model, ds).values)


    def test_loads_directory_written_by_hand_in_the_old_layout(self,
                                                             tmp_path):
        # a full-conditional directory as earlier versions wrote it, with
        # m, d, lambdas and converged stored: factor i's weights are the
        # inputs' and then the other outputs', in ascending order
        root = tmp_path / "m"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({
            "format": "mcode-model", "mode": FULL_CONDITIONAL, "m": 2,
            "d": 3, "lambdas": [1.0, None, 0.5], "means": [0.5, -1.0],
            "std_devs": [2.0, 0.5], "factors": [
                "factor_000.json", "factor_001.json", "factor_002.json"]}))
        weights = {0: [0.3, -1.2, 2.0, -0.7], 2: [-0.4, 0.9, 1.5, -2.5]}
        for i in range(3):
            doc = {"kind": "constant", "dim_index": i, "prob_one": 0.25} \
                if i == 1 else {
                    "kind": "logistic", "dim_index": i, "lambda": 1.0,
                    "intercept": 0.1 * (i + 1), "weights": weights[i],
                    "final_gradient_norm": 1e-9, "converged": True}
            (root / f"factor_{i:03d}.json").write_text(json.dumps(doc))
        model = load_model(root)
        gen = np.random.default_rng(3)
        ds = Dataset(gen.normal(size=(25, 2)), gen.integers(0, 2, (25, 3)))
        np.testing.assert_allclose(estimate_rho(model, ds).values,
                                   oracles.oracle_rho(model, ds), atol=1e-15)

    def test_constant_factors_clamp_then_complement(self, tmp_path):
        # a constant factor's column of rho is its prob_one clamped into
        # [PROB_EPS, 1 - PROB_EPS], complemented where y = 0 and clamped
        # again, bit for bit
        probs = [1e-15, 0.5, 1.0 - 1e-15]
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format": "mcode-model", "mode": INDEPENDENT,
            "means": [0.5, -1.0], "std_devs": [2.0, 0.5],
            "factors": [f"factor_{i:03d}.json" for i in range(4)]}))
        for i, prob in enumerate(probs):
            (tmp_path / f"factor_{i:03d}.json").write_text(json.dumps(
                {"kind": "constant", "dim_index": i, "prob_one": prob}))
        (tmp_path / "factor_003.json").write_text(json.dumps({
            "kind": "logistic", "dim_index": 3, "lambda": 1.0,
            "intercept": 0.2, "weights": [0.7, -1.3],
            "final_gradient_norm": 1e-9}))
        gen = np.random.default_rng(4)
        Y = gen.integers(0, 2, (30, 4))
        ds = Dataset(gen.normal(size=(30, 2)), Y)
        rho = estimate_rho(load_model(tmp_path), ds).values
        for i, prob in enumerate(probs):
            p = np.clip(np.full(30, prob), PROB_EPS, 1.0 - PROB_EPS)
            expected = np.clip(np.where(Y[:, i] == 1, p, 1.0 - p),
                               PROB_EPS, 1.0 - PROB_EPS)
            assert rho[:, i].tobytes() == expected.tobytes()
        # a surprise on an extreme factor lands on the bound
        assert (rho[Y[:, 0] == 1, 0] == PROB_EPS).all()
        assert (rho[Y[:, 2] == 0, 2] == PROB_EPS).all()
        np.testing.assert_allclose(rho[:, 3], np.array(oracles.oracle_rho(
            load_model(tmp_path), ds))[:, 3], rtol=1e-13)

    @pytest.mark.parametrize("name, key, value", [
        ("manifest.json", "means", [1.7e308, 1.7e308]),
        ("manifest.json", "std_devs", [5e-324, 5e-324]),
        ("factor_000.json", "weights", [1.7e308, -1.7e308, 1e308, 1e308]),
    ])
    def test_extreme_parameters_overflow_cleanly(self, tmp_path, name, key,
                                                  value):
        # finite values of the right shape load, since no bound on them
        # holds for every dataset; scoring data on which they overflow
        # float64 is a DomainError, not a RuntimeWarning and a NaN rho
        gen = np.random.default_rng(0)
        ds = Dataset(gen.normal(size=(30, 2)), gen.integers(0, 2, (30, 3)))
        save_model(fit_mcode(ds, FULL_CONDITIONAL, FixedLambda(1.0)),
                   tmp_path)
        doc = json.loads((tmp_path / name).read_text())
        (tmp_path / name).write_text(json.dumps({**doc, key: value}))
        with pytest.raises(DomainError, match="overflow"):
            estimate_rho(load_model(tmp_path), ds)


class TestFactorSerialization:
    def test_logistic_round_trip_exact(self):
        ds = make_coupled_dataset(n=30, m=4, d=1, seed=14)
        factor = train_logistic(ds.X, ds.Y[:, 0], 0.25)
        assert isinstance(factor, LogisticFactor)
        doc = factor_to_dict(factor, 2)
        assert doc["dim_index"] == 2 and "converged" not in doc
        back = factor_from_dict(doc, 2)
        assert np.array_equal(back.weights, factor.weights)
        assert back.intercept == factor.intercept
        assert back.lam == factor.lam
        assert back.final_gradient_norm == factor.final_gradient_norm
        assert back.converged == factor.converged

    def test_constant_round_trip(self):
        factor = ConstantFactor(prob_one=0.125)
        assert factor_from_dict(factor_to_dict(factor, 1), 1) == factor

    def test_malformed_document(self):
        with pytest.raises(DomainError):
            factor_from_dict({"kind": "mystery", "dim_index": 0}, 0)
        with pytest.raises(DomainError):
            factor_from_dict({"kind": "logistic", "weights": [1.0]}, 0)
        with pytest.raises(DomainError, match="position 0"):
            factor_from_dict(factor_to_dict(ConstantFactor(0.5), 1), 0)

    def test_converged_is_the_gradient_test(self):
        # one fact, one home: no stored flag can disagree with the norm
        for norm in (0.0, GRAD_TOL, np.nextafter(GRAD_TOL, 1.0), 1.0):
            factor = LogisticFactor(lam=1.0, weights=np.zeros(1),
                                    intercept=0.0, final_gradient_norm=norm)
            assert factor.converged == (norm <= GRAD_TOL)


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """One saved model per mode, each with a constant factor, and the
    data they were fit on."""
    ds = make_coupled_dataset(n=40, m=2, d=3, seed=12)
    Y = ds.Y.copy()
    Y[:, 1] = 0
    ds = Dataset(ds.X, Y)
    root = tmp_path_factory.mktemp("saved")
    for mode in MODES:
        save_model(fit_mcode(ds, mode, FixedLambda(1.0)), root / mode,
                   meta={"seed": 0})
    return root, ds


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_any_single_edit_loads_and_scores_or_is_a_data_error(saved_models,
                                                             data):
    root, ds = saved_models
    mode = data.draw(st.sampled_from(MODES))
    name = data.draw(st.sampled_from(
        sorted(p.name for p in (root / mode).iterdir())))
    doc = json.loads((root / mode / name).read_text())
    key = data.draw(st.sampled_from(sorted(doc)))
    values = json_like(doc[key])
    if key == "factors" and data.draw(st.booleans()):
        # names that reach a real factor file other than by a plain name
        # in the model directory: ../m/..., or the saved original's
        # absolute path
        values = st.lists(st.sampled_from(
            doc[key] + [f"../m/{n}" for n in doc[key]]
            + [str(root / mode / n) for n in doc[key]] + ["", ".", ".."]),
            min_size=len(doc[key]), max_size=len(doc[key]))
    value = data.draw(values)
    escapes = key == "factors" and isinstance(value, list) and any(
        isinstance(n, str) and (n in ("", ".", "..") or "/" in n
                                or "\\" in n) for n in value)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "m"
        shutil.copytree(root / mode, target)
        (target / name).write_text(json.dumps({**doc, key: value}))
        try:
            model = load_model(target)
        except DataError as exc:
            assert not escapes or "manifest.json: malformed" in str(exc)
            return
    assert not escapes
    try:
        rho = estimate_rho(model, Dataset(ds.X, ds.Y[:, :model.d]))
    except DomainError as exc:
        # finite but extreme values, as in
        # test_extreme_parameters_overflow_cleanly
        stored = [model.stats.means, model.stats.std_devs] + [
            np.append(f.weights, f.intercept) if hasattr(f, "weights")
            else f.prob_one for f in model.factors]
        assert "overflow" in str(exc)
        assert all(np.isfinite(v).all() for v in stored)
        return
    assert rho.values.shape == (ds.n, model.d)
