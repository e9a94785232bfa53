import json

import numpy as np
import pytest

from mcode import (ConfigError, ConstantFactor, CvLambda, Dataset,
                   DomainError, FULL_CONDITIONAL, FixedLambda, INDEPENDENT,
                   PROB_EPS, RhoMatrix, estimate_rho, fit_mcode, load_model,
                   save_model)
from mcode.model import factor_features
from mcode.errors import DataError

import oracles
from conftest import make_coupled_dataset


class TestFactorFeatures:
    def test_full_conditional_layout(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Y = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
        feats = factor_features(FULL_CONDITIONAL, X, Y, dim=1)
        np.testing.assert_array_equal(
            feats, [[1.0, 2.0, 1.0, 1.0], [3.0, 4.0, 0.0, 1.0]])

    def test_independent_layout(self):
        X = np.eye(3)
        Y = np.ones((3, 2), dtype=np.int8)
        assert factor_features(INDEPENDENT, X, Y, dim=0) is X


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

    def test_cv_policy_runs(self):
        ds = make_coupled_dataset(n=60, m=2, d=2, seed=9)
        model = fit_mcode(ds, FULL_CONDITIONAL,
                          CvLambda(grid=(0.1, 10.0), folds=3, seed=1))
        assert all(lam in (0.1, 10.0) for lam in model.lambdas)

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

    def test_manifest_contents(self, tmp_path):
        gen = np.random.default_rng(11)
        Y = gen.integers(0, 2, (25, 2))
        Y[:, 0] = 0  # force one constant factor
        ds = Dataset(gen.normal(size=(25, 3)), Y)
        model = fit_mcode(ds, INDEPENDENT, FixedLambda(0.5))
        save_model(model, tmp_path / "m", meta={"seed": 1})
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["format"] == "mcode-model"
        assert manifest["mode"] == INDEPENDENT
        assert (manifest["m"], manifest["d"]) == (3, 2)
        assert manifest["lambdas"] == [None, 0.5]
        assert len(manifest["factors"]) == 2
        factor_doc = json.loads(
            (tmp_path / "m" / manifest["factors"][0]).read_text())
        assert factor_doc["kind"] == "constant"

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
        (tmp_path / "m" / "factor_000.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(DataError, match="factor_000.json"):
            load_model(tmp_path / "m")

    def test_load_checks_factor_arity(self, tmp_path, coupled_dataset):
        model = fit_mcode(coupled_dataset, INDEPENDENT, FixedLambda(1.0))
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["m"] = model.m + 1
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError):
            load_model(tmp_path / "m")
