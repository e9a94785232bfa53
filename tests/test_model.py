import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import mcode.optim
from mcode import (ConfigError, ConstantFactor, CvLambda, Dataset,
                   DomainError, FULL_CONDITIONAL, FixedLambda, INDEPENDENT,
                   LogisticFactor, McodeModel, PROB_EPS, RhoMatrix,
                   StandardizationStats, estimate_rho, fit_mcode,
                   inject_outliers, standardize, train_logistic)
from mcode.model import MODES
from mcode.optim import GRAD_TOL

import oracles
from conftest import make_coupled_dataset
from synthdata import make_benchmark_dataset


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

    def test_all_zero_output_is_laplace_smoothed(self):
        # independent mode, output 0 all zeros: (0 + 1) / (25 + 2), to the bit
        gen = np.random.default_rng(11)
        Y = gen.integers(0, 2, (25, 2))
        Y[:, 0] = 0
        model = fit_mcode(Dataset(gen.normal(size=(25, 3)), Y),
                          INDEPENDENT, FixedLambda(0.5))
        assert (model.m, model.d, model.lambdas) == (3, 2, (None, 0.5))
        assert model.factors[0] == ConstantFactor(prob_one=1 / 27)

    @pytest.mark.parametrize("mode", MODES)
    def test_cv_fit_with_a_constant_output(self, mode):
        # the constant output is a ConstantFactor without a penalty; the
        # others store m weights, or m + d - 1 in full_conditional mode,
        # which leave out their own output
        ds = make_coupled_dataset(n=80, m=3, d=3, seed=13)
        Y = ds.Y.copy()
        Y[:, 0] = 0
        ds = Dataset(ds.X, Y)
        model = fit_mcode(ds, mode, CvLambda(grid=(0.1, 1.0), folds=3))
        arity = {INDEPENDENT: 3, FULL_CONDITIONAL: 3 + 3 - 1}[mode]
        assert isinstance(model.factors[0], ConstantFactor)
        assert model.lambdas[0] is None
        assert [f.arity for f in model.factors[1:]] == [arity] * 2
        np.testing.assert_allclose(estimate_rho(model, ds).values,
                                   oracles.oracle_rho(model, ds), atol=1e-12)

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


class TestHandBuiltModels:
    """estimate_rho on models built from given parameters, as no fit
    would give them."""

    def test_full_conditional_weight_order(self):
        # factor i's weights are the inputs' and then the other outputs',
        # in ascending order
        weights = {0: [0.3, -1.2, 2.0, -0.7], 2: [-0.4, 0.9, 1.5, -2.5]}
        factors = tuple(
            ConstantFactor(prob_one=0.25) if i == 1 else LogisticFactor(
                lam=1.0, weights=np.array(weights[i]),
                intercept=0.1 * (i + 1), final_gradient_norm=1e-9)
            for i in range(3))
        model = McodeModel(FULL_CONDITIONAL, StandardizationStats(
            np.array([0.5, -1.0]), np.array([2.0, 0.5])), factors)
        gen = np.random.default_rng(3)
        ds = Dataset(gen.normal(size=(25, 2)), gen.integers(0, 2, (25, 3)))
        np.testing.assert_allclose(estimate_rho(model, ds).values,
                                   oracles.oracle_rho(model, ds), atol=1e-15)

    def test_constant_factors_clamp_then_complement(self):
        # a constant factor's column of rho is its prob_one clamped into
        # [PROB_EPS, 1 - PROB_EPS], complemented where y = 0 and clamped
        # again, bit for bit
        probs = [1e-15, 0.5, 1.0 - 1e-15]
        model = McodeModel(
            INDEPENDENT,
            StandardizationStats(np.array([0.5, -1.0]), np.array([2.0, 0.5])),
            tuple(ConstantFactor(prob_one=p) for p in probs) + (
                LogisticFactor(lam=1.0, weights=np.array([0.7, -1.3]),
                               intercept=0.2, final_gradient_norm=1e-9),))
        gen = np.random.default_rng(4)
        Y = gen.integers(0, 2, (30, 4))
        ds = Dataset(gen.normal(size=(30, 2)), Y)
        rho = estimate_rho(model, ds).values
        for i, prob in enumerate(probs):
            p = np.clip(np.full(30, prob), PROB_EPS, 1.0 - PROB_EPS)
            expected = np.clip(np.where(Y[:, i] == 1, p, 1.0 - p),
                               PROB_EPS, 1.0 - PROB_EPS)
            assert rho[:, i].tobytes() == expected.tobytes()
        # a surprise on an extreme factor lands on the bound
        assert (rho[Y[:, 0] == 1, 0] == PROB_EPS).all()
        assert (rho[Y[:, 2] == 0, 2] == PROB_EPS).all()
        np.testing.assert_allclose(rho[:, 3], np.array(
            oracles.oracle_rho(model, ds))[:, 3], rtol=1e-13)

    @pytest.mark.parametrize("key, value", [
        ("means", [1.7e308, 1.7e308]),
        ("std_devs", [5e-324, 5e-324]),
        ("weights", [1.7e308, -1.7e308, 1e308, 1e308]),
    ])
    def test_extreme_parameters_overflow_cleanly(self, key, value):
        # no bound on finite parameters holds for every dataset; scoring
        # data on which they overflow float64 is a DomainError, not a
        # RuntimeWarning and a NaN rho
        gen = np.random.default_rng(0)
        ds = Dataset(gen.normal(size=(30, 2)), gen.integers(0, 2, (30, 3)))
        model = fit_mcode(ds, FULL_CONDITIONAL, FixedLambda(1.0))
        if key == "weights":
            first = replace(model.factors[0], weights=np.array(value))
            model = replace(model, factors=(first, *model.factors[1:]))
        else:
            model = replace(model, stats=replace(model.stats,
                                                 **{key: np.array(value)}))
        with pytest.raises(DomainError, match="overflow"):
            estimate_rho(model, ds)

    def test_factor_of_another_arity(self, coupled_dataset):
        # one input more than the factors were fit on, or in full_conditional
        # mode one output fewer, no longer matches the factors' weights
        ds = coupled_dataset
        ind = fit_mcode(ds, INDEPENDENT, FixedLambda(1.0))
        wider = replace(ind, stats=StandardizationStats(
            np.append(ind.stats.means, 0.0),
            np.append(ind.stats.std_devs, 1.0)))
        full = fit_mcode(ds, FULL_CONDITIONAL, FixedLambda(1.0))
        narrower = replace(full, factors=full.factors[:-1])
        for model, other in (
                (wider, Dataset(np.hstack([ds.X, ds.X[:, :1]]), ds.Y)),
                (narrower, Dataset(ds.X, ds.Y[:, :-1]))):
            with pytest.raises(DomainError, match="factor 0 has arity"):
                estimate_rho(model, other)


class TestLogisticFactor:
    def test_converged_is_the_gradient_test(self):
        # one fact, one home: no flag kept beside the norm can disagree
        # with it
        for norm in (0.0, GRAD_TOL, np.nextafter(GRAD_TOL, 1.0), 1.0):
            factor = LogisticFactor(lam=1.0, weights=np.zeros(1),
                                    intercept=0.0, final_gradient_norm=norm)
            assert factor.converged == (norm <= GRAD_TOL)
