import math

import numpy as np
import pytest

from mcode import (ConfigError, ConstantFactor, DomainError, FixedLambda,
                   FULL_CONDITIONAL, INDEPENDENT, LogisticFactor, PROB_EPS,
                   cross_validate_lambda, fit_mcode, inject_outliers,
                   penalized_nll, predict_prob_batch,
                   train_logistic)
from mcode.dataset import make_rng
from mcode.optim import factor_from_dict, factor_to_dict, optimizer_run_count

import oracles
from synthdata import make_benchmark_dataset


def random_problem(seed, n=40, p=3, lam=1.0):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, p))
    w_true = gen.normal(size=p)
    y = (gen.random(n) < 1 / (1 + np.exp(-X @ w_true))).astype(float)
    if y.min() == y.max():  # keep both classes present
        y[0] = 1 - y[0]
    return X, y, lam


class TestObjective:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_central_differences(self, seed):
        X, y, lam = random_problem(seed, n=25, p=4, lam=0.3)
        gen = np.random.default_rng(1000 + seed)
        for _ in range(10):
            params = gen.normal(scale=2.0, size=5)
            _, grad = penalized_nll(params, X, y, lam)
            fd = np.empty_like(params)
            h = 1e-6
            for j in range(params.size):
                up = params.copy()
                up[j] += h
                down = params.copy()
                down[j] -= h
                fd[j] = (penalized_nll(up, X, y, lam)[0]
                         - penalized_nll(down, X, y, lam)[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
            assert rel < 1e-5

    def test_penalty_excludes_intercept(self):
        X = np.zeros((4, 1))
        y = np.array([0.0, 1.0, 1.0, 1.0])
        value_b0, _ = penalized_nll(np.array([0.0, 0.0]), X, y, 10.0)
        value_b2, _ = penalized_nll(np.array([0.0, 2.0]), X, y, 10.0)
        # moving the intercept changes only the likelihood term
        assert value_b2 != value_b0
        value_w, _ = penalized_nll(np.array([2.0, 0.0]), X, y, 10.0)
        assert value_w == pytest.approx(value_b0 + 0.5 * 10.0 * 4.0)


class TestTrainer:
    def test_matches_grid_polish_oracle(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        lam = 1.0
        factor = train_logistic(X, y, lam)

        def objective(params):
            return penalized_nll(np.asarray(params), X, y, lam)[0]

        best = oracles.grid_polish(objective, [0.0, 0.0], 5.0)
        f_fit = objective([factor.weights[0], factor.intercept])
        f_oracle = objective(best)
        assert abs(f_fit - f_oracle) < 1e-8
        assert f_fit <= f_oracle + 1e-8

    def test_multi_init_agreement(self):
        X, y, lam = random_problem(17, n=80, p=4, lam=0.7)
        gen = np.random.default_rng(5)
        finals = []
        for _ in range(10):
            init = gen.normal(scale=3.0, size=5)
            factor = train_logistic(X, y, lam, init=init)
            finals.append(penalized_nll(
                np.append(factor.weights, factor.intercept), X, y, lam)[0])
        assert max(finals) - min(finals) < 1e-8

    def test_deterministic(self):
        X, y, lam = random_problem(3)
        a = train_logistic(X, y, lam)
        b = train_logistic(X, y, lam)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_shrinkage_monotone_in_lambda(self):
        X, y, _ = random_problem(23, n=100, p=4)
        norms = []
        for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
            factor = train_logistic(X, y, lam)
            norms.append(np.linalg.norm(factor.weights))
        for small, large in zip(norms, norms[1:]):
            assert large < small

    def test_intercept_only_balanced(self):
        factor = train_logistic(np.empty((4, 0)), np.array([0, 1, 0, 1.0]),
                                lam=3.0)
        assert factor.intercept == 0.0
        assert factor.converged

    def test_intercept_not_shrunk(self):
        # under a crushing penalty the weights vanish but the intercept
        # still fits the base rate
        gen = np.random.default_rng(8)
        X = gen.normal(size=(400, 2))
        y = np.array([1.0, 1.0, 1.0, 0.0] * 100)
        factor = train_logistic(X, y, lam=1e6)
        assert np.linalg.norm(factor.weights) < 1e-3
        assert factor.intercept == pytest.approx(math.log(3), abs=1e-2)

    def test_constant_labels_laplace(self):
        factor = train_logistic(np.ones((3, 2)), np.ones(3), lam=1.0)
        assert isinstance(factor, ConstantFactor)
        assert factor.prob_one == pytest.approx(4 / 5)
        factor0 = train_logistic(np.ones((3, 2)), np.zeros(3), lam=1.0)
        assert factor0.prob_one == pytest.approx(1 / 5)

    @pytest.mark.parametrize("seed,n,p,lam", [(2, 50, 3, 0.5)] + [
        (seed, 60, 5, 0.05) for seed in range(6)])
    def test_converged_flag_reflects_gradient(self, seed, n, p, lam):
        X, y, lam = random_problem(seed, n=n, p=p, lam=lam)
        factor = train_logistic(X, y, lam)
        assert factor.converged
        assert factor.final_gradient_norm <= 1e-6
        value, grad = penalized_nll(
            np.append(factor.weights, factor.intercept), X, y, lam)
        assert np.linalg.norm(grad) == pytest.approx(
            factor.final_gradient_norm)

    def test_every_benchmark_factor_converges(self):
        # Some of these factors end where the predicted decrease is below
        # the float64 resolution of the objective, so the Armijo test
        # alone rejects every step short of the tolerance.
        ds = make_benchmark_dataset()
        for seed in range(5):
            perturbed, _ = inject_outliers(ds, 0.01, 0.25, seed)
            for mode in (FULL_CONDITIONAL, INDEPENDENT):
                model = fit_mcode(perturbed, mode, FixedLambda(1.0))
                for factor in model.factors:
                    assert factor.converged, (seed, mode, factor.dim_index)

    def test_separable_unpenalized_stops_finite(self):
        # lam = 0 on separable labels has no finite optimum
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        factor = train_logistic(X, y, 0.0)
        assert np.isfinite(factor.weights).all()
        assert np.isfinite(factor.intercept)
        assert factor.weights[0] > 0.0

    def test_duplicate_columns_unpenalized(self):
        # lam = 0 with two identical columns gives a singular Hessian
        X, y, _ = random_problem(11, n=50, p=2)
        X = np.hstack([X, X[:, :1]])
        factor = train_logistic(X, y, 0.0)
        assert np.isfinite(factor.weights).all()

    def test_run_counter_increments(self):
        X, y, lam = random_problem(4)
        before = optimizer_run_count()
        train_logistic(X, y, lam)
        assert optimizer_run_count() == before + 1

    @pytest.mark.parametrize("bad", [
        dict(features=np.array([[np.inf]]), labels=np.array([1.0]), lam=1.0),
        dict(features=np.ones((2, 1)), labels=np.array([0.0, 0.5]), lam=1.0),
        dict(features=np.ones((2, 1)), labels=np.array([0.0, 1.0]), lam=-1.0),
        dict(features=np.ones((2, 1)), labels=np.array([0.0]), lam=1.0),
    ])
    def test_contract_violations(self, bad):
        with pytest.raises(DomainError):
            train_logistic(**bad)

    def test_bad_init_rejected(self):
        X, y, lam = random_problem(1, p=2)
        with pytest.raises(DomainError):
            train_logistic(X, y, lam, init=np.zeros(7))


class TestPredict:
    def test_known_value(self):
        factor = LogisticFactor(dim_index=0, lam=1.0,
                                weights=np.array([1.0]), intercept=0.0,
                                converged=True, final_gradient_norm=0.0)
        assert predict_prob_batch(factor, [[math.log(3)]])[0] == \
            pytest.approx(0.75)

    def test_clamped_to_open_interval(self):
        factor = LogisticFactor(dim_index=0, lam=1.0,
                                weights=np.array([100.0]), intercept=0.0,
                                converged=True, final_gradient_norm=0.0)
        assert predict_prob_batch(factor, [[50.0]])[0] == 1.0 - PROB_EPS
        assert predict_prob_batch(factor, [[-50.0]])[0] == PROB_EPS

    def test_constant_factor(self):
        factor = ConstantFactor(dim_index=0, prob_one=0.8)
        assert predict_prob_batch(factor, [[1.0, 2.0]])[0] == 0.8

    def test_arity_mismatch(self):
        factor = LogisticFactor(dim_index=0, lam=1.0,
                                weights=np.array([1.0, 2.0]), intercept=0.0,
                                converged=True, final_gradient_norm=0.0)
        with pytest.raises(DomainError):
            predict_prob_batch(factor, [[1.0]])


class TestCrossValidation:
    def test_matches_explicit_fold_loop(self):
        X, y, _ = random_problem(31, n=45, p=3)
        grid = (0.1, 10.0)
        n_folds, seed = 3, 7
        chosen = cross_validate_lambda(X, y, grid, n_folds, seed)

        # independent re-computation of the selection
        order = make_rng(seed).permutation(45)
        folds = np.array_split(order, n_folds)
        scores = {}
        for lam in grid:
            total = 0.0
            for fold in folds:
                mask = np.ones(45, dtype=bool)
                mask[fold] = False
                factor = train_logistic(X[mask], y[mask], lam)
                p = predict_prob_batch(factor, X[fold])
                rho = np.where(y[fold] == 1.0, p, 1.0 - p)
                total += float(np.log(rho).sum())
            scores[lam] = total / 45
        best = max(sorted(grid), key=lambda lam: (scores[lam], lam))
        assert chosen == best

    def test_pure_noise_prefers_max_shrinkage(self):
        gen = np.random.default_rng(12)
        X = gen.normal(size=(60, 3))
        y = gen.integers(0, 2, size=60).astype(float)
        chosen = cross_validate_lambda(X, y, (0.01, 0.1, 1.0, 10.0, 100.0),
                                       n_folds=5, seed=0)
        assert chosen == 100.0

    def test_exact_tie_goes_to_larger(self):
        # all-zero features make every candidate's fit identical
        X = np.zeros((20, 1))
        y = np.array([0.0, 1.0] * 10)
        chosen = cross_validate_lambda(X, y, (0.5, 2.0), n_folds=4, seed=1)
        assert chosen == 2.0

    def test_single_class_fold_falls_back(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.zeros(10)
        y[0] = 1.0
        chosen = cross_validate_lambda(X, y, (0.1, 1.0), n_folds=2, seed=3)
        assert chosen in (0.1, 1.0)

    def test_deterministic_given_seed(self):
        X, y, _ = random_problem(9, n=50, p=2)
        grid = (0.01, 1.0, 100.0)
        assert cross_validate_lambda(X, y, grid, 5, seed=4) == \
            cross_validate_lambda(X, y, grid, 5, seed=4)

    def test_config_errors(self):
        X, y, _ = random_problem(2)
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (), 5, 0)
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (1.0,), 1, 0)
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (1.0,), X.shape[0] + 1, 0)
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (-1.0, 1.0), 5, 0)


class TestFactorSerialization:
    def test_logistic_round_trip_exact(self):
        X, y, lam = random_problem(14, n=30, p=4, lam=0.25)
        factor = train_logistic(X, y, lam, dim_index=2)
        back = factor_from_dict(factor_to_dict(factor))
        assert np.array_equal(back.weights, factor.weights)
        assert back.intercept == factor.intercept
        assert back.lam == factor.lam
        assert back.dim_index == 2

    def test_constant_round_trip(self):
        factor = ConstantFactor(dim_index=1, prob_one=0.125)
        assert factor_from_dict(factor_to_dict(factor)) == factor

    def test_malformed_document(self):
        with pytest.raises(DomainError):
            factor_from_dict({"kind": "mystery"})
        with pytest.raises(DomainError):
            factor_from_dict({"kind": "logistic", "weights": [1.0]})
