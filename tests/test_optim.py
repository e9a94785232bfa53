import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dposv
from scipy.special import expit

from mcode import (ConfigError, ConstantFactor, Dataset, DomainError,
                   FixedLambda, FULL_CONDITIONAL, INDEPENDENT, LogisticFactor,
                   McodeModel, NumericalError, PROB_EPS, StandardizationStats,
                   cross_validate_lambda, estimate_rho, fit_mcode,
                   inject_outliers, penalized_nll, standardize,
                   train_logistic)
import mcode.optim
from mcode.dataset import make_rng
from mcode.optim import (DEFAULT_LAMBDA_GRID, GRAD_TOL, _logistic, _logits,
                         _newton, _newton_directions, predict_prob_stack,
                         train_logistic_columns)

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
            _, grad, _ = penalized_nll(params, X, y, lam)
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
        value_b0 = penalized_nll(np.array([0.0, 0.0]), X, y, 10.0)[0]
        value_b2 = penalized_nll(np.array([0.0, 2.0]), X, y, 10.0)[0]
        # moving the intercept changes only the likelihood term
        assert value_b2 != value_b0
        value_w = penalized_nll(np.array([2.0, 0.0]), X, y, 10.0)[0]
        assert value_w == pytest.approx(value_b0 + 0.5 * 10.0 * 4.0)

    def test_stack_rows_are_the_single_problems(self):
        X, y, _ = random_problem(6, n=30, p=3)
        gen = np.random.default_rng(2)
        params = gen.normal(size=(4, 4))
        lams = np.array([0.0, 0.1, 1.0, 10.0])
        labels = np.vstack([y, 1.0 - y, (gen.random((2, 30)) < 0.4) * 1.0])
        values, grads, weights = penalized_nll(params, X, labels, lams)
        for b in range(4):
            value, grad, _ = penalized_nll(params[b], X, labels[b], lams[b])
            assert values[b] == pytest.approx(value, rel=1e-12)
            np.testing.assert_allclose(grads[b], grad, rtol=1e-12,
                                       atol=1e-12)
            prob = expit(X @ params[b, :-1] + params[b, -1])
            np.testing.assert_allclose(weights[b], prob * (1 - prob),
                                       rtol=1e-12, atol=1e-15)
        # a workspace larger than the stack, holding stale values, changes
        # no bit
        workspace = np.full(mcode.optim._NLL_TEMPORARIES * 5 * 30, np.nan)
        reused = penalized_nll(params, X, labels, lams, workspace=workspace)
        for fresh, again in zip((values, grads, weights), reused):
            assert fresh.tobytes() == again.tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(z=hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats()
                        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                           745.5, -745.5, 1e300, -1e300])))
    def test_probability_has_the_bits_of_the_two_branch_form(self, z):
        # one instance whose feature is 1 and problems [0, z_b], one per z:
        # each problem's intercept gradient is its probability less label 0
        params = np.zeros((z.size, 2))
        params[:, 1] = z
        features, labels = np.ones((1, 1)), np.zeros(1)
        with np.errstate(all="ignore"):
            _, grad, weight = penalized_nll(params, features, labels,
                                            np.zeros(z.size))
            logit = _logits(params, features)
            e = np.exp(-np.abs(logit))
            inv = 1.0 / (1.0 + e)
            prob = np.where(logit >= 0.0, inv, e * inv)
            expected = prob - labels
        assert grad[:, -1].tobytes() == expected[:, 0].tobytes()
        assert weight.tobytes() == (prob * (1.0 - prob)).tobytes()

    def test_products_cut_into_serial_pieces(self, monkeypatch):
        # cut into pieces of a few rows, the objective is the uncut one
        X, y, _ = random_problem(12, n=50, p=3)
        params = np.random.default_rng(3).normal(size=(3, 4))
        lams = np.array([0.0, 1.0, 5.0])
        whole = penalized_nll(params, X, y, lams)
        monkeypatch.setattr(mcode.optim, "_BLAS_SERIAL_SIZE", 20)
        assert len(mcode.optim._row_slices(50, 3 * 3)) == 25
        cut = penalized_nll(params, X, y, lams)
        for a, b in zip(whole, cut):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13)


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
        starts = np.random.default_rng(5).normal(scale=3.0, size=(10, 5))
        params, _ = _newton(X, np.tile(y, (10, 1)), np.full(10, lam), starts)
        finals = [penalized_nll(row, X, y, lam)[0] for row in params]
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
        _, grad, _ = penalized_nll(
            np.append(factor.weights, factor.intercept), X, y, lam)
        assert np.linalg.norm(grad) == pytest.approx(
            factor.final_gradient_norm)

    def test_every_benchmark_factor_converges(self):
        # Some of these factors end where the predicted decrease of f is
        # below its float64 resolution; a line search that tests f rather
        # than ||g|| rejects every step there, short of the tolerance.
        ds = make_benchmark_dataset()
        for seed in range(5):
            perturbed, _ = inject_outliers(ds, 0.01, 0.25, seed)
            for mode in (FULL_CONDITIONAL, INDEPENDENT):
                model = fit_mcode(perturbed, mode, FixedLambda(1.0))
                for i, factor in enumerate(model.factors):
                    assert factor.converged, (seed, mode, i)

    def test_cv_folds_at_n_8000_converge(self):
        # At N=8000 the full Newton step from the fold fits (dim 0, fold 4),
        # (1, 1) and (2, 3) at lam=0.1 reaches ||g|| ~ 1e-13, but f, a sum
        # of 6,400 terms, comes out about 22 ulp higher, so a line search
        # on f rejected it and the fits ran MAX_ITER iterations with ||g||
        # stuck near 1e-6. Each fold's stack of every dimension at every
        # grid value is solved here as cross_validate_lambda solves it,
        # from the previous fold's solutions (every dimension has both
        # classes in every fold).
        ds = make_benchmark_dataset(n=8000, seed=11)
        perturbed, _ = inject_outliers(ds, 0.01, 0.25, 0)
        Y = perturbed.Y.astype(np.float64)
        design = np.hstack([standardize(perturbed)[0].X, Y])
        grid = np.array(DEFAULT_LAMBDA_GRID)
        pinned = np.tile(ds.m + np.arange(ds.d), grid.size)
        params = np.zeros((pinned.size, design.shape[1] + 1))
        for k, fold in enumerate(
                np.array_split(make_rng(0).permutation(ds.n), 5)):
            train = np.ones(ds.n, dtype=bool)
            train[fold] = False
            labels = np.tile(Y[train].T, (grid.size, 1))
            params, gnorm = _newton(
                design[train], labels, np.repeat(grid, ds.d), params, pinned)
            assert (gnorm <= GRAD_TOL).all(), (k, gnorm.reshape(-1, ds.d))
            assert (params[np.arange(pinned.size), pinned] == 0.0).all()

    def test_stack_agrees_with_single_fits(self):
        # each problem of a stack, its own labels and penalty and one
        # feature pinned, is the lone fit without that feature
        X, y, _ = random_problem(21, n=120, p=4)
        gen = np.random.default_rng(4)
        labels = np.vstack([y, 1.0 - y, (gen.random(120) < 0.3) * 1.0] * 2)
        lams = np.array([0.01, 0.1, 1.0, 10.0, 0.5, 3.0])
        pinned = np.array([0, 1, 2, 3, 0, 3])
        params, gnorm = _newton(X, labels, lams, np.zeros((6, 5)), pinned)
        assert (gnorm <= GRAD_TOL).all()
        for b in range(6):
            assert params[b, pinned[b]] == 0.0
            single = train_logistic(np.delete(X, pinned[b], axis=1),
                                    labels[b], lams[b])
            np.testing.assert_allclose(
                np.delete(params[b], pinned[b]),
                np.append(single.weights, single.intercept),
                rtol=1e-12, atol=1e-12)

    def test_pinned_weight_and_gradient_stay_zero(self, monkeypatch):
        # the pinned coordinate's gradient entry is 0 and its Hessian row
        # and column are the identity's, so every Newton direction leaves
        # it at exactly 0
        X, y, _ = random_problem(8, n=60, p=3)
        seen = []

        def spy(hess, grad):
            d = directions(hess, grad)
            seen.append((hess.copy(), grad.copy(), d.copy()))
            return d

        directions = mcode.optim._newton_directions
        monkeypatch.setattr(mcode.optim, "_newton_directions", spy)
        params, gnorm = _newton(X, np.vstack([y, 1.0 - y]),
                                np.array([0.5, 2.0]), np.zeros((2, 4)),
                                np.array([1, 1]))
        assert seen and (gnorm <= GRAD_TOL).all()
        unit = np.eye(4)[1]
        for hess, grad, d in seen:
            assert (grad[:, 1] == 0.0).all() and (d[:, 1] == 0.0).all()
            assert (hess[:, 1] == unit).all() and (hess[:, :, 1] == unit).all()
        assert (params[:, 1] == 0.0).all()
        _, grad, _ = penalized_nll(params, X, np.vstack([y, 1.0 - y]),
                                   np.array([0.5, 2.0]))
        # ||g|| is the norm without the pinned entry, which is far from 0
        np.testing.assert_allclose(
            gnorm, np.linalg.norm(np.delete(grad, 1, axis=1), axis=1),
            rtol=1e-6)
        assert (np.abs(grad[:, 1]) > 1e3 * GRAD_TOL).all()

    def test_label_columns_agree_with_single_fits(self, monkeypatch):
        gen = np.random.default_rng(9)
        X = gen.normal(size=(150, 3))
        Y = (X @ gen.normal(size=(3, 4)) + gen.normal(size=(150, 4)) > 0)
        Y = Y.astype(np.float64)
        Y[:, 2] = 0.0
        lams = [0.1, 1.0, 10.0, 0.0]
        stacks = []

        def spy(features, labels, lam, params, *args):
            stacks.append(params.shape[0])
            return _newton(features, labels, lam, params, *args)

        monkeypatch.setattr(mcode.optim, "_newton", spy)
        factors = train_logistic_columns(X, Y, lams)
        monkeypatch.undo()
        # one stack, one problem per non-constant column
        assert stacks == [3]
        assert factors[2] == ConstantFactor(prob_one=1 / 152)
        for j in (0, 1, 3):
            single = train_logistic(X, Y[:, j], lams[j])
            assert factors[j].converged and factors[j].lam == lams[j]
            np.testing.assert_allclose(factors[j].weights, single.weights,
                                       rtol=1e-12, atol=1e-12)
            assert factors[j].intercept == pytest.approx(single.intercept,
                                                         rel=1e-12, abs=1e-12)
        with pytest.raises(DomainError):
            train_logistic_columns(X, Y, lams[:3])
        with pytest.raises(DomainError):
            train_logistic_columns(X, Y[:, 0], 1.0)
        with pytest.raises(DomainError):
            train_logistic_columns(X, Y, [True, 1.0, 1.0, 1.0])
        # a ragged nesting, which NumPy cannot shape
        with pytest.raises(DomainError, match="one penalty per column"):
            train_logistic_columns(X, Y[:, :2], [[1.0], 1.0])
        for pinned in ([0, 1, 2], [0, 1, 2, 3], [0.0, 1.0, 2.0, 0.0]):
            with pytest.raises(DomainError, match="pinned"):
                train_logistic_columns(X, Y, lams, pinned)

    def test_indefinite_hessian_falls_back_on_its_problem_only(self):
        hess = np.array([[[1.0, 1.0], [1.0, 1.0]],
                         [[4.0, 1.0], [1.0, 3.0]],
                         [[2.0, 0.0], [0.0, 5.0]]])
        grad = np.array([[1.0, 2.0], [-1.0, 2.0], [3.0, 1.0]])
        d = _newton_directions(hess, grad)
        assert np.array_equal(d[0], -grad[0])
        for b in (1, 2):
            np.testing.assert_allclose(hess[b] @ d[b], -grad[b], rtol=1e-14)

    def test_indefinite_invertible_hessian_takes_minus_g(self):
        # a solve exists, but H is not positive definite, so d = -g; the
        # positive definite members beside it, first or last, still solve
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        definite = np.array([[4.0, 1.0], [1.0, 3.0]])
        grad = np.array([[1.0, 2.0], [-1.0, 2.0]])
        for hess in ([indefinite, definite], [definite, indefinite]):
            d = _newton_directions(np.array(hess), grad)
            for h, g, row in zip(hess, grad, d):
                if h is indefinite:
                    assert np.array_equal(row, -g)
                else:
                    np.testing.assert_allclose(h @ row, -g, rtol=1e-14)
        # alone, too
        d = _newton_directions(indefinite[None], grad[:1])
        assert np.array_equal(d, -grad[:1])

    @pytest.mark.parametrize("size", [1, 2, 8, 40])
    @pytest.mark.parametrize("dim", [2, 5, 18])
    def test_directions_match_lapack_cholesky_solve(self, size, dim):
        # random SPD stacks, each member solved on its own by dposv
        gen = np.random.default_rng(100 * size + dim)
        factors = gen.normal(size=(size, dim, dim + 3))
        hess = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
        grad = gen.normal(size=(size, dim))
        d = _newton_directions(hess, grad)
        for h, g, row in zip(hess, grad, d):
            _, solution, info = dposv(h, -g)
            assert info == 0
            np.testing.assert_allclose(row, solution, rtol=1e-12,
                                       atol=1e-12 * np.abs(solution).max())

    def test_duplicate_column_unpenalized_in_a_stack(self, monkeypatch):
        # lam = 0 with two identical columns makes that problem's Hessian
        # singular: where its Cholesky factorization fails, it alone takes
        # d = -g, and the penalized problems beside it keep Newton steps.
        X, y, _ = random_problem(11, n=50, p=2)
        X = np.hstack([X, X[:, :1]])
        shared = []

        def spy(hess, grad):
            d = directions(hess, grad)
            if hess.shape[0] > 1:  # grad may be a view _newton writes
                shared.append((hess, grad.copy(), d))
            return d

        directions = mcode.optim._newton_directions
        monkeypatch.setattr(mcode.optim, "_newton_directions", spy)
        lams = np.array([0.0, 1.0, 10.0])
        params, gnorm = _newton(X, np.tile(y, (3, 1)), lams, np.zeros((3, 4)))
        monkeypatch.undo()
        fell_back = 0
        for hess, grad, d in shared:
            # the unpenalized problem: columns 0 and 2 have equal entries
            singular = [h[0, 0] == h[0, 2] == h[2, 2] for h in hess]
            assert sum(singular) == 1
            for h, g, row, alone in zip(hess, grad, d, singular):
                if alone:
                    fell_back += np.array_equal(row, -g)
                else:
                    assert not np.array_equal(row, -g)
                    np.testing.assert_allclose(h @ row, -g, rtol=1e-10,
                                               atol=1e-12)
        assert fell_back
        # The singular problem converges too. Where its H is positive
        # definite by rounding alone, Cholesky substitution gives it small
        # steps; an LU solve gave steps of norm 1e14, and it ran out of
        # iterations at ||g|| = 0.034.
        assert (gnorm <= GRAD_TOL).all()
        for b in (1, 2):
            single = train_logistic(X, y, lams[b])
            assert gnorm[b] <= GRAD_TOL
            np.testing.assert_allclose(
                params[b], np.append(single.weights, single.intercept),
                rtol=1e-12, atol=1e-12)

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
        assert factor.converged

    def test_final_factors_above_tolerance_are_logged(self, monkeypatch,
                                                       caplog, capsys):
        X, Y = random_problem(5, n=45, p=3)[0], np.zeros((45, 3))
        Y[:, 0] = X[:, 0] > 0
        Y[:, 2] = X[:, 1] + X[:, 2] > 0
        lams = [0.01, 0.0, 1.0]
        with caplog.at_level(logging.WARNING, logger="mcode"):
            factors = train_logistic_columns(X, Y, lams)
        assert not caplog.records
        assert isinstance(factors[1], ConstantFactor)
        monkeypatch.setattr(mcode.optim, "MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="mcode"):
            factors = train_logistic_columns(X, Y, lams)
        [record] = caplog.records
        message = record.getMessage()
        assert record.name == "mcode" and record.levelno == logging.WARNING
        assert "2 factor(s)" in message
        # the constant column 1 is named nowhere
        assert "column 1 " not in message
        for j in (0, 2):
            assert not factors[j].converged
            assert f"column {j} at lambda {lams[j]!r} (||g|| = " \
                   f"{factors[j].final_gradient_norm:.3g})" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", [
        dict(features=np.array([[np.inf]]), labels=np.array([1.0]), lam=1.0),
        dict(features=np.ones((2, 1)), labels=np.array([0.0, 0.5]), lam=1.0),
        dict(features=np.ones((2, 1)), labels=np.array([0.0, 1.0]), lam=-1.0),
        dict(features=np.ones((2, 1)), labels=np.array([0.0]), lam=1.0),
        # a bool is no penalty, in train_logistic_columns too
        dict(features=np.ones((2, 1)), labels=np.array([0.0, 1.0]), lam=True),
    ])
    def test_contract_violations(self, bad):
        with pytest.raises(DomainError):
            train_logistic(**bad)

    @pytest.mark.parametrize("labels", [
        [0.5, 1.0], [2.0, 0.0], [-1.0, 1.0], [np.nan, 1.0], [np.inf, 0.0],
    ], ids=["half", "two", "minus-one", "nan", "inf"])
    def test_labels_must_be_zeros_and_ones(self, labels):
        with pytest.raises(DomainError, match="labels must all be 0 or 1"):
            train_logistic_columns(np.ones((2, 1)), np.array(labels)[:, None],
                                   [1.0])

    def test_negative_zero_and_bool_labels_are_zeros_and_ones(self):
        X, y, lam = random_problem(6)
        expected = train_logistic(X, y, lam)
        for labels in (np.where(y == 0, -0.0, 1.0), y == 1):
            factor = train_logistic(X, labels, lam)
            assert factor.weights.tobytes() == expected.weights.tobytes()
            assert factor.intercept == expected.intercept

    @pytest.mark.parametrize("features, labels, match", [
        (np.ones(3), np.zeros((3, 1)), "features must be a 2-dimensional"),
        (np.ones((0, 2)), np.zeros((0, 1)), "at least one training instance"),
    ], ids=["features-1d", "no-rows"])
    def test_training_inputs_need_a_matrix_with_rows(self, features, labels,
                                                     match):
        with pytest.raises(DomainError, match=match):
            train_logistic_columns(features, labels, [1.0])

    def test_train_logistic_takes_one_label_vector(self):
        X, y, lam = random_problem(2)
        with pytest.raises(DomainError, match="need a label vector"):
            train_logistic(X, np.column_stack([y, 1.0 - y]), lam)

    def test_newton_rejects_a_start_whose_objective_is_not_finite(self):
        X = np.full((3, 1), 1e300)
        labels = np.array([[0.0, 1.0, 0.0]])
        with pytest.raises(NumericalError, match="not finite at the start"), \
                np.errstate(over="ignore", invalid="ignore"):
            _newton(X, labels, np.array([1.0]), np.full((1, 2), 1e300))


class TestPredict:
    def test_known_value(self):
        # rows [weights..., intercept]: the second holds the first's
        # weight in its intercept
        prob = predict_prob_stack(np.array([[1.0, 0.0], [0.0, math.log(3)]]),
                                  np.array([[math.log(3)]]))
        np.testing.assert_allclose(prob, [[0.75], [0.75]], rtol=1e-15)

    def test_clamped_to_open_interval(self):
        prob = predict_prob_stack(np.array([[100.0, 0.0]]),
                                  np.array([[50.0], [-50.0]]))
        assert prob.tolist() == [[1.0 - PROB_EPS, PROB_EPS]]

    def test_constant_factor(self):
        # a constant factor's column of rho is its prob_one, clamped, or
        # the complement of that
        model = McodeModel(INDEPENDENT, StandardizationStats(
            np.zeros(1), np.ones(1)), (ConstantFactor(prob_one=0.8),))
        rho = estimate_rho(model, Dataset(np.array([[1.0], [2.0]]),
                                          np.array([[1], [0]])))
        assert rho.values.tolist() == [[0.8], [1.0 - 0.8]]

    def test_stack_overflow_is_a_limit_unless_undefined(self):
        # terms holding both infinities give NaN; otherwise an overflowing
        # logit gives its limit whatever order the product summed it in
        features = np.array([[2.0, 2.0, 1.0], [2.0, -2.0, 0.0],
                             [1.0, 1.0, np.inf]])
        params = np.array([[1.7e308, 1.7e308, -1e308, 0.0],
                           [1e308, 1e308, -1.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            prob = mcode.optim.predict_prob_stack(params, features)
        top = 1.0 - PROB_EPS
        np.testing.assert_array_equal(prob, [[top, np.nan, PROB_EPS]] * 2)

    @settings(max_examples=300, deadline=None, database=None)
    @given(z=hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats()
                        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                           2.2e-308, -2.2e-308, 709.8, -709.8,
                                           745.5, -745.5, 1e300, -1e300,
                                           np.inf, -np.inf, np.nan])))
    def test_sigmoid_is_expit_within_four_ulp(self, z):
        # No floating-point warning for any z: pytest makes one an error.
        # Each side rounds a few times: against 200-bit values the sigmoid
        # was within 2.3 ulp and expit within 1.9 ulp on 20,000 draws, and
        # they were up to 4 ulp apart for z < 0 (within 2 for z >= 0).
        expected = expit(z)
        sigmoid = _logistic(z, np.empty(z.size), np.empty(z.size),
                            np.empty(z.size))
        # problems [0, z_b] on one instance whose feature is 1 have logit z
        params = np.zeros((z.size, 2))
        params[:, 1] = z
        prob = predict_prob_stack(params, np.ones((1, 1)))[:, 0]
        clamped = np.clip(expected, PROB_EPS, 1.0 - PROB_EPS)
        # expit forms 1 / (1 + e^-z), which is 0 once e^-z overflows, at
        # z < -709.78, where the sigmoid is still a subnormal number
        bound = np.maximum(4 * np.spacing(expected),
                           np.finfo(np.float64).smallest_normal)
        for got, want in ((sigmoid, expected), (prob, clamped)):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            number = ~np.isnan(want)
            assert (np.abs(got[number] - want[number])
                    <= bound[number]).all()

    def test_arity_mismatch(self):
        factor = LogisticFactor(lam=1.0,
                                weights=np.array([1.0, 2.0]), intercept=0.0,
                                final_gradient_norm=0.0)
        model = McodeModel(INDEPENDENT, StandardizationStats(
            np.zeros(1), np.ones(1)), (factor,))
        with pytest.raises(DomainError, match="arity"):
            estimate_rho(model, Dataset(np.array([[1.0]]), np.array([[1]])))


def fold_loop_choice(X, y, grid, n_folds, seed):
    """The penalty cross_validate_lambda should pick, from one
    train_logistic fit per grid value and fold."""
    n = X.shape[0]
    folds = np.array_split(make_rng(seed).permutation(n), n_folds)
    scores = {}
    for lam in grid:
        total = 0.0
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            factor = train_logistic(X[mask], y[mask], lam)
            if isinstance(factor, ConstantFactor):
                p = np.clip(np.full(fold.size, factor.prob_one), PROB_EPS,
                            1.0 - PROB_EPS)
            else:
                p = predict_prob_stack(
                    np.append(factor.weights, factor.intercept)[None],
                    X[fold])[0]
            rho = np.where(y[fold] == 1.0, p, 1.0 - p)
            total += float(np.log(rho).sum())
        scores[lam] = total / n
    return max(sorted(grid), key=lambda lam: (scores[lam], lam))


class TestCrossValidation:
    def test_matches_explicit_fold_loop(self):
        X, y, _ = random_problem(31, n=45, p=3)
        grid = (0.1, 10.0)
        assert cross_validate_lambda(X, y[:, None], grid, 3, 7) == \
            (fold_loop_choice(X, y, grid, 3, 7),)

    def test_pure_noise_prefers_max_shrinkage(self):
        gen = np.random.default_rng(12)
        X = gen.normal(size=(60, 3))
        y = gen.integers(0, 2, size=60).astype(float)
        chosen = cross_validate_lambda(X, y[:, None],
                                       (0.01, 0.1, 1.0, 10.0, 100.0),
                                       n_folds=5, seed=0)
        assert chosen == (100.0,)

    def test_exact_tie_goes_to_larger(self):
        # all-zero features make every candidate's fit identical
        X = np.zeros((20, 1))
        y = np.array([0.0, 1.0] * 10)
        chosen = cross_validate_lambda(X, y[:, None], (0.5, 2.0), n_folds=4,
                                       seed=1)
        assert chosen == (2.0,)

    def test_single_class_fold_falls_back(self):
        # the fold holding the only 1 leaves an all-zero training split,
        # scored as a ConstantFactor; the other fold is fit
        X = np.arange(10.0).reshape(-1, 1)
        y = np.zeros(10)
        y[0] = 1.0
        grid = (0.01, 0.1, 1.0, 10.0)
        assert cross_validate_lambda(X, y[:, None], grid, n_folds=2,
                                     seed=3) == \
            (fold_loop_choice(X, y, grid, 2, 3),)

    def test_label_matrix_matches_fold_loop_per_column(self):
        # one stack per fold for every column; column 2 holds a single 1,
        # so the fold holding it trains that column on zeros alone and the
        # other folds on both classes
        gen = np.random.default_rng(40)
        X = gen.normal(size=(45, 3))
        Y = (X @ gen.normal(size=(3, 3)) * 2.0
             + gen.normal(size=(45, 3)) > 0) * 1.0
        Y[:, 2] = 0.0
        Y[7, 2] = 1.0
        folds = np.array_split(make_rng(5).permutation(45), 3)
        # In the middle fold, so the last fold starts column 2 from its
        # solution in the first, past the fold that skipped it.
        assert 7 in folds[1]
        design = np.hstack([X, Y])
        pinned = 3 + np.arange(3)
        grid = (0.01, 0.1, 1.0, 10.0)
        chosen = cross_validate_lambda(design, Y, grid, 3, 5, pinned=pinned)
        assert chosen == tuple(
            fold_loop_choice(np.delete(design, pinned[c], axis=1), Y[:, c],
                             grid, 3, 5) for c in range(3))
        assert len(set(chosen)) > 1
        assert cross_validate_lambda(X, Y, grid, 3, 5) == tuple(
            fold_loop_choice(X, Y[:, c], grid, 3, 5) for c in range(3))

    def test_each_fold_starts_from_its_columns_last_solutions(self,
                                                              monkeypatch):
        # column 0 holds a single 1, in the middle fold, which skips that
        # column: the last fold starts it from the first fold's solutions
        gen = np.random.default_rng(40)
        X = gen.normal(size=(45, 3))
        Y = (X @ gen.normal(size=(3, 3)) * 2.0
             + gen.normal(size=(45, 3)) > 0) * 1.0
        Y[:, 0] = 0.0
        Y[7, 0] = 1.0
        stacks = []

        def spy(features, labels, lam, params, pinned=None, pairs=None):
            result = _newton(features, labels, lam, params, pinned, pairs)
            stacks.append((params.copy(), result[0]))
            return result

        monkeypatch.setattr(mcode.optim, "_newton", spy)
        cross_validate_lambda(np.hstack([X, Y]), Y, (0.1, 1.0, 10.0), 3, 5,
                              pinned=3 + np.arange(3))
        # problem j * len(solved) + s fits grid value j to column solved[s]
        (start0, end0), (start1, end1), (start2, _) = stacks
        assert (start0 == 0.0).all()
        end0 = end0.reshape(3, 3, -1)
        np.testing.assert_array_equal(start1,
                                      end0[:, 1:].reshape(6, -1))
        np.testing.assert_array_equal(start2, np.concatenate(
            [end0[:, :1], end1.reshape(3, 2, -1)], axis=1).reshape(9, -1))

    def test_fold_problems_above_tolerance_are_logged(self, monkeypatch,
                                                       caplog, capsys):
        X, Y = random_problem(5, n=45, p=3)[0], np.zeros((45, 2))
        Y[:, 0] = X[:, 0] > 0
        Y[:, 1] = X[:, 1] + X[:, 2] > 0
        grid = (0.01, 1.0)
        with caplog.at_level(logging.WARNING, logger="mcode"):
            cross_validate_lambda(X, Y, grid, 3, 2)
        assert not caplog.records
        monkeypatch.setattr(mcode.optim, "MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="mcode"):
            cross_validate_lambda(X, Y, grid, 3, 2)
        [record] = caplog.records
        message = record.getMessage()
        assert record.name == "mcode" and record.levelno == logging.WARNING
        assert "12 fold problem(s)" in message
        for column in (0, 1):
            for lam in grid:
                for fold in range(3):
                    assert f"column {column} at lambda {lam!r} in fold " \
                           f"{fold} " in message
        assert capsys.readouterr().out == ""

    def test_deterministic_given_seed(self):
        X, y, _ = random_problem(9, n=50, p=2)
        grid = (0.01, 1.0, 100.0)
        Y = np.column_stack([y, 1.0 - y])
        assert cross_validate_lambda(X, Y, grid, 5, seed=4) == \
            cross_validate_lambda(X, Y, grid, 5, seed=4)

    def test_label_vector_is_rejected(self):
        X, y, _ = random_problem(2)
        with pytest.raises(DomainError, match="2-dimensional"):
            cross_validate_lambda(X, y, (1.0,), 5, 0)

    def test_config_errors(self):
        X, y, _ = random_problem(2)
        y = y[:, None]
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (), 5, 0)
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (1.0,), 1, 0)
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (1.0,), True, 0)
        # a NumPy integer counts as an integer, as make_rng's seed does
        assert cross_validate_lambda(X, y, (0.5, 2.0), np.int64(3), 0) == \
            cross_validate_lambda(X, y, (0.5, 2.0), 3, 0)
        with pytest.raises(ConfigError):
            cross_validate_lambda(X, y, (1.0,), X.shape[0] + 1, 0)
        for grid in ((-1.0, 1.0), (1.0, np.nan), (1.0, True), ("1.0",)):
            with pytest.raises(ConfigError):
                cross_validate_lambda(X, y, grid, 5, 0)
