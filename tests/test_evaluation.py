import math

import numpy as np
import pytest

from mcode import (ConfigError, CvLambda, Dataset, DomainError, FixedLambda,
                   ScoreVector, atpar, inject_outliers, run_experiment, tpar,
                   tpar_curve)
from mcode.evaluation import check_experiment
from mcode.scoring import rank_descending

import oracles
from conftest import make_coupled_dataset


def ranking_scores(n, ranked_first):
    """Scores that place the given rows at the top, in order."""
    scores = np.linspace(1.0, 0.0, n, endpoint=False)
    out = np.zeros(n)
    rest = [i for i in range(n) if i not in ranked_first]
    for rank, row in enumerate(list(ranked_first) + rest):
        out[row] = scores[rank]
    return ScoreVector(scores=out)


class TestTpar:
    def test_known_ranking(self):
        sv = ranking_scores(10, [4, 7])
        assert tpar(sv, {4, 7}, 0.2) == 1.0
        assert tpar(sv, {4, 7}, 0.5) == pytest.approx(2 / 5)
        assert tpar(sv, {4}, 0.2) == 0.5

    def test_alert_count_rounding(self):
        sv = ranking_scores(2417, [0])
        # 1% of 2417 rows rounds to 24 alerts
        assert tpar(sv, {0}, 0.01) == pytest.approx(1 / 24)

    def test_minimum_one_alert(self):
        sv = ranking_scores(50, [3])
        assert tpar(sv, {3}, 0.0001) == 1.0

    def test_full_rate_equals_contamination(self):
        sv = ranking_scores(40, [1, 2, 3])
        assert tpar(sv, {1, 2, 3}, 1.0) == pytest.approx(3 / 40)

    def test_ties_break_by_index(self):
        sv = ScoreVector(scores=np.zeros(6))
        assert tpar(sv, {0}, 1 / 6) == 1.0
        assert tpar(sv, {5}, 1 / 6) == 0.0

    def test_validation(self):
        sv = ranking_scores(10, [0])
        with pytest.raises(DomainError):
            tpar(sv, set(), 0.5)
        with pytest.raises(DomainError):
            tpar(sv, {10}, 0.5)
        with pytest.raises(DomainError):
            tpar(sv, {0}, 0.0)
        with pytest.raises(DomainError):
            tpar(sv, {0}, 1.01)
        with pytest.raises(DomainError):
            atpar(sv, {0}, True)

    @pytest.mark.parametrize("truth, named", [
        (np.array([False, False, True, False]), "False"),
        ({1.7}, "1.7"),
        ("12", "'1'")], ids=["mask", "float", "string"])
    @pytest.mark.parametrize("measure", ["atpar", "tpar", "tpar_curve"])
    def test_truth_is_integer_rows(self, measure, truth, named):
        # a boolean mask is not rows 0 and 1, 1.7 is not row 1 and the
        # string "12" not rows 1 and 2: truth holds integer row indices
        sv = ScoreVector(np.array([3.0, 2.0, 1.0, 0.5]))
        call = {"atpar": lambda t: atpar(sv, t, upper=0.5),
                "tpar": lambda t: tpar(sv, t, 0.5),
                "tpar_curve": lambda t: tpar_curve(sv, t)}[measure]
        with pytest.raises(DomainError, match=f"integers, got .*{named}"):
            call(truth)
        call([2])


class TestAtpar:
    def test_enumeration_oracle(self):
        # outliers at ranks 1-5 and 96-100 of 1000; averaging TPAR over
        # alert counts 1..10 only ever sees the first five
        outliers = list(range(5)) + list(range(95, 100))
        ranked = list(range(1000))
        sv = ranking_scores(1000, ranked)  # identity ranking
        truth = set(outliers)
        value = atpar(sv, truth, upper=0.01)
        expected = oracles.oracle_atpar(sv.scores.tolist(), truth, 10)
        assert value == pytest.approx(expected, abs=1e-12)
        by_hand = np.mean([min(a, 5) / a for a in range(1, 11)])
        assert value == pytest.approx(by_hand, abs=1e-12)

    def test_against_oracle_random(self):
        gen = np.random.default_rng(5)
        for _ in range(5):
            scores = gen.uniform(size=120)
            truth = set(gen.choice(120, size=6, replace=False).tolist())
            sv = ScoreVector(scores=scores)
            a_max = max(1, round(0.05 * 120))
            assert atpar(sv, truth, 0.05) == pytest.approx(
                oracles.oracle_atpar(scores.tolist(), truth, a_max),
                abs=1e-12)

    def test_single_alert_budget(self):
        sv = ranking_scores(100, [7, 3])
        assert atpar(sv, {7, 3}, upper=0.005) == tpar(sv, {7, 3}, 1 / 100)

    def test_invariant_under_monotone_transforms(self):
        gen = np.random.default_rng(6)
        scores = gen.uniform(1, 5, size=80)
        truth = {4, 17, 33}
        base = atpar(ScoreVector(scores), truth)
        shifted = atpar(ScoreVector(3 * scores + 10), truth)
        curved = atpar(ScoreVector(np.exp(scores)), truth)
        assert base == shifted == curved

    def test_perfect_ranking_scores_one(self):
        sv = ranking_scores(200, [9, 42])
        assert atpar(sv, {9, 42}, upper=0.01) == 1.0


class TestTparCurve:
    def test_default_grid(self):
        sv = ranking_scores(500, [0])
        rates, values = tpar_curve(sv, {0})
        assert rates.shape[0] == 20  # counts 1..round(0.04*500)
        assert (np.diff(rates) > 0).all()
        assert values[0] == 1.0
        assert ((values >= 0) & (values <= 1)).all()

    def test_matches_tpar_pointwise(self):
        gen = np.random.default_rng(11)
        for n in (1, 24, 100, 2417):
            sv = ScoreVector(gen.integers(0, 5, size=n).astype(float))
            truth = set(gen.choice(n, size=max(1, n // 20),
                                   replace=False).tolist())
            rates, values = tpar_curve(sv, truth)
            assert rates.shape[0] == max(1, round(0.04 * n))
            for a, (rate, value) in enumerate(zip(rates, values), start=1):
                assert rate == a / n
                assert value == tpar(sv, truth, rate)


class TestRunExperiment:
    def test_seed_derivation_matches_direct_injection(self):
        ds = make_coupled_dataset(n=80, m=3, d=3, seed=1)
        captured = []
        values = run_experiment(
            ds, ["iprod"], ratio=0.05, dim_fraction=0.34, repeats=3,
            seed=11, lambda_policy=FixedLambda(1.0), k_lof=10, k_lrw=10,
            upper=0.05, on_repeat=lambda *args: captured.append(args))
        assert [r for r, *_ in captured] == [0, 1, 2]
        for r, log, scored, atpars in captured:
            _, expected = inject_outliers(ds, 0.05, 0.34, seed=11 + r)
            assert log == expected
            # the ATPAR handed to on_repeat is the one returned, of the
            # repeat's own scores
            assert atpars == {"iprod": values["iprod"][r]}
            assert atpars["iprod"] == atpar(scored["iprod"],
                                            log.outlier_rows, 0.05)

    def test_deterministic_and_ordered(self):
        ds = make_coupled_dataset(n=70, m=3, d=3, seed=2)
        kwargs = dict(ratio=0.05, dim_fraction=0.34, repeats=2, seed=5,
                      lambda_policy=FixedLambda(1.0), k_lof=10, k_lrw=10,
                      upper=0.05)
        first = run_experiment(ds, ["mrw", "lof"], **kwargs)
        second = run_experiment(ds, ["mrw", "lof"], **kwargs)
        assert list(first) == ["mrw", "lof"]
        assert first == second
        assert all(len(values) == 2 for values in first.values())
        assert all(0.0 <= v <= 1.0 for values in first.values()
                   for v in values)

    def test_strong_signal_detected(self):
        # blatant coupled outliers should be found by the conditional model
        ds = make_coupled_dataset(n=150, m=4, d=3, seed=3)
        reports = run_experiment(
            ds, ["mprod"], ratio=0.03, dim_fraction=0.34, repeats=2, seed=1,
            lambda_policy=FixedLambda(1.0), k_lof=10, k_lrw=10, upper=0.03)
        assert np.mean(reports["mprod"]) > 0.5

    def test_method_validation(self):
        ds = make_coupled_dataset(n=40, m=3, d=3, seed=4)
        with pytest.raises(ConfigError, match="zscore"):
            run_experiment(ds, ["zscore"], 0.1, 0.34, repeats=1, seed=0)
        with pytest.raises(ConfigError):
            run_experiment(ds, [], 0.1, 0.34, repeats=1, seed=0)
        narrow = Dataset(ds.X, ds.Y[:, :1])
        with pytest.raises(ConfigError, match="mrw"):
            run_experiment(narrow, ["mrw"], 0.1, 1.0, repeats=1, seed=0)

    def test_single_output_dimension_baselines(self):
        ds = make_coupled_dataset(n=60, m=3, d=1, seed=5, coupling=False)
        reports = run_experiment(
            ds, ["iprod", "lof"], ratio=0.05, dim_fraction=1.0, repeats=1,
            seed=2, lambda_policy=FixedLambda(1.0), k_lof=8, k_lrw=8,
            upper=0.05)
        assert set(reports) == {"iprod", "lof"}

    def test_k_validation(self):
        ds = make_coupled_dataset(n=30, m=3, d=2, seed=6)
        with pytest.raises(ConfigError):
            run_experiment(ds, ["mlrw"], 0.1, 0.5, repeats=1, seed=0,
                           lambda_policy=FixedLambda(1.0), k_lrw=31)
        with pytest.raises(ConfigError):
            run_experiment(ds, ["lof"], 0.1, 0.5, repeats=1, seed=0,
                           k_lof=30)
        # rejected before any fit, as the bounds are
        for bad in (0, True, 2.0):
            with pytest.raises(ConfigError):
                run_experiment(ds, ["mlrw"], 0.1, 0.5, repeats=1, seed=0,
                               lambda_policy=FixedLambda(1.0), k_lrw=bad)
            with pytest.raises(ConfigError):
                run_experiment(ds, ["lof"], 0.1, 0.5, repeats=1, seed=0,
                               k_lof=bad)

    def test_repeats_validation(self):
        ds = make_coupled_dataset(n=30, m=3, d=2, seed=7)
        with pytest.raises(ConfigError):
            run_experiment(ds, ["iprod"], 0.1, 0.5, repeats=0, seed=0)
        with pytest.raises(ConfigError):
            run_experiment(ds, ["iprod"], 0.1, 0.5, repeats=True, seed=0)
        # a NumPy integer counts, as make_rng's seed does, and so do
        # CvLambda's folds
        runs = [run_experiment(ds, ["iprod"], 0.1, 0.5, repeats=repeats,
                               seed=0, lambda_policy=CvLambda(folds=folds))
                for repeats, folds in [(2, 3), (np.int64(2), np.int64(3))]]
        assert runs[0] == runs[1]

    def test_policy_validation(self, monkeypatch):
        # a policy run_experiment cannot carry out is a ConfigError from
        # check_experiment, before any fit
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_mcode reached")

        monkeypatch.setattr("mcode.evaluation.fit_mcode", no_fit)
        ds = make_coupled_dataset(n=30, m=3, d=2, seed=9)
        for bad in (FixedLambda(-1.0), FixedLambda(float("nan")),
                    FixedLambda("x"), FixedLambda(True),
                    CvLambda(grid=(-1.0,)), CvLambda(grid=()),
                    CvLambda(grid=("1.0",)), CvLambda(folds=1),
                    CvLambda(folds=True), CvLambda(folds=2.0),
                    CvLambda(folds="3"), CvLambda(seed=-1),
                    CvLambda(seed="s"), CvLambda(seed=True), 0.5):
            with pytest.raises(ConfigError):
                check_experiment(ds, ["mprod"], 1, 10, 10, bad)
            with pytest.raises(ConfigError):
                run_experiment(ds, ["mprod"], 0.1, 0.5, repeats=1, seed=0,
                               lambda_policy=bad)

    @pytest.mark.parametrize("upper", [0, 2.0, math.nan, True])
    def test_upper_checked_before_any_fit(self, monkeypatch, upper):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_mcode reached")

        monkeypatch.setattr("mcode.evaluation.fit_mcode", no_fit)
        ds = make_coupled_dataset(n=30, m=3, d=2, seed=9)
        with pytest.raises(DomainError):
            run_experiment(ds, ["mprod"], 0.1, 0.5, repeats=1, seed=0,
                           lambda_policy=FixedLambda(1.0), upper=upper)

    def test_fit_on_original_flag(self):
        ds = make_coupled_dataset(n=80, m=3, d=3, seed=8)
        reports = run_experiment(
            ds, ["mrw"], ratio=0.05, dim_fraction=0.34, repeats=1, seed=3,
            lambda_policy=FixedLambda(1.0), k_lof=10, k_lrw=10,
            fit_on_original=True, upper=0.05)
        assert 0.0 <= reports["mrw"][0] <= 1.0

    def test_constant_rho_collapses_prod_and_rw(self, monkeypatch):
        # with every estimate identical the reliability weights carry no
        # information, so the weighted and unweighted rankings coincide
        from mcode.model import RhoMatrix

        def flat_rho(model, ds):
            return RhoMatrix(np.full((ds.n, ds.d), 0.7))

        monkeypatch.setattr("mcode.evaluation.estimate_rho", flat_rho)
        ds = make_coupled_dataset(n=60, m=3, d=3, seed=12)
        reports = run_experiment(
            ds, ["mprod", "mrw"], ratio=0.05, dim_fraction=0.34, repeats=2,
            seed=6, lambda_policy=FixedLambda(1.0), upper=0.05)
        assert reports["mprod"] == reports["mrw"]
