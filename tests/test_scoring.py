import math

import numpy as np
import pytest

from mcode import (DataError, DomainError, LocalWeightMatrix, NeighborIndex,
                   PROB_EPS, RhoMatrix, ScoreVector, WeightVector,
                   brier_per_dimension, global_weights, local_weights,
                   rank_descending, score_lrw, score_prod, score_rw)
from mcode.scoring import load_score_table, write_score_table

import oracles


def random_rho(seed, n=30, d=4, low=0.02, high=0.98):
    gen = np.random.default_rng(seed)
    return RhoMatrix(gen.uniform(low, high, size=(n, d)))


class TestNeighborIndex:
    def test_line_with_tie(self):
        index = NeighborIndex(np.array([[0.0], [1.0], [2.0], [3.0]]))
        # distance ties (0 and 2 are both at distance 1 from row 1)
        # resolve to the smaller index
        assert index.query_all(2)[1].tolist() == [1, 0]

    def test_duplicates_come_first(self):
        pts = np.array([[5.0, 5.0], [0.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        neighbors = NeighborIndex(pts).query_all(3)
        assert neighbors[0].tolist() == [0, 2, 3]
        assert neighbors[2].tolist() == [0, 2, 3]

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_matches_brute_force(self, k):
        gen = np.random.default_rng(100 + k)
        pts = gen.normal(size=(50, 3))
        all_neighbors = NeighborIndex(pts).query_all(k)
        for i in range(50):
            expected = oracles.brute_knn(pts.tolist(), pts[i].tolist(), k)
            assert all_neighbors[i].tolist() == expected

    def test_k_bounds(self):
        index = NeighborIndex(np.zeros((4, 2)))
        with pytest.raises(DomainError):
            index.query_all(5)
        with pytest.raises(DomainError):
            index.query_all(0)
        assert index.query_all(4)[0].tolist() == [0, 1, 2, 3]

    def test_input_validation(self):
        with pytest.raises(DomainError):
            NeighborIndex(np.array([[np.nan]]))
        with pytest.raises(DomainError):
            NeighborIndex(np.zeros(3))
        with pytest.raises(DomainError):
            NeighborIndex(np.zeros((0, 2)))


class TestGlobalWeights:
    def test_known_value(self):
        rho = RhoMatrix(np.array([[0.8], [0.6], [0.4]]))
        w = global_weights(rho)
        # errors 0.2, 0.4, 0.6 average to 0.4, weight is its reciprocal
        assert w.w[0] == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds(self, seed):
        w = global_weights(random_rho(seed)).w
        assert (w >= 1.0).all()
        assert (w <= 1.0 / PROB_EPS).all()

    def test_matches_loop_oracle(self):
        rho = random_rho(77, n=12, d=3)
        w = global_weights(rho).w
        expected = oracles.oracle_global_weights(rho.values.tolist())
        np.testing.assert_allclose(w, expected, rtol=1e-12)


class TestLocalWeights:
    def test_k_equal_n_reproduces_global_exactly(self):
        rho = random_rho(5, n=25, d=3)
        gen = np.random.default_rng(6)
        index = NeighborIndex(gen.normal(size=(25, 2)))
        local = local_weights(rho, index, k=25)
        glob = global_weights(rho)
        for row in local.w:
            assert np.array_equal(row, glob.w)

    def test_k_one_is_self_only(self):
        rho = random_rho(8, n=10, d=2)
        gen = np.random.default_rng(9)
        index = NeighborIndex(gen.normal(size=(10, 3)))
        local = local_weights(rho, index, k=1)
        np.testing.assert_allclose(local.w, 1.0 / (1.0 - rho.values),
                                   rtol=1e-15)

    def test_matches_brute_force(self):
        rho = random_rho(10, n=40, d=3)
        gen = np.random.default_rng(11)
        pts = gen.normal(size=(40, 2))
        index = NeighborIndex(pts)
        local = local_weights(rho, index, k=7)
        expected = oracles.oracle_local_weights(
            rho.values.tolist(), pts.tolist(), 7)
        np.testing.assert_allclose(local.w, expected, rtol=1e-12)
        assert local.k == 7

    def test_size_mismatch(self):
        rho = random_rho(1, n=10)
        index = NeighborIndex(np.zeros((9, 2)))
        with pytest.raises(DomainError):
            local_weights(rho, index, k=3)


class TestScores:
    def test_prod_known_value(self):
        rho = RhoMatrix(np.array([[0.5, 0.5]]))
        assert score_prod(rho).scores[0] == pytest.approx(2 * math.log(2),
                                                          rel=1e-15)

    def test_rw_known_value(self):
        rho = RhoMatrix(np.array([[0.5, 0.5]]))
        sv = score_rw(rho, WeightVector(np.array([2.0, 1.0])))
        assert sv.scores[0] == pytest.approx(3 * math.log(2), rel=1e-15)

    def test_unit_weights_reduce_to_prod_bitwise(self):
        rho = random_rho(21)
        prod = score_prod(rho)
        rw = score_rw(rho, WeightVector(np.ones(rho.d)))
        assert np.array_equal(prod.scores, rw.scores)
        assert prod.method == "PROD" and rw.method == "RW"

    def test_lrw_all_unit_weights_reduces_to_prod(self):
        rho = random_rho(24, n=15, d=4)
        lrw = score_lrw(rho, LocalWeightMatrix(np.ones((15, 4)), k=3))
        assert np.array_equal(lrw.scores, score_prod(rho).scores)

    def test_lrw_with_full_neighborhood_equals_rw(self):
        rho = random_rho(22, n=20, d=4)
        gen = np.random.default_rng(23)
        index = NeighborIndex(gen.normal(size=(20, 3)))
        lrw = score_lrw(rho, local_weights(rho, index, k=20))
        rw = score_rw(rho, global_weights(rho))
        assert np.array_equal(lrw.scores, rw.scores)

    def test_lrw_matches_end_to_end_oracle(self):
        rho = random_rho(30, n=35, d=3)
        gen = np.random.default_rng(31)
        pts = gen.normal(size=(35, 2))
        lrw = score_lrw(rho, local_weights(rho, NeighborIndex(pts), 6))
        w_oracle = oracles.oracle_local_weights(
            rho.values.tolist(), pts.tolist(), 6)
        for i in range(35):
            expected = oracles.oracle_score(rho.values[i], w_oracle[i])
            assert lrw.scores[i] == pytest.approx(expected, rel=1e-12)

    def test_lower_rho_scores_higher(self):
        values = np.full((3, 3), 0.8)
        base = score_prod(RhoMatrix(values)).scores
        values2 = values.copy()
        values2[1, 2] = 0.3
        bumped = score_prod(RhoMatrix(values2)).scores
        assert bumped[1] > base[1]
        assert bumped[0] == base[0]
        w = WeightVector(np.array([1.0, 2.0, 3.0]))
        assert score_rw(RhoMatrix(values2), w).scores[1] > \
            score_rw(RhoMatrix(values), w).scores[1]

    def test_scores_nonnegative_finite(self):
        rho = random_rho(40, low=PROB_EPS, high=1.0 - PROB_EPS)
        for sv in (score_prod(rho),
                   score_rw(rho, global_weights(rho))):
            assert np.isfinite(sv.scores).all()
            assert (sv.scores >= 0.0).all()

    def test_doubling_weights_doubles_scores(self):
        rho = random_rho(41)
        w = global_weights(rho)
        base = score_rw(rho, w).scores
        doubled = score_rw(rho, WeightVector(2.0 * w.w)).scores
        assert np.array_equal(doubled, 2.0 * base)
        assert rank_descending(doubled).tolist() == \
            rank_descending(base).tolist()

    def test_shape_mismatches(self):
        rho = random_rho(2, n=5, d=3)
        with pytest.raises(DomainError):
            score_rw(rho, WeightVector(np.ones(2)))
        with pytest.raises(DomainError):
            score_lrw(rho, LocalWeightMatrix(np.ones((4, 3)), k=2))


class TestBrier:
    def test_known_value(self):
        rho = RhoMatrix(np.array([[0.9], [0.7]]))
        assert brier_per_dimension(rho)[0] == pytest.approx(0.05, rel=1e-15)

    def test_matches_formula(self):
        rho = random_rho(50, n=20, d=5)
        expected = ((1 - rho.values) ** 2).sum(axis=0) / 20
        np.testing.assert_allclose(brier_per_dimension(rho), expected,
                                   rtol=1e-14)
        assert ((brier_per_dimension(rho) >= 0)
                & (brier_per_dimension(rho) <= 1)).all()


class TestRankingAndTables:
    def test_rank_ties_by_index(self):
        assert rank_descending(np.array([3.0, 1.0, 3.0])).tolist() == [0, 2, 1]

    def test_score_table_round_trip(self, tmp_path):
        gen = np.random.default_rng(60)
        sv = ScoreVector(scores=gen.uniform(0, 50, size=17), method="RW")
        path = tmp_path / "scores.csv"
        write_score_table(path, sv, comments=("mcode test", "seed=1"))
        scores, method = load_score_table(path)
        assert method == "RW"
        assert np.array_equal(scores, sv.scores)
        body = [line for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        assert body[0] == "instance_index,method,score"
        values = [float(line.split(",")[2]) for line in body[1:]]
        assert values == sorted(values, reverse=True)

    def test_table_must_cover_all_instances(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("instance_index,method,score\n0,RW,1.0\n2,RW,0.5\n")
        with pytest.raises(DataError):
            load_score_table(path)

    def test_table_rejects_mixed_methods(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "instance_index,method,score\n0,RW,1.0\n1,PROD,0.5\n")
        with pytest.raises(DataError):
            load_score_table(path)
