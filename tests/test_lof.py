import dataclasses

import numpy as np
import pytest

from mcode import ConfigError, DomainError, LofConfig, lof_scores

import oracles
from conftest import grid_with_duplicates, mixed_ties, tie_pattern, traced_peak


class TestKnownGeometries:
    def test_unit_square_corners(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        scores = lof_scores(pts, LofConfig(k=2)).scores
        # fully symmetric configuration: nobody is more outlying than
        # anybody else
        np.testing.assert_allclose(scores, 1.0, atol=1e-12)

    def test_duplicate_cluster_stays_calm(self):
        gen = np.random.default_rng(3)
        cluster = np.zeros((10, 2))
        stragglers = gen.uniform(50, 60, size=(5, 2))
        pts = np.vstack([cluster, stragglers])
        scores = lof_scores(pts, LofConfig(k=3)).scores
        np.testing.assert_allclose(scores[:10], 1.0, atol=1e-9)
        assert np.isfinite(scores).all()

    def test_isolated_point_scores_high(self):
        gen = np.random.default_rng(4)
        pts = np.vstack([gen.normal(size=(30, 2)), [[25.0, 25.0]]])
        scores = lof_scores(pts, LofConfig(k=5)).scores
        assert scores[-1] > 2.0
        assert scores[-1] == scores.max()


class TestAgainstOracle:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_random_points(self, k):
        gen = np.random.default_rng(200 + k)
        pts = np.vstack([gen.normal(size=(50, 2)),
                         gen.normal(size=(10, 2)) * 4 + 8])
        scores = lof_scores(pts, LofConfig(k=k)).scores
        expected = oracles.oracle_lof(pts.tolist(), k)
        np.testing.assert_allclose(scores, expected, rtol=1e-9)

    def test_tied_distances_on_grid(self):
        # integer grid points produce many exact distance ties, so
        # neighborhoods routinely exceed k members
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        scores = lof_scores(pts, LofConfig(k=3)).scores
        expected = oracles.oracle_lof(pts.tolist(), 3)
        np.testing.assert_allclose(scores, expected, rtol=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_grid_with_duplicates(self, k):
        # repeated points: zero k-distances and floored reach distances
        pts = grid_with_duplicates(300 + k)
        scores = lof_scores(pts, LofConfig(k=k)).scores
        expected = oracles.oracle_lof(pts.tolist(), k)
        np.testing.assert_allclose(scores, expected, rtol=1e-9)


@pytest.mark.usefixtures("small_blocks")
class TestAgainstOracleInBlocks(TestAgainstOracle):
    """Every TestAgainstOracle case again, in blocks of one or a few rows."""


@pytest.mark.parametrize("k", [1, 3, 17])
def test_mixed_tie_blocks_match_oracle(k):
    pts = mixed_ties(k)
    blocks = tie_pattern(pts, k, exclude_self=True)
    assert all(tied.any() and not tied.all() for tied in blocks)
    assert np.concatenate(blocks).tolist() == \
        oracles.ties_across_cut(pts.tolist(), k, exclude_self=True)
    scores = lof_scores(pts, LofConfig(k=k)).scores
    expected = oracles.oracle_lof(pts.tolist(), k)
    np.testing.assert_allclose(scores, expected, rtol=1e-9)


def test_holds_no_n_by_n_matrix():
    # a quarter of one N x N float64 matrix at N = 3000, about 17 MiB
    pts = np.random.default_rng(5).normal(size=(3000, 5))
    assert traced_peak(lambda: lof_scores(pts, LofConfig(k=10))) < \
        3000 * 3000 * 8 // 4


def test_holds_its_neighbor_runs_once():
    # The (point, neighbor, distance) runs, 24 bytes a pair, are 9.2 MiB
    # here; holding the per-block pieces beside their concatenation
    # raised the peak from about 2.6 to 3.6 times that.
    n, k = 4000, 100
    pts = np.random.default_rng(7).normal(size=(n, 5))
    assert traced_peak(lambda: lof_scores(pts, LofConfig(k=k))) < \
        3 * 24 * n * k


def test_peak_is_a_few_n_by_k_arrays():
    # The neighbour lists, the reach distances formed in place, and one
    # gather: three N x k arrays beside the walk's block buffers. Fresh
    # runs, their concatenation and the reach temporaries put it at
    # about seven.
    n, k = 4000, 100
    pts = np.random.default_rng(7).normal(size=(n, 5))
    assert traced_peak(lambda: lof_scores(pts, LofConfig(k=k))) < \
        4 * 8 * n * k


class TestProperties:
    def test_median_near_one_on_uniform_data(self):
        gen = np.random.default_rng(77)
        pts = gen.uniform(size=(1000, 2))
        scores = lof_scores(pts, LofConfig(k=10)).scores
        assert 0.9 <= np.median(scores) <= 1.2

    def test_rigid_motion_invariance(self):
        gen = np.random.default_rng(13)
        pts = gen.normal(size=(60, 3))
        q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
        moved = pts @ q.T + np.array([5.0, -3.0, 11.0])
        a = lof_scores(pts, LofConfig(k=6)).scores
        b = lof_scores(moved, LofConfig(k=6)).scores
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_returns_scores_alone(self):
        pts = np.random.default_rng(1).normal(size=(10, 2))
        result = lof_scores(pts, LofConfig(k=2))
        assert [f.name for f in dataclasses.fields(result)] == ["scores"]
        assert result.scores.shape == (10,)


class TestValidation:
    def test_k_out_of_range(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ConfigError):
            lof_scores(pts, LofConfig(k=5))
        with pytest.raises(ConfigError):
            lof_scores(pts, LofConfig(k=0))
        with pytest.raises(ConfigError):
            lof_scores(pts, LofConfig(k=True))
        assert lof_scores(pts, LofConfig(k=np.int64(2))).scores.tolist() == \
            lof_scores(pts, LofConfig(k=2)).scores.tolist()

    def test_bad_points(self):
        with pytest.raises(DomainError):
            lof_scores(np.array([[np.inf, 0.0], [0.0, 0.0]]), LofConfig(k=1))
        with pytest.raises(DomainError):
            lof_scores(np.zeros((1, 2)), LofConfig(k=1))
