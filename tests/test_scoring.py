import math
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

import mcode.scoring
from mcode import (DataError, DomainError, LocalWeightMatrix, LofConfig,
                   NeighborIndex, PROB_EPS, RhoMatrix, ScoreVector,
                   global_weights, local_weights, lof_scores,
                   rank_descending, score_lrw, score_prod, score_rw)
from mcode.scoring import load_score_table, write_score_table

import oracles
from synthdata import make_benchmark_dataset
from conftest import (grid_with_duplicates, mixed_ties, run_python,
                      tie_pattern, traced_peak)


def random_rho(seed, n=30, d=4, low=0.02, high=0.98):
    gen = np.random.default_rng(seed)
    return RhoMatrix(gen.uniform(low, high, size=(n, d)))


def wide_rho(seed, n, d):
    """A rho whose errors, 1 - rho, span 1e-12 to 1: half spread over every
    power of ten from 1e-12, half in [0.5, 1), so that sums pass 1, where
    these multiples of 2^-53 start to round. Summed pairwise, or in any
    order but ascending index, they round differently."""
    gen = np.random.default_rng(seed)
    tiny = 10.0 ** gen.uniform(-12, 0, (n, d))
    errors = np.where(gen.random((n, d)) < 0.5, tiny,
                      gen.uniform(0.5, 1, (n, d)))
    return RhoMatrix(np.clip(1.0 - errors, PROB_EPS, 1.0 - PROB_EPS))


class TestNeighborIndex:
    def test_line_with_tie(self):
        index = NeighborIndex(np.array([[0.0], [1.0], [2.0], [3.0]]))
        # distance ties (0 and 2 are both at distance 1 from row 1)
        # resolve to the smaller index; lists are in index order
        assert index.query_all(2)[1].tolist() == [0, 1]

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
            assert all_neighbors[i].tolist() == sorted(expected)

    @pytest.mark.parametrize("k", [1, 3, 17, 40])
    def test_grid_duplicates_match_brute_force(self, k):
        pts = grid_with_duplicates(k)
        all_neighbors = NeighborIndex(pts).query_all(k)
        for i in range(len(pts)):
            expected = oracles.brute_knn(pts.tolist(), pts[i].tolist(), k)
            assert all_neighbors[i].tolist() == sorted(expected)

    def test_k_bounds(self):
        index = NeighborIndex(np.zeros((4, 2)))
        with pytest.raises(DomainError):
            index.query_all(5)
        with pytest.raises(DomainError):
            index.query_all(0)
        with pytest.raises(DomainError):
            index.query_all(True)
        assert index.query_all(np.int64(2)).tolist() == \
            index.query_all(2).tolist()
        assert index.query_all(4)[0].tolist() == [0, 1, 2, 3]

    def test_input_validation(self):
        with pytest.raises(DomainError):
            NeighborIndex(np.array([[np.nan]]))
        with pytest.raises(DomainError):
            NeighborIndex(np.zeros(3))
        with pytest.raises(DomainError):
            NeighborIndex(np.zeros((0, 2)))


@pytest.mark.usefixtures("small_blocks")
class TestNeighborIndexInBlocks(TestNeighborIndex):
    """Every TestNeighborIndex case again, in blocks of one or a few rows."""


@pytest.mark.parametrize("k", [1, 3, 17])
def test_mixed_tie_blocks_match_brute_force(k):
    pts = mixed_ties(k)
    blocks = tie_pattern(pts, k)
    assert all(tied.any() and not tied.all() for tied in blocks)
    assert np.concatenate(blocks).tolist() == \
        oracles.ties_across_cut(pts.tolist(), k)
    all_neighbors = NeighborIndex(pts).query_all(k)
    for i in range(len(pts)):
        expected = oracles.brute_knn(pts.tolist(), pts[i].tolist(), k)
        assert all_neighbors[i].tolist() == sorted(expected)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("points", [mixed_ties, grid_with_duplicates])
@pytest.mark.parametrize("k", [1, 3, 17])
def test_walk_hands_every_row_its_lowest_index_list(points, k, exclude_self):
    # tied or not, each row's cols are its k nearest by the lowest-index
    # rule: the first k of a stable argsort of cdist's exact distances,
    # in ascending index order
    pts = points(k)
    dist = cdist(pts, pts)
    if exclude_self:
        np.fill_diagonal(dist, np.inf)
    expected = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :k], axis=1)
    walked = NeighborIndex(pts)._walk(k, lambda *block: block, exclude_self)
    assert any(tied.any() for *_, tied in walked)
    for rows, _, _, cols, *_ in walked:
        assert cols.tolist() == expected[rows].tolist()


def assert_walks_match_oracles(pts, k):
    """query_all(k) and LOF with k - 1, which cut after the same point
    when each point is its own unique nearest, and the tie flags of both
    walks, against the brute-force oracles."""
    listed = pts.tolist()
    assert np.concatenate(tie_pattern(pts, k)).tolist() == \
        oracles.ties_across_cut(listed, k)
    all_neighbors = NeighborIndex(pts).query_all(k)
    for i, row in enumerate(listed):
        assert all_neighbors[i].tolist() == \
            sorted(oracles.brute_knn(listed, row, k))
    if k > 1:
        assert np.concatenate(
            tie_pattern(pts, k - 1, exclude_self=True)).tolist() == \
            oracles.ties_across_cut(listed, k - 1, exclude_self=True)
        np.testing.assert_allclose(
            lof_scores(pts, LofConfig(k=k - 1)).scores,
            oracles.oracle_lof(listed, k - 1), rtol=1e-9)


def one_ulp_clusters(k, count=20, seed=0):
    """count clusters in 3-D, each a centre followed by points at distance
    0.05, 0.10, ... from it, then two at 0.75 and one ulp more, then 0.9
    and 0.95: the centre's k-th and (k+1)-th points, itself counted, lie
    one ulp apart. The pairs point in random directions, so the screen's
    rounding falls either way across the cut."""
    def distance(a, b):
        return cdist(a[None], b[None])[0, 0]

    def around(centre, radius):
        step = gen.normal(size=3)
        return centre + radius * step / np.linalg.norm(step)

    gen = np.random.default_rng(seed)
    clusters = []
    for _ in range(count):
        centre = gen.normal(size=3) * 20
        ring = [around(centre, r) for r in np.arange(1, k - 1) * 0.05]
        ring.append(around(centre, 0.75))
        target = np.nextafter(distance(centre, ring[-1]), np.inf)
        # directions until the rounding lands exactly one ulp out
        outer = next(p for p in (around(centre, target)
                                 for _ in range(10_000))
                     if distance(centre, p) == target)
        clusters.append([centre, *ring, outer, around(centre, 0.9),
                         around(centre, 0.95)])
    return np.vstack(clusters)


@pytest.mark.usefixtures("small_blocks")
class TestScreen:
    """Cases aimed at the walk's screen and its error bound."""

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    @pytest.mark.parametrize("k", [2, 4, 18])
    def test_far_from_origin(self, offset, k):
        # the product's cancellation is worst far from the origin; the
        # grid's ties survive the shift exactly
        assert_walks_match_oracles(mixed_ties(k) + offset, k)

    @pytest.mark.parametrize("k", [2, 5])
    def test_one_ulp_across_the_cut(self, k):
        pts = one_ulp_clusters(k)
        for centre in range(0, len(pts), k + 3):
            dist = np.sort(cdist(pts[[centre]], pts)[0])
            assert dist[k] == np.nextafter(dist[k - 1], np.inf)
        assert_walks_match_oracles(pts, k)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_point_past_the_cut(self, seed):
        # query_all with k = N, LOF with k = N - 1
        pts = mixed_ties(seed, n=12)
        assert_walks_match_oracles(pts, len(pts))
        pts = np.random.default_rng(seed).normal(size=(25, 3))
        assert_walks_match_oracles(pts, len(pts))

    @pytest.mark.parametrize("k", [3, 6])
    def test_points_without_features(self, k):
        # every distance is zero: a tie across every cut
        assert_walks_match_oracles(np.zeros((6, 0)), k)

    def test_overflowing_distances_are_rejected(self):
        # distances of order 1e160 overflow float64, where no two could
        # be told apart, so the index and LOF refuse such points
        pts = np.random.default_rng(9).normal(size=(40, 3)) * 1e160
        with pytest.raises(DomainError, match="overflow"):
            NeighborIndex(pts).query_all(5)
        with pytest.raises(DomainError, match="overflow"):
            lof_scores(pts, LofConfig(k=4))
        # a span that overflows on its own
        with pytest.raises(DomainError, match="overflow"):
            NeighborIndex(np.array([[-1e308, 0.0], [1e308, 0.0]]))

    @pytest.mark.parametrize("k", [2, 5])
    def test_overflowing_margin_measures_every_point(self, measured, k):
        # at this scale every distance is finite but the screen's reach
        # overflows, so each row's margin is inf and it measures every
        # point, in each of the four walks below
        pts = mixed_ties(k) * (3 * 2.0 ** 504)
        assert_walks_match_oracles(pts, k)
        assert sum(measured) == 4 * len(pts) ** 2

    @pytest.mark.parametrize("m", [1, 10, 18])
    def test_exact_distances_are_cdists(self, m):
        gen = np.random.default_rng(m)
        pts = gen.normal(size=(300, m)) * gen.uniform(0.1, 1e3, size=m)
        rows = gen.choice(300, size=40, replace=False)
        cols = np.sort(gen.integers(0, 300, size=(40, 25)), axis=1)
        got = mcode.scoring._distances(pts, rows, cols)
        expected = np.take_along_axis(cdist(pts[rows], pts), cols, axis=1)
        assert got.tobytes() == expected.tobytes()


@pytest.fixture
def measured(monkeypatch):
    """The number of exact distances the kNN walk computes, per call."""
    counts = []

    def counting(points, rows, cols):
        counts.append(cols.size)
        return distances(points, rows, cols)

    distances = mcode.scoring._distances
    monkeypatch.setattr(mcode.scoring, "_distances", counting)
    return counts


@pytest.mark.parametrize("offset", [0.0, 1e9])
def test_screen_settles_untied_rows(measured, offset):
    # on untied data each row of LOF's walk measures its k neighbors and
    # nothing else, and each row of the lists that LRW reads nothing
    n, k = 2000, 50
    pts = np.random.default_rng(8).normal(size=(n, 10)) + offset
    lof_scores(pts, LofConfig(k=k))
    assert sum(measured) == n * k
    measured.clear()
    index = NeighborIndex(pts)
    index.query_all(k)
    local_weights(random_rho(8, n=n, d=3), index, k)
    assert sum(measured) == 0


def test_tied_rows_measure_only_points_near_their_cut(measured):
    # 10 features of 4 values each: the rows tie across their cut, yet
    # each measures about 61 points, not all 2000
    n, k = 2000, 50
    pts = np.random.default_rng(3).integers(0, 4, size=(n, 10)) * 1.0
    tied = np.concatenate(tie_pattern(pts, k))
    assert tied.mean() > 0.9
    assert sum(measured) < 2 * n * k
    listed = pts.tolist()
    found = NeighborIndex(pts).query_all(k)
    for i in range(0, n, 97):
        assert found[i].tolist() == \
            sorted(oracles.brute_knn(listed, listed[i], k))


@pytest.fixture
def clean_flags(monkeypatch):
    """The kNN walk's clean flag of every row, one array per block, in
    the order the walks computed them."""
    flags = []

    def recording(*args):
        flags.append(clean_rows(*args))
        return flags[-1]

    clean_rows = mcode.scoring._clean_rows
    monkeypatch.setattr(mcode.scoring, "_clean_rows", recording)
    return flags


def walk_outputs(pts, k, rho):
    """query_all, local_weights and, for k < N, LOF with the same k."""
    index = NeighborIndex(pts)
    outputs = [index.query_all(k), local_weights(rho, index, k).w]
    if k < len(pts):
        outputs.append(lof_scores(pts, LofConfig(k=k)).scores)
    return outputs


POINT_SETS = {
    "clean": lambda: np.random.default_rng(4).normal(size=(40, 3)),
    # a 4 x 4 grid, each point three times: a tie across every 5-cut
    "tied": lambda: np.repeat(np.indices((4, 4)).reshape(2, -1).T * 1.0,
                              3, axis=0),
    "mixed": lambda: mixed_ties(4, n=20),
}


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("cut", ["5", "n-1", "n"])
@pytest.mark.parametrize("kind", sorted(POINT_SETS))
def test_clean_rows_change_no_output(monkeypatch, clean_flags, kind, cut):
    # a clean row's k smallest-screen points are its k nearest: the
    # outputs are bitwise those of the walk with every row sent down the
    # path that measures the points near its cut
    pts = POINT_SETS[kind]()
    listed = pts.tolist()
    n = len(pts)
    k = {"5": 5, "n-1": n - 1, "n": n}[cut]
    rho = random_rho(n, n=n, d=3)
    got = walk_outputs(pts, k, rho)
    if cut == "5":
        per_row = np.concatenate(clean_flags)
        assert {"clean": per_row.all(), "tied": not per_row.any(),
                "mixed": per_row.any() and not per_row.all()}[kind]
        if kind == "mixed" and max(mcode.scoring._MIN_BLOCK_ROWS,
                                   mcode.scoring._BLOCK_ENTRIES // n) > 1:
            assert any(f.any() and not f.all() for f in clean_flags)
    elif cut == "n":
        assert np.concatenate(clean_flags).all()
    monkeypatch.setattr(mcode.scoring, "_clean_rows",
                        lambda kth_s, *_: np.zeros(kth_s.shape, dtype=bool))
    for new, old in zip(got, walk_outputs(pts, k, rho), strict=True):
        assert new.tobytes() == old.tobytes()
    # and against the oracles
    for i in range(n):
        assert got[0][i].tolist() == \
            sorted(oracles.brute_knn(listed, listed[i], k))
    assert got[1].tolist() == oracles.oracle_local_weights(
        rho.values.tolist(), listed, k)
    if k == n:
        assert (got[1] == global_weights(rho)).all()
    else:
        np.testing.assert_allclose(got[2], oracles.oracle_lof(listed, k),
                                   rtol=1e-9)


BLOCK_SIZINGS = {
    "default": {},
    "one row": {"_BLOCK_ENTRIES": 1, "_MIN_BLOCK_ROWS": 1},
    "one block": {"_BLOCK_ENTRIES": 1 << 40},
}


@pytest.mark.parametrize("kind, k", [("planted", 100), ("mixed", 5),
                                     ("grid", 17)])
def test_block_sizes_change_no_output(monkeypatch, kind, k):
    # the walk's blocks, argpartition slices and gathers decide only which
    # rows share an array, never a row's arithmetic: every output is
    # bitwise the same in blocks of one row, of the default size, and in
    # one block of every row
    pts = {"planted": lambda: make_benchmark_dataset(n=1000).X,
           "mixed": lambda: mixed_ties(k),
           "grid": lambda: grid_with_duplicates(k)}[kind]()
    rho = random_rho(k, n=len(pts), d=8)
    outputs = {}
    for name, sizing in BLOCK_SIZINGS.items():
        with monkeypatch.context() as patch:
            for attr, value in sizing.items():
                patch.setattr(mcode.scoring, attr, value)
            outputs[name] = [out.tobytes()
                             for out in walk_outputs(pts, k, rho)]
    assert outputs["one row"] == outputs["default"]
    assert outputs["one block"] == outputs["default"]


SPLIT_SETS = {
    "gaussian": lambda: np.random.default_rng(12).normal(size=(200, 3)),
    "grid": lambda: grid_with_duplicates(12, n=60),
    "mixed": lambda: mixed_ties(12),
}


@pytest.mark.usefixtures("small_blocks", "split_walk")
@pytest.mark.parametrize("kind", sorted(SPLIT_SETS))
def test_two_threads_change_no_output(monkeypatch, kind):
    # each half of a split walk writes only its own rows, and LOF joins
    # the halves' side lists in row order: query_all, local_weights and
    # LOF are bitwise those of one thread, with tied rows in both halves
    pts = SPLIT_SETS[kind]()
    k = 5
    if kind != "gaussian":
        tied = np.concatenate(tie_pattern(pts, k, exclude_self=True))
        quarter = len(pts) // 4
        assert tied[:quarter].any() and tied[-quarter:].any()
    rho = random_rho(7, n=len(pts), d=3)
    outputs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two halves finely
    try:
        for threads in (1, 2):
            monkeypatch.setattr(mcode.scoring, "_THREADS", threads)
            outputs[threads] = [out.tobytes()
                                for out in walk_outputs(pts, k, rho)]
    finally:
        sys.setswitchinterval(interval)
    assert outputs[2] == outputs[1]


@pytest.fixture
def walkers(monkeypatch):
    """The rows each thread measures exact distances for, by thread."""
    rows_of = {}

    def recording(points, rows, cols):
        rows_of.setdefault(threading.get_ident(), []).extend(rows.tolist())
        return distances(points, rows, cols)

    distances = mcode.scoring._distances
    monkeypatch.setattr(mcode.scoring, "_distances", recording)
    return rows_of


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("n", [2, 7, 40, 61])
@pytest.mark.parametrize("threads", [1, 2])
def test_split_walk_cuts_at_the_middle_block(monkeypatch, walkers, n,
                                             threads):
    # LOF measures every row: with two threads this one walks the rows
    # before the block boundary nearest N / 2 and one other thread the
    # rest; with one thread, or one block, this one walks them all
    monkeypatch.setattr(mcode.scoring, "_SPLIT_ROWS", 0)
    monkeypatch.setattr(mcode.scoring, "_THREADS", threads)
    pts = np.random.default_rng(n).normal(size=(n, 2))
    lof_scores(pts, LofConfig(k=1))
    step = max(mcode.scoring._MIN_BLOCK_ROWS,
               mcode.scoring._BLOCK_ENTRIES // n)
    first = sorted(set(walkers.pop(threading.get_ident())))
    if threads == 1 or step >= n:
        assert not walkers and first == list(range(n))
        return
    (second,) = walkers.values()
    cut = len(first)
    assert first == list(range(cut))
    assert sorted(set(second)) == list(range(cut, n))
    assert cut % step == 0 and abs(cut - n / 2) <= step / 2


@pytest.mark.parametrize("n", [1000, 5000])
def test_split_walk_runs_argpartition_over_one_threads_slabs(monkeypatch, n):
    # every walk, on one half or two, runs argpartition over slabs of
    # _BLOCK_ENTRIES // N rows of each block, the remainder last: one
    # call per block up to N = 2048
    rows_of = {}

    def recording(a, *args, **kwargs):
        rows_of.setdefault(threading.get_ident(), []).append(len(a))
        return argpartition(a, *args, **kwargs)

    argpartition = np.argpartition
    monkeypatch.setattr(np, "argpartition", recording)
    monkeypatch.setattr(mcode.scoring, "_SPLIT_ROWS", 0)
    index = NeighborIndex(np.random.default_rng(n).normal(size=(n, 3)))
    step = max(mcode.scoring._MIN_BLOCK_ROWS,
               mcode.scoring._BLOCK_ENTRIES // n)
    slab = mcode.scoring._BLOCK_ENTRIES // n
    expected = []
    for start in range(0, n, step):
        rows = min(step, n - start)
        expected += [slab] * (rows // slab)
        if rows % slab:
            expected.append(rows % slab)
    if n <= 2048:
        assert len(expected) == len(range(0, n, step))
    for threads in (1, 2):
        monkeypatch.setattr(mcode.scoring, "_THREADS", threads)
        index.query_all(5)
        first = rows_of.pop(threading.get_ident())
        others = list(rows_of.values())
        rows_of.clear()
        assert len(others) == threads - 1
        assert first + sum(others, []) == expected


class Stop(Exception):
    """Raised by a _distances that fails on the last row."""


@pytest.mark.usefixtures("small_blocks", "split_walk")
@pytest.mark.parametrize("walk", ["query_all", "lof"])
def test_second_half_errors_reach_the_caller(monkeypatch, walk):
    # a failure in the second half, walked by the other thread, is raised
    # here, once both halves have stopped, not printed beside a
    # half-filled result
    pts = grid_with_duplicates(3)
    failed_in = []

    def failing(points, rows, cols):
        if (rows == len(pts) - 1).any():
            failed_in.append(threading.get_ident())
            raise Stop
        return distances(points, rows, cols)

    distances = mcode.scoring._distances
    monkeypatch.setattr(mcode.scoring, "_distances", failing)
    threads = threading.active_count()
    with pytest.raises(Stop):
        if walk == "lof":
            lof_scores(pts, LofConfig(k=3))
        else:
            NeighborIndex(pts).query_all(3)
    assert failed_in and failed_in[0] != threading.get_ident()
    assert threading.active_count() == threads


@pytest.mark.usefixtures("small_blocks", "split_walk")
def test_first_half_errors_wait_for_the_second_half(monkeypatch):
    # a failure in the first half, walked by this thread, is raised only
    # once the second half has run to its end and its thread has gone:
    # the second half starts measuring after the failure and is slow
    pts = grid_with_duplicates(3)
    caller = threading.get_ident()
    failed = threading.Event()
    second_rows = []

    def failing(points, rows, cols):
        if threading.get_ident() == caller:
            if (rows == 0).any():
                failed.set()
                raise Stop
        else:
            assert failed.wait(timeout=10)
            time.sleep(0.002)
            second_rows.extend(rows.tolist())
        return distances(points, rows, cols)

    distances = mcode.scoring._distances
    monkeypatch.setattr(mcode.scoring, "_distances", failing)
    threads = threading.active_count()
    with pytest.raises(Stop):
        lof_scores(pts, LofConfig(k=3))  # LOF measures every row
    assert len(pts) - 1 in second_rows
    assert threading.active_count() == threads


SHUTDOWN_WALK = """
import atexit
import numpy as np
import mcode.scoring
from mcode import LofConfig, NeighborIndex, lof_scores

mcode.scoring._SPLIT_ROWS = 0  # as the split_walk fixture sets them
mcode.scoring._THREADS = 2
pts = np.random.default_rng(0).normal(size=(600, 3))


def walks():
    return (NeighborIndex(pts).query_all(5).tobytes(),
            lof_scores(pts, LofConfig(k=5)).scores.tobytes())


before = walks()


@atexit.register
def after_shutdown_began():
    print("same" if walks() == before else "differ")
"""


def test_split_walk_runs_at_interpreter_shutdown():
    # once interpreter shutdown has begun, the executor refuses the second
    # half; this thread walks it after the first, for the same bits
    child = run_python(SHUTDOWN_WALK)
    assert (child.stdout, child.stderr) == ("same\n", "")


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("k", [1, 5])
def test_query_all_measures_only_rows_that_are_not_clean(measured,
                                                         clean_flags, k):
    # a row that is not clean measures what it measures in a walk that
    # measures every row; a clean row, k points there, measures nothing
    pts = mixed_ties(4, n=20)
    index = NeighborIndex(pts)
    index._walk(k, lambda *block: None)
    clean = np.concatenate(clean_flags)
    assert clean.any() and not clean.all()
    total = sum(measured)
    measured.clear()
    found = index.query_all(k)
    assert sum(measured) == total - k * clean.sum()
    listed = pts.tolist()
    for i, row in enumerate(listed):
        assert found[i].tolist() == sorted(oracles.brute_knn(listed, row, k))


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("k", [2, 5])
def test_one_ulp_past_the_kth_is_not_clean(clean_flags, k):
    # each centre's k-th and (k+1)-th distances differ by one ulp, far
    # inside the margin: the centre is not clean, while most rows are
    pts = one_ulp_clusters(k)
    NeighborIndex(pts).query_all(k)
    per_row = np.concatenate(clean_flags)
    assert not per_row[::k + 3].any()
    assert per_row.mean() > 0.5


def test_query_all_holds_no_n_by_n_matrix():
    # a quarter of one N x N float64 matrix at N = 3000, about 17 MiB
    pts = np.random.default_rng(5).normal(size=(3000, 5))
    assert traced_peak(lambda: NeighborIndex(pts).query_all(10)) < \
        3000 * 3000 * 8 // 4


def test_query_all_blocks_stay_within_a_core_cache():
    # beside its N x k output, query_all(100) at N = 2000 holds about
    # 1.4 MiB: one 512 KiB screen block and the points' copies; screen
    # blocks of 2 MiB put it at 4.9 MiB
    n, k = 2000, 100
    index = NeighborIndex(make_benchmark_dataset(n=n).X)
    assert traced_peak(lambda: index.query_all(k)) < n * k * 8 + (2 << 20)


def test_local_weights_hold_no_n_by_k_by_d_array():
    # a quarter of one N x k x d float64 gather at N = 2000, k = 100,
    # d = 32, about 12 MiB
    gen = np.random.default_rng(6)
    index = NeighborIndex(gen.normal(size=(2000, 5)))
    rho = RhoMatrix(gen.uniform(0.02, 0.98, size=(2000, 32)))
    assert traced_peak(lambda: local_weights(rho, index, 100)) < \
        2000 * 100 * 32 * 8 // 4


def test_local_weights_hold_a_few_n_by_d_arrays():
    # beside query_all's N x k lists, local_weights holds the errors, the
    # running total and one gathered column, each N x d: a copy of the
    # lists, 1.6 MB at N = 2000, k = 100, or a gather buffered before it
    # is copied into the column would pass four N x d arrays
    n, k, d = 2000, 100, 8
    gen = np.random.default_rng(7)
    index = NeighborIndex(gen.normal(size=(n, 5)))
    members = index.query_all(k)
    index.query_all = lambda _: members
    rho = RhoMatrix(gen.uniform(0.02, 0.98, size=(n, d)))
    assert traced_peak(lambda: local_weights(rho, index, k)) < 4 * n * d * 8


class TestGlobalWeights:
    def test_known_value(self):
        rho = RhoMatrix(np.array([[0.8], [0.6], [0.4]]))
        w = global_weights(rho)
        assert isinstance(w, np.ndarray) and w.shape == (1,)
        # errors 0.2, 0.4, 0.6 average to 0.4, weight is its reciprocal
        assert w[0] == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds(self, seed):
        w = global_weights(random_rho(seed))
        assert (w >= 1.0).all()
        assert (w <= 1.0 / PROB_EPS).all()

    def test_matches_loop_oracle(self):
        rho = random_rho(77, n=12, d=3)
        w = global_weights(rho)
        assert w.tolist() == oracles.oracle_global_weights(rho.values.tolist())

    @pytest.mark.parametrize("d", [1, 3])
    def test_sums_in_ascending_index_order(self, d):
        # bitwise the oracle's sum, one instance at a time in index order,
        # at every d: NumPy's sum over instances adds pairwise at d = 1
        rho = wide_rho(78, n=60, d=d)
        w = global_weights(rho)
        assert w.tolist() == oracles.oracle_global_weights(rho.values.tolist())


class TestLocalWeights:
    def test_k_equal_n_reproduces_global_exactly(self):
        rho = random_rho(5, n=25, d=3)
        gen = np.random.default_rng(6)
        index = NeighborIndex(gen.normal(size=(25, 2)))
        local = local_weights(rho, index, k=25)
        glob = global_weights(rho)
        for row in local.w:
            assert np.array_equal(row, glob)

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
        assert local.w.tolist() == oracles.oracle_local_weights(
            rho.values.tolist(), pts.tolist(), 7)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("k", [12, 60])
    def test_sums_in_ascending_index_order(self, k, d):
        # bitwise the oracle's sum over each list in ascending index order,
        # at every d, and with k = N bitwise global_weights: a sum over
        # the neighbours in one reduction adds pairwise at d = 1
        rho = wide_rho(79, n=60, d=d)
        pts = np.random.default_rng(80).normal(size=(60, 2))
        local = local_weights(rho, NeighborIndex(pts), k)
        assert local.w.tolist() == oracles.oracle_local_weights(
            rho.values.tolist(), pts.tolist(), k)
        if k == 60:
            assert (local.w == global_weights(rho)).all()

    def test_size_mismatch(self):
        rho = random_rho(1, n=10)
        index = NeighborIndex(np.zeros((9, 2)))
        with pytest.raises(DomainError):
            local_weights(rho, index, k=3)


@pytest.mark.usefixtures("small_blocks")
class TestLocalWeightsInBlocks(TestLocalWeights):
    """Every TestLocalWeights case again, in blocks of one or a few rows."""


class TestScores:
    def test_prod_known_value(self):
        rho = RhoMatrix(np.array([[0.5, 0.5]]))
        assert score_prod(rho).scores[0] == pytest.approx(2 * math.log(2),
                                                          rel=1e-15)

    def test_rw_known_value(self):
        rho = RhoMatrix(np.array([[0.5, 0.5]]))
        sv = score_rw(rho, np.array([2.0, 1.0]))
        assert sv.scores[0] == pytest.approx(3 * math.log(2), rel=1e-15)

    def test_unit_weights_reduce_to_prod_bitwise(self):
        rho = random_rho(21)
        prod = score_prod(rho)
        rw = score_rw(rho, np.ones(rho.d))
        assert np.array_equal(prod.scores, rw.scores)

    def test_lrw_all_unit_weights_reduces_to_prod(self):
        rho = random_rho(24, n=15, d=4)
        lrw = score_lrw(rho, LocalWeightMatrix(np.ones((15, 4))))
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
        w = np.array([1.0, 2.0, 3.0])
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
        doubled = score_rw(rho, 2.0 * w).scores
        assert np.array_equal(doubled, 2.0 * base)
        assert rank_descending(doubled).tolist() == \
            rank_descending(base).tolist()

    def test_shape_mismatches(self):
        rho = random_rho(2, n=5, d=3)
        # a row of weights, or one weight, would broadcast without the check
        for weights in (np.ones(2), np.ones((1, 3)), 1.0):
            with pytest.raises(DomainError, match=re.escape(
                    f"expected 3 weights, got shape {np.shape(weights)}")):
                score_rw(rho, weights)
        with pytest.raises(DomainError):
            score_lrw(rho, LocalWeightMatrix(np.ones((4, 3))))


class TestRankingAndTables:
    def test_rank_ties_by_index(self):
        assert rank_descending(np.array([3.0, 1.0, 3.0])).tolist() == [0, 2, 1]

    def test_score_table_round_trip(self, tmp_path):
        gen = np.random.default_rng(60)
        sv = ScoreVector(scores=gen.uniform(0, 50, size=17))
        path = tmp_path / "scores.csv"
        write_score_table(path, "RW", sv, comments=("mcode test", "seed=1"))
        scores, method = load_score_table(path)
        assert method == "RW"
        assert np.array_equal(scores, sv.scores)
        body = [line for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        assert body[0] == "instance_index,method,score"
        values = [float(line.split(",")[2]) for line in body[1:]]
        assert values == sorted(values, reverse=True)

    def test_table_byte_order_mark_is_not_data(self, tmp_path):
        # the mark before the column header does not make it a short row
        sv = ScoreVector(scores=np.array([0.5, 2.0, 1.25]))
        path = tmp_path / "scores.csv"
        write_score_table(path, "RW", sv)
        path.write_bytes("\ufeff".encode() + path.read_bytes())
        scores, method = load_score_table(path)
        assert method == "RW" and np.array_equal(scores, sv.scores)

    def test_table_must_cover_all_instances(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("instance_index,method,score\n0,RW,1.0\n2,RW,0.5\n")
        with pytest.raises(DataError):
            load_score_table(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e400"])
    def test_table_rejects_non_finite_scores(self, tmp_path, score):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"instance_index,method,score\n0,RW,1.0\n1,RW,{score}\n")
        with pytest.raises(DataError, match="line 3"):
            load_score_table(path)

    @pytest.mark.parametrize("line", ["# 5,RW,0.0", "#5,RW,0.0",
                                      "instance_index,method,score"])
    def test_table_rejects_comment_or_header_after_the_first_row(
            self, tmp_path, line):
        # a commented-out row would silently shorten the ranking
        path = tmp_path / "bad.csv"
        path.write_text(f"# mcode\ninstance_index,method,score\n0,RW,1.0\n"
                        f"{line}\n1,RW,0.5\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 4")):
            load_score_table(path)

    def test_table_rejects_mixed_methods(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "instance_index,method,score\n0,RW,1.0\n1,PROD,0.5\n")
        with pytest.raises(DataError):
            load_score_table(path)


# Any text a UTF-8 file can hold (no lone surrogates), newlines included.
_FIELD = st.text(st.characters(exclude_categories=("Cs",)))


@settings(max_examples=200, deadline=None, database=None)
@example(row=5, field=0, text="#")
@given(row=st.integers(0, 5), field=st.integers(0, 2), text=_FIELD)
def test_any_single_field_edit_loads_or_is_a_data_error(row, field, text):
    sv = ScoreVector(scores=np.array([3.5, 0.25, 7.0, 1e-300, 2.0, 0.0]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        write_score_table(path, "RW", sv, comments=("mcode test",))
        lines = path.read_text().splitlines(keepends=True)
        body = lines.index("instance_index,method,score\n") + 1 + row
        fields = lines[body].rstrip("\n").split(",")
        fields[field] = text
        lines[body] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        try:
            scores, method = load_score_table(path)
        except DataError as exc:
            assert str(path) in str(exc)
            return
    assert scores.shape == (6,) and np.isfinite(scores).all()
    assert isinstance(method, str)
