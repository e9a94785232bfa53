"""Reliability weights and outlier scores over a rho matrix.

Every score is one formula, an instance's weighted negative log
pseudo-joint -sum_i w_i * log rho_i, and the variants differ only in the
shape of the weights:

  PROD  the scalar 1: unit weights.
  RW    a d-vector of global reliability weights,
        w_i = N / sum_n (1 - rho_i^(n)): the less a dimension's model
        errs across the dataset, the more a surprise on that dimension
        counts.
  LRW   an N x d matrix: the same construction restricted to each
        instance's k nearest neighbors in input space.

Errors are e = 1 - rho. Because rho is clamped to [eps, 1 - eps], every
weight is finite and lies in [1, 1/eps].
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import optim
from .dataset import _csv_records, is_integer, write_table
from .errors import DataError, DomainError
from .model import RhoMatrix

# The kNN walk is sized for a core's L2 cache, 2 MiB on the Xeon it was
# measured on. _BLOCK_ENTRIES, 2^16 entries or 512 KiB, bounds a block's
# screen (N entries a row), each argpartition slice of it and the gather
# of exact distances, so that a block's arrays fit in L2 together and
# the allocator reuses their pages. At 2^18 entries the screen and
# argpartition's index array overflowed L2, and each block's fresh 2 MiB
# index array came back as new pages: about 3,300 minor faults per
# N=2000 planted scoring run, at about 3 us each on a VM. LRW's sums are
# not blocked: local_weights adds one N x d column of errors at a time.
# A block keeps at least _MIN_BLOCK_ROWS rows, so that per-block Python
# work stays small beside the arithmetic; past N = 2048 its screen
# outgrows the budget, and argpartition runs over slices of it.
_BLOCK_ENTRIES = 1 << 16
_MIN_BLOCK_ROWS = 32
# A walk of _SPLIT_ROWS rows or more runs on _THREADS threads, the CPUs
# the process may use, at most 2. At N = 2000 a split lof_scores took
# 0.064 s against 0.060 s on one thread; at N = 4000 it ran 1.4x faster.
_SPLIT_ROWS = 4096
_THREADS = min(2, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass(frozen=True)
class WeightVector:
    """Global per-dimension reliability weights."""
    w: np.ndarray


@dataclass(frozen=True)
class LocalWeightMatrix:
    """Per-instance, per-dimension reliability weights from k-neighborhoods."""
    w: np.ndarray


@dataclass(frozen=True)
class ScoreVector:
    """Per-instance outlier scores, higher more outlying."""
    scores: np.ndarray


class NeighborIndex:
    """Exact Euclidean k-nearest-neighbor lookup over a fixed point set.

    query_all lists each point's k nearest among the same points, a tie
    at the k-th distance broken by ascending index, so a point counts as
    its own neighbor at distance zero. Each list is in ascending index
    order, as LRW sums it, with no sort. One blocked walker serves
    query_all, which only gathers the final list the walk hands every
    row by that rule, and LOF, which reads the rows flagged as tied:
    those whose neighbourhood as LOF counts it, every point within the
    k-th distance, exceeds k. A block of rows meets all N points, so
    memory is O(block x N). A block holds max(32, 2^16 // N) rows, a
    screen of 512 KiB up to N = 2048, to work within a core's L2 cache
    and reuse its pages instead of faulting in fresh ones.

    From N = 4096, when the process may use two CPUs or more, the walk
    runs on two threads: the calling thread walks the rows before the
    block boundary nearest N / 2 and an executor task the rest, each half
    in row order and in one thread's blocks. Each block writes only its
    own rows, so the results are bitwise those of one thread. No option
    sets this: below N = 4096 a second thread did not pay for itself.

    The walk screens before it measures. One BLAS product per block gives
    each row's squared distances to all points, less a per-row constant
    and up to rounding, and one argpartition each row's k smallest screen
    values and its (k+1)-th. A point whose screen value exceeds the row's
    k-th smallest by more than a forward-error bound (derived in _blocks)
    is provably farther than the row's k nearest. So a clean row, whose
    (k+1)-th clears that bound, has its k smallest-screen points as its k
    nearest: LOF measures just those, query_all nothing. Any other row
    measures the points within the bound of its k-th, on tied data every
    point within its k-th distance and a few more. The k nearest, the tie
    across the cut and the lowest-index rule come from those exact
    distances, which are cdist's, bitwise, so the screen changes no
    result.

    Points whose bounding box has a diagonal beyond float64's range are
    rejected with the non-finite ones: their distances could overflow to
    inf, where no two can be told apart.
    """

    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise DomainError("points must be a non-empty 2-dimensional array")
        if not np.isfinite(points).all():
            raise DomainError("points contain non-finite values")
        # the squared diagonal of the bounding box, summed as cdist sums:
        # rounding is monotone, so no pair's squared distance exceeds it
        with np.errstate(over="ignore"):
            span = points.max(axis=0) - points.min(axis=0)
            diagonal = np.cumsum(span * span)
        if diagonal.size and not np.isfinite(diagonal[-1]):
            raise DomainError("points lie too far apart: their distances "
                              "overflow float64")
        self.points = points

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def _check_k(self, k: int):
        if not is_integer(k) or not (1 <= k <= self.n):
            raise DomainError(
                f"k must be an integer in [1, {self.n}], got {k!r}")

    def _walk(self, k: int, consume, exclude_self: bool = False,
              measure_clean: bool = True) -> list:
        """consume(rows, dcols, dist, cols, near, kth, tied) for every
        block of rows that _blocks yields, and what it returned, in row
        order.

        From _SPLIT_ROWS rows, when the process may use _THREADS >= 2
        CPUs, the rows are cut at the block boundary nearest N / 2: this
        thread walks the first half and a one-thread executor the second,
        each in row order; one half submits nothing and starts no thread.
        Each half walks the blocks and slabs of a one-thread walk, so a
        split walk differs only in where its rows are cut. consume runs
        in both threads, on disjoint rows. So that the other thread's
        malloc arena keeps little once the walk ends, the set-up _screen
        computes is shared by both halves and released with the walk,
        this thread allocates every buffer a half reuses, and this thread
        walks the first half.
        Leaving the executor waits for its task, so an exception in
        either half is raised here, after both halves have stopped. Once
        interpreter shutdown has begun, as in an atexit handler, the
        executor refuses the task, and this thread walks the second half
        after its own: the same blocks, so the same bits.
        """
        n = self.n
        step = max(_MIN_BLOCK_ROWS, _BLOCK_ENTRIES // n)
        halves = [range(0, n, step)]
        if _THREADS >= 2 and n >= _SPLIT_ROWS and n > step:
            cut = step * ((n + step) // (2 * step))
            halves = [range(0, cut, step), range(cut, n, step)]
        shared = self._screen()
        # the columns of each row's k smallest screen values, then of its
        # (k+1)-th, if any
        kept = min(k + 1, n)
        walks = [self._blocks(k, starts, shared, np.empty((min(step, n), n)),
                              np.empty((min(step, n), kept), dtype=np.intp),
                              exclude_self, measure_clean)
                 for starts in halves]

        def run(walk):
            return [consume(*block) for block in walk]

        with ThreadPoolExecutor(1) as pool:
            try:
                rest = pool.map(run, walks[1:])
            except RuntimeError:
                # once interpreter shutdown has begun the executor takes
                # no task: this thread walks the rest after the first
                rest = map(run, walks[1:])
            first = run(walks[0])
        return first + [out for half in rest for out in half]

    def _screen(self):
        """The set-up every block of a walk reads and none writes: the
        points' mean, paired (below), each row's margin and the points
        laid out a column per feature, for _distances."""
        n, m = self.points.shape
        # The screen works on q, the points less their mean: a row's
        # [q_a, 1] times column b of paired, [-2 q_b, |q_b|^2], is
        # |q_a - q_b|^2 - |q_a|^2, so a block's screen is one product.
        # Error bound of the screen S, with u = 2^-53, g(j) = j u / (1 - j u),
        # R the largest |q| and T = |a - b|^2 exact for points a and b:
        # - Centring rounds each coordinate by at most u, which moves
        #   |q_a - q_b|^2 off T by about 2u (|q_a| + R)^2.
        # - A dot product of length j, in any order, with or without FMA,
        #   is off by at most g(j) times the sum of its terms' magnitudes;
        #   with the error of |q_b|^2, S is off from |q_a - q_b|^2 - |q_a|^2
        #   by at most g(2m + 1) (|q_a| + R)^2.
        # So S is within delta ~ (2m + 3) u (|q_a| + R)^2 of T - |q_a|^2.
        # An exact distance d = sqrt(s) is cdist's: s sums the m terms
        # fl(fl(a_f - b_f)^2) in order, so s = T (1 + t), |t| <= g(m + 2).
        # If T' >= (1 + r) T with r = 4 g(m + 2) + 8u, then s' >= (1 + 8u) s,
        # whose correctly rounded square roots differ: d' > d. As T is at
        # most about (|q_a| + R)^2, a point whose S exceeds another's by
        #   2 delta + r (|q_a| + R)^2 ~ (8m + 22) u (|q_a| + R)^2
        # is strictly farther from the row. margin doubles that to cover
        # the rounding of the margin and of the limit below; m times the
        # smallest normal number covers terms that underflow. So a point
        # whose S exceeds the row's k-th smallest S by more than margin is
        # strictly farther than each of the row's k smallest-S points, so
        # beyond its k-th distance: a row measures only the points within
        # margin of its k-th smallest S, and if its (k+1)-th smallest S
        # is beyond that, its k smallest-S points are its k nearest, with
        # no tie across the cut. The screen's partial sums stay below
        # reach = 2 (|q_a| + R)^2; where reach overflows, so does margin,
        # and the row measures every point.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self.points.mean(axis=0)
            paired = np.empty((m + 1, n))
            centred = np.subtract(self.points.T, mean[:, None],
                                  out=paired[:m])
            paired[m] = np.einsum("ij,ij->j", centred, centred)
            norm = np.sqrt(paired[m])
            reach = 2 * (norm + norm.max()) ** 2
            margin = (8 * (m + 3) * 2.0 ** -53 * reach
                      + m * np.finfo(np.float64).tiny)
            centred *= -2.0
        features = np.asfortranarray(self.points)  # a column per feature
        return mean, paired, margin, features

    def _blocks(self, k: int, starts: range, shared, buf, part_buf,
                exclude_self: bool, measure_clean: bool):
        """Yield (rows, dcols, dist, cols, near, kth, tied) for the block
        of starts.step rows at each of starts, in row order.

        For every row of a block, tied or not, cols holds its final list,
        its k nearest columns by the lowest-index rule, in ascending
        column order, and near their distances; kth is the k-th smallest
        distance. tied only flags the rows whose neighbourhood as LOF
        counts it, every point within kth, exceeds k: a tie across the
        cut. For each tied row, in row order, dcols lists the columns it
        measured in ascending order, every point within its kth among
        them, and dist their distances, both padded at the end with
        distance inf.

        One argpartition of the screen gives each row its k smallest
        screen values and its (k+1)-th. A clean row, whose (k+1)-th
        exceeds its k-th by more than margin, measures just its k
        smallest-screen points, its k nearest; any other row measures
        every point within margin of its k-th and picks from those. With
        measure_clean=False a clean row measures nothing, and its near
        and kth are NaN: for callers that read only cols and tied rows.

        shared is _screen's set-up. A block's screen is written into buf
        and the k + 1 columns read below into part_buf, both overwritten
        by the next block, with argpartition run over slabs of
        max(1, _BLOCK_ENTRIES // N) rows, the remainder last; everything
        yielded is the block's own.
        """
        n, m = self.points.shape
        mean, paired, margin, features = shared
        kept = part_buf.shape[1]
        slab = max(1, _BLOCK_ENTRIES // n)
        for start in starts:
            stop = min(start + starts.step, n)
            rows = np.arange(start, stop)
            screen, part = buf[:rows.size], part_buf[:rows.size]
            # BLAS calls cut as the solver's are, to stay on one thread:
            # on a 2-CPU box OpenBLAS ran calls of 2^19 multiply-adds
            # (32 x 11 x 1489, 32 x 19 x 862) on a second thread, which
            # spin-waits after the call. No call of 2^18 did.
            lifted = np.ones((rows.size, m + 1))
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(self.points[start:stop], mean, out=lifted[:, :m])
                for cut in optim._row_slices(n, rows.size * (m + 1)):
                    np.matmul(lifted, paired[:, cut], out=screen[:, cut])
                if exclude_self:
                    screen[np.arange(rows.size), rows] = np.inf
                # each row's k smallest S, a NaN last, and its (k+1)-th
                for lo in range(0, rows.size, slab):
                    part[lo:lo + slab] = np.argpartition(
                        screen[lo:lo + slab], min(k, n - 1), axis=1)[:, :kept]
                kth_s = np.take_along_axis(screen, part[:, :k],
                                           axis=1).max(axis=1)
                limit = kth_s + margin[rows]
                next_s = (screen[np.arange(rows.size), part[:, k]]
                          if k < n else None)
            clean = _clean_rows(kth_s, next_s, limit)
            settled, rest = np.flatnonzero(clean), np.flatnonzero(~clean)
            # a clean row measures its k smallest-S points, its k nearest,
            # and nothing else
            cols = np.empty((rows.size, k), dtype=np.intp)
            cols[settled] = np.sort(part[settled, :k], axis=1)
            near = np.empty((rows.size, k))
            near[settled] = (
                _distances(features, rows[settled], cols[settled])
                if measure_clean else np.nan)
            tied = np.zeros(rows.size, dtype=bool)
            dcols = np.empty((0, k), dtype=np.intp)
            dist = np.empty((0, k))
            if rest.size:
                # each other row's points within margin of its k-th
                # smallest S, in column order (a NaN screen or limit keeps
                # them all), one row each, and their exact distances,
                # padded at the end with inf
                sub = screen if rest.size == rows.size else screen[rest]
                r, c = np.divmod(
                    np.flatnonzero(~(sub > limit[rest, None])), n)
                del sub
                counts = np.bincount(r, minlength=rest.size)
                dcols = np.zeros((rest.size, counts.max()), dtype=np.intp)
                offsets = np.cumsum(counts) - counts
                dcols[r, np.arange(r.size) - offsets[r]] = c
                dist = _distances(features, rows[rest], dcols)
                dist[np.arange(dist.shape[1]) >= counts[:, None]] = np.inf
                if exclude_self:
                    dist[dcols == rows[rest, None]] = np.inf
                # every row measured at least its k smallest-S points, each
                # at a finite distance unless it measured every point
                kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
                below, ties = dist < kth, dist == kth
                room = k - np.count_nonzero(below, axis=1)
                # rank of each tie in its row; int32 halves this array
                rank = np.cumsum(ties, axis=1, dtype=np.int32)
                keep = below | (ties & (rank <= room[:, None]))
                pick = np.nonzero(keep)[1].reshape(rest.size, k)
                cols[rest] = np.take_along_axis(dcols, pick, axis=1)
                near[rest] = np.take_along_axis(dist, pick, axis=1)
                tied[rest] = rank[:, -1] > room
                dcols, dist = dcols[tied[rest]], dist[tied[rest]]
            yield rows, dcols, dist, cols, near, near.max(axis=1), tied

    def query_all(self, k: int) -> np.ndarray:
        """(n, k) neighbor indices for every reference point at once: the
        walk's lists, gathered. A clean row measures no exact distance.

        The array is laid out one column per neighbour rank (Fortran
        order), so that local_weights reads each rank's column as one
        contiguous run; its values and its C-order bytes are those of a
        row-major array."""
        self._check_k(k)
        out = np.empty((k, self.n), dtype=np.intp).T

        def gather(rows, dcols, dist, cols, *_):
            out[rows] = cols

        self._walk(k, gather, measure_clean=False)
        return out


def _clean_rows(kth_s, next_s, limit) -> np.ndarray:
    """Whether each row of a block is clean: its (k+1)-th smallest screen
    value, next_s, exceeds limit, its k-th smallest, kth_s, plus margin.
    A NaN on either side, or an overflowing margin, leaves a row unclean.
    With k = N there is no (k+1)-th (next_s is None), and a row is clean
    when its k-th is not NaN."""
    if next_s is None:
        return ~np.isnan(kth_s)
    return next_s > limit


def _distances(points, rows, cols) -> np.ndarray:
    """Distance from points[rows[i]] to points[cols[i, j]] at [i, j], in
    cdist's arithmetic: (a_f - b_f)^2 summed over the features f in
    order, then the square root. The gather runs along the rows of
    points.T, so points is best laid out one contiguous column per
    feature; it gathers about _BLOCK_ENTRIES differences at a time."""
    columns = points.T
    out = np.zeros(cols.shape)
    step = max(1, _BLOCK_ENTRIES // (max(columns.shape[0], 1)
                                     * cols.shape[1]))
    with np.errstate(over="ignore"):  # far-apart points: inf, as in cdist
        for start in range(0, rows.size, step):
            part = slice(start, start + step)
            diff = np.take(columns, cols[part], axis=1)
            diff -= columns[:, rows[part], None]
            diff *= diff
            total = out[part]
            for term in diff:
                total += term
    return np.sqrt(out, out=out)


def global_weights(rho: RhoMatrix) -> WeightVector:
    """w_i = N / sum over instances of the dimension-i error (1 - rho).

    Each column's errors are summed one instance at a time in ascending
    index order, for every d: NumPy's sum over axis 0 adds pairwise when
    d = 1, and local_weights with k = N adds in this order. It holds two
    N x d arrays, the errors and their running sums.
    """
    errors = 1.0 - rho.values
    return WeightVector(w=rho.n / np.cumsum(errors, axis=0)[-1])


def local_weights(rho: RhoMatrix, index: NeighborIndex,
                  k: int) -> LocalWeightMatrix:
    """Per-instance weights from each instance's k-nearest neighborhood.

    Neighborhoods come from the index (the instance itself included,
    being at distance zero), listed in ascending index order as the walk
    finds them, with no sort. Each row's errors are summed one neighbour
    at a time in that order, for every d, so that k = N reproduces
    global_weights exactly: one pass per neighbour column gathers that
    neighbour's errors for every row and adds them to an N x d total.
    Beside the index's N x k lists it holds three N x d arrays, the
    errors, the total and one gathered column.
    """
    if index.n != rho.n:
        raise DomainError(
            f"index holds {index.n} points but rho has {rho.n} rows")
    columns = index.query_all(k).T  # row j: each row's j-th listed neighbour
    errors = 1.0 - rho.values
    total = errors[columns[0]]
    term = np.empty_like(total)
    for column in columns[1:]:
        # every index is a row of errors; mode="raise" would gather into
        # a buffer and copy it to term
        np.take(errors, column, axis=0, out=term, mode="clip")
        total += term
    return LocalWeightMatrix(w=np.divide(k, total, out=total))


def _weighted_score(rho: RhoMatrix, w) -> ScoreVector:
    """-sum_i w_i log rho_i per instance, w broadcast against rho."""
    return ScoreVector(scores=(-np.log(rho.values) * w).sum(axis=1))


def score_prod(rho: RhoMatrix) -> ScoreVector:
    """Unweighted negative log pseudo-joint of each instance."""
    return _weighted_score(rho, 1.0)


def score_rw(rho: RhoMatrix, weights: WeightVector) -> ScoreVector:
    """Globally reliability-weighted negative log score."""
    if weights.w.shape != (rho.d,):
        raise DomainError(
            f"expected {rho.d} weights, got shape {weights.w.shape}")
    return _weighted_score(rho, weights.w)


def score_lrw(rho: RhoMatrix, local: LocalWeightMatrix) -> ScoreVector:
    """Locally reliability-weighted negative log score."""
    if local.w.shape != rho.values.shape:
        raise DomainError(
            f"local weights shape {local.w.shape} does not match rho "
            f"shape {rho.values.shape}")
    return _weighted_score(rho, local.w)


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """Instance indices from highest score to lowest, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.argsort(-scores, kind="stable")


_SCORE_HEADER = ["instance_index", "method", "score"]


def write_score_table(path, method: str, sv: ScoreVector,
                      comments=()) -> None:
    """Write (instance_index, method, score) rows, highest score first,
    method naming the scores in every row."""
    order = rank_descending(sv.scores)
    write_table(path, ",".join(_SCORE_HEADER), (
        f"{idx},{method},{score!r}" for idx, score in
        zip(order.tolist(), sv.scores[order].tolist())), comments)


def load_score_table(path):
    """Read a score table back as (scores indexed by instance, method).

    '#' lines may come only before the column header, and the header only
    before the rows; either one later is a DataError naming its line, so
    a commented-out row cannot shorten a ranking.
    """
    entries = []
    method = None
    records = _csv_records(path, comments_anywhere=False)
    for position, (line_num, parts) in enumerate(records):
        if parts == _SCORE_HEADER:
            if position:
                raise DataError(f"{path}: line {line_num}: column header "
                                f"after the first row")
            continue
        if len(parts) != 3:
            raise DataError(f"{path}: line {line_num}: expected 3 fields")
        try:
            idx = int(parts[0])
            score = float(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}: line {line_num}: {exc}") from exc
        if not np.isfinite(score):
            raise DataError(f"{path}: line {line_num}: score {parts[2]!r} "
                            f"is not finite")
        if method is None:
            method = parts[1]
        elif parts[1] != method:
            raise DataError(
                f"{path}: line {line_num}: mixed methods "
                f"{method!r} and {parts[1]!r}")
        entries.append((idx, score))
    if not entries:
        raise DataError(f"{path}: no score rows")
    n = len(entries)
    indices = np.array([e[0] for e in entries])
    if sorted(indices.tolist()) != list(range(n)):
        raise DataError(
            f"{path}: instance indices are not a permutation of 0..{n - 1}")
    scores = np.empty(n)
    scores[indices] = [e[1] for e in entries]
    return scores, method
