"""Local outlier factor over the joint feature space.

Density-ratio baseline: a point is scored by how much sparser its
neighborhood is than its neighbors' own neighborhoods.

    reach_k(p, o) = max(k-distance(o), dist(p, o))
    lrd(p)  = |N_k(p)| / sum_{o in N_k(p)} reach_k(p, o)
    LOF(p)  = mean_{o in N_k(p)} lrd(o) / lrd(p)

The neighborhood N_k(p) excludes p itself and contains every other point
within the k-distance, so it can exceed k members when distances tie.
Reach distances are floored at a small positive value before dividing so
duplicated points produce large but finite densities.

Neighborhoods come from NeighborIndex's blocked walker, as LRW's do, so
memory is O(block x N) plus the neighbor lists, held once; lrd and LOF
are gathers. The walker screens each block with one BLAS product of
approximate squared distances. A clean row, whose (k+1)-th smallest
screen value lies beyond the screen's forward-error bound of its k-th,
measures exactly its k smallest-screen points, its k nearest; any other
row measures the points that the bound cannot place beyond its
k-distance. An untied row takes its k nearest; a row with more than k
points within its k-distance, a tie across the cut, takes every one of
them. Every row's first k neighbors, in ascending index order, go into
N x k arrays allocated once, where the reach distances are then formed
in place; a tied row's further members go into a side list. From N =
4096 the walk runs on two threads, the calling thread over the first
half of the rows and an executor task over the second, by the same path
as one half; the halves' side lists are joined in row order, so the
scores are bitwise those of one thread. No option sets this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import is_integer
from .errors import ConfigError, DomainError
from .scoring import NeighborIndex, ScoreVector

_DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class LofConfig:
    k: int = 100


def lof_scores(points, config: LofConfig = LofConfig()) -> ScoreVector:
    """LOF score for every point of the set, as a ScoreVector."""
    index = NeighborIndex(points)
    n = index.n
    if n < 2:
        raise DomainError("LOF needs at least 2 points")
    k = config.k
    if not is_integer(k) or not (1 <= k < n):
        raise ConfigError(f"k must be an integer in [1, {n - 1}], got {k!r}")

    # each point's neighbours in ascending column order: its first k in
    # nbr and reach, which holds their distances until it holds their
    # reach distances; a tied row's members past its first k, in order,
    # in a side list. A tied row's first k are its first k within kth,
    # not the walk's list: a run sums in column order
    nbr = np.empty((n, k), dtype=np.intp)
    reach = np.empty((n, k))
    kdist = np.empty(n)

    def take(rows, dcols, dist, cols, near, kth, tied):
        """Store a block's lists, and return its tied rows' further
        members, their rows, columns and distances, if it has any."""
        nbr[rows], reach[rows], kdist[rows] = cols, near, kth
        tied = np.flatnonzero(tied)
        if tied.size:
            within = dist <= kth[tied, None]
            rank = np.cumsum(within, axis=1, dtype=np.int32)
            first = np.nonzero(within & (rank <= k))[1].reshape(tied.size, k)
            nbr[rows[tied]] = np.take_along_axis(dcols, first, axis=1)
            reach[rows[tied]] = np.take_along_axis(dist, first, axis=1)
            r, s = np.nonzero(within & (rank > k))
            return rows[tied[r]], dcols[r, s], dist[r, s]

    # the blocks' side lists joined in row order, as _row_sums reads them
    extra = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
              np.empty(0))]
    extra += filter(None, index._walk(k, take, exclude_self=True))
    owner, more, more_dist = map(np.concatenate, zip(*extra))
    sizes = k + np.bincount(owner, minlength=n)

    # reach distances in place, and then, in the same buffer, the ratios
    np.maximum(reach, kdist[nbr], out=reach)
    np.maximum(reach, _DISTANCE_FLOOR, out=reach)
    more_reach = np.maximum(np.maximum(kdist[more], more_dist),
                            _DISTANCE_FLOOR)
    lrd = sizes / _row_sums(reach, more_reach, sizes)
    ratio = np.take(lrd, nbr, out=reach)
    ratio /= lrd[:, None]
    scores = _row_sums(ratio, lrd[more] / lrd[owner], sizes) / sizes
    return ScoreVector(scores=scores)


def _row_sums(first, extra, sizes) -> np.ndarray:
    """Sum of each point's run of values, its first k in its row of first,
    then the rest of the run, if any, in extra, runs laid end to end. A
    run sums as one contiguous row of its length, the same bits however
    its rows are grouped."""
    k = first.shape[1]
    sums = first.sum(axis=1)
    more = sizes - k
    starts = np.cumsum(more) - more
    for size in np.unique(more[more > 0]):
        rows = np.flatnonzero(more == size)
        sums[rows] = np.concatenate(
            [first[rows], extra[starts[rows, None] + np.arange(size)]],
            axis=1).sum(axis=1)
    return sums
