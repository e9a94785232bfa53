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
memory is O(block x N) plus the neighbor lists; lrd and LOF are gathers.
Each block's argpartition picks every row's k nearest columns. A row
with exactly k points within its k-distance takes those k as they are;
only a row with more, a tie across the cut, is scanned in full for every
point within its k-distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    if not isinstance(k, (int, np.integer)) or not (1 <= k < n):
        raise ConfigError(f"k must be an integer in [1, {n - 1}], got {k!r}")

    # (point, neighbor, distance) runs, by point, then by neighbor: an
    # untied row is its k selected columns, a tied row every column
    # within its k-distance; both come in ascending column order, which
    # the stable sort by point keeps
    parts = []
    for rows, dist, cols, near, kth, tied in index._blocks(
            k, exclude_self=True):
        untied, tied = np.flatnonzero(~tied), np.flatnonzero(tied)
        r, c = np.nonzero(dist[tied] <= kth[tied, None])
        owner = np.concatenate([np.repeat(untied, k), tied[r]])
        order = np.argsort(owner, kind="stable")
        parts.append((rows[owner[order]],
                      np.concatenate([cols[untied].ravel(), c])[order],
                      np.concatenate([near[untied].ravel(),
                                      dist[tied[r], c]])[order],
                      kth))
    owner, nbr, nbr_dist, kdist = map(np.concatenate, zip(*parts))
    sizes = np.bincount(owner, minlength=n)

    reach = np.maximum(np.maximum(kdist[nbr], nbr_dist), _DISTANCE_FLOOR)
    lrd = sizes / _row_sums(reach, sizes)
    scores = _row_sums(lrd[nbr] / lrd[owner], sizes) / sizes
    return ScoreVector(scores=scores, method="LOF")


def _row_sums(values, sizes) -> np.ndarray:
    """Sum of each point's run of values, runs laid end to end; runs of one
    length are the rows of one block, so each sums bitwise as its own."""
    sums = np.empty(sizes.shape[0])
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        sums[rows] = values[starts[rows, None] + np.arange(size)].sum(axis=1)
    return sums
