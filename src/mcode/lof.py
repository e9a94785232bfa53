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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, DomainError
from .scoring import ScoreVector

_DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class LofConfig:
    k: int = 100


def lof_scores(points, config: LofConfig = LofConfig()) -> ScoreVector:
    """LOF score for every point of the set, as a ScoreVector."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise DomainError("points must be a 2-dimensional array of >= 2 rows")
    if not np.isfinite(points).all():
        raise DomainError("points contain non-finite values")
    n = points.shape[0]
    k = config.k
    if not isinstance(k, (int, np.integer)) or not (1 <= k < n):
        raise ConfigError(f"k must be an integer in [1, {n - 1}], got {k!r}")

    dists = cdist(points, points)
    np.fill_diagonal(dists, np.inf)  # self never counts as a neighbor
    kdist = np.sort(dists, axis=1)[:, k - 1]

    neighborhoods = [np.flatnonzero(dists[p] <= kdist[p]) for p in range(n)]

    lrd = np.empty(n)
    for p in range(n):
        nbrs = neighborhoods[p]
        reach = np.maximum(kdist[nbrs], dists[p, nbrs])
        reach = np.maximum(reach, _DISTANCE_FLOOR)
        lrd[p] = nbrs.shape[0] / reach.sum()

    scores = np.empty(n)
    for p in range(n):
        nbrs = neighborhoods[p]
        scores[p] = (lrd[nbrs] / lrd[p]).mean()
    return ScoreVector(scores=scores, method="LOF")
