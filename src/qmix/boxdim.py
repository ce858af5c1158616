"""Box-counting dimension of point clouds on the unit sphere.

The sphere is partitioned by central projection onto the six faces of the
circumscribed cube; at level k each face splits into 2^k x 2^k cells, so
level k has 6 * 4^k cells.  The recorded scale eps_k is the maximal
geodesic cell diameter at that level: cells shrink monotonically away
from the face centers under central projection, so the maximum is the
diagonal of a cell touching a face center (the full-face diagonal at
level 0).

The dimension estimate is the least-squares slope of log N(eps) against
log(1/eps) restricted to levels with 10 <= N <= n_points / 10, which
drops both saturated ends.  Finite samples of a concentrated invariant
measure stop resolving new cells well before the grid does, so the level
count should keep the finest level densely occupied; the default
levels = floor(log4 n) - 2 leaves a few hundred points per occupied cell
at the bottom for spread-out clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fitting import line_fit

_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])
# Scale levels, k = 0..levels-1: max_cell_diameter rounds to 0.0 from level
# 28 (level 27 is 2.1e-8), and the int64 cell key holds 6 * 4^k cells only
# up to level 30.
MAX_LEVELS = 28


def default_levels(n_points: int) -> int:
    return max(4, min(12, int(math.log(max(n_points, 2)) / math.log(4.0)) - 2))


def max_cell_diameter(level: int) -> float:
    """Largest geodesic diameter among the 6 * 4^level cells."""
    if level == 0:
        # whole face: diagonal corners (1,-1,-1)/sqrt3 and (1,1,1)/sqrt3
        return math.acos(-1.0 / 3.0)
    s = 2.0 / (1 << level)
    # diagonal of the cell [0,s]^2 touching the face center
    return math.acos(1.0 / math.sqrt(1.0 + 2.0 * s * s))


def _face_coords(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(face id 0..5, u, v) of the cube-face central projection.

    Shared with :mod:`qmix.render`, whose net view lays the faces out flat,
    as is :func:`_cell_index`.
    """
    idx = np.arange(len(points))
    axis = np.argmax(np.abs(points), axis=1)
    dom = points[idx, axis]
    face = 2 * axis + (dom < 0)
    u = points[idx, _OTHER_AXES[axis, 0]] / np.abs(dom)
    v = points[idx, _OTHER_AXES[axis, 1]] / np.abs(dom)
    return face, u, v


def _cell_index(u: np.ndarray, m: int) -> np.ndarray:
    """Index 0..m-1 of the cell holding each u when [-1, 1] splits into m cells."""
    return np.clip(((u + 1.0) * 0.5 * m).astype(np.int64), 0, m - 1)


@dataclass
class BoxCountResult:
    """Occupied-cell counts per scale level plus the default dimension fit."""
    eps: np.ndarray
    counts: np.ndarray
    n_points: int
    slope: float
    fit_levels: Optional[tuple[int, int]]  # inclusive level-index range
    residual: float
    r_squared: float


def _fit(eps: np.ndarray, counts: np.ndarray, n_points: int):
    usable = (counts >= 10) & (counts <= n_points / 10)
    if usable.sum() < 3:
        return float("nan"), None, float("nan"), float("nan")
    x = np.log(1.0 / eps[usable])
    y = np.log(counts[usable])
    slope, resid = line_fit(x, y)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    lv = np.nonzero(usable)[0]
    return slope, (int(lv[0]), int(lv[-1])), rms, r2


def box_count(points: np.ndarray, levels: Optional[int] = None) -> BoxCountResult:
    """Count occupied cells at each subdivision level.

    ``points`` must lie within 1e-9 of the unit sphere.  Levels run
    k = 0 .. levels-1.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
        raise ValueError("expected a nonempty (n, 3) point cloud")
    if levels is None:
        levels = default_levels(len(points))
    if levels < 4:
        raise ValueError("need at least 4 scale levels")
    if levels > MAX_LEVELS:
        raise ValueError(f"levels = {levels} exceeds the MAX_LEVELS cap of {MAX_LEVELS}")
    radii = np.linalg.norm(points, axis=1)
    worst = float(np.max(np.abs(radii - 1.0)))
    if worst > 1e-9:
        raise ValueError(f"cloud is {worst:.2e} off the unit sphere")
    face, u, v = _face_coords(points)
    eps = np.array([max_cell_diameter(k) for k in range(levels)])
    counts = np.empty(levels)
    for k in range(levels):
        m = 1 << k
        cells = (face * m + _cell_index(u, m)) * m + _cell_index(v, m)
        counts[k] = len(np.unique(cells))
    slope, fit_levels, rms, r2 = _fit(eps, counts, len(points))
    return BoxCountResult(eps, counts, len(points), slope, fit_levels, rms, r2)


def estimate_dimension(result: BoxCountResult) -> float:
    """Dimension from the banded fit; errors when under three levels are usable."""
    if result.fit_levels is None or math.isnan(result.slope):
        raise ValueError(
            "fewer than 3 levels satisfy 10 <= N <= n/10; "
            "supply more points or fewer levels")
    return result.slope
