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

Counting takes one sort, with no per-cell table.  Each point gets one
Morton key at the finest level K = levels - 1: its face, then the
interleaved bits of its u and v cell indices.  Its level-k cell is that
key shifted right by 2 (K - k) bits: (u + 1) / 2 * 2^k is an exact
power-of-two scaling of the level-K product, so the floor and the clip to
2^k - 1 commute with the shift.  The occupied cells of every level are
then the distinct prefixes of one sorted key array, and the work and
memory are O(points) per level whatever the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fitting import line_fit

# Scale levels, k = 0..levels-1: max_cell_diameter rounds to 0.0 from level
# 28 (level 27 is 2.1e-8).  At the cap the finest Morton key has 3 + 2 * 27
# = 57 bits.  On a 2-vCPU host, box_count of a 1e6-point cloud takes 0.2 s
# at 28 levels, and `qmix fractal --levels 28` on such a cloud takes 1.8-1.9 s
# and peaks at 127 MB, about what the default 7 levels cost (parsing the
# cloud is most of it).
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

    The face is that of the first axis of largest |coordinate|, picked by
    comparisons: a tie goes to x over y and z, and to y over z.  Shared
    with :mod:`qmix.render`, whose net view lays the faces out flat, as is
    :func:`_cell_index`.
    """
    x, y, z = points.T
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    on_x = (ax >= ay) & (ax >= az)
    on_y = ~on_x & (ay >= az)
    dom = np.where(on_x, x, np.where(on_y, y, z))
    face = np.where(on_x, 0, np.where(on_y, 2, 4)) + (dom < 0)
    scale = np.abs(dom)
    return face, np.where(on_x, y, x) / scale, np.where(on_x | on_y, z, y) / scale


def _cell_index(u: np.ndarray, m: int) -> np.ndarray:
    """Index 0..m-1 of the cell holding each u when [-1, 1] splits into m cells."""
    return np.clip(((u + 1.0) * 0.5 * m).astype(np.int64), 0, m - 1)


def _spread_bits(i: np.ndarray) -> np.ndarray:
    """Bit b of each ``i`` < 2^32 moved to bit 2 b (uint64)."""
    x = i.astype(np.uint64)
    for shift, keep in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        x |= x << np.uint64(shift)
        x &= np.uint64(keep)
    return x


def _morton_keys(points: np.ndarray, level: int) -> np.ndarray:
    """Cell key of each point at ``level``: the face, then the interleaved
    bits of its u and v cell indices (3 + 2 level bits)."""
    face, u, v = _face_coords(points)
    m = 1 << level
    keys = _spread_bits(_cell_index(u, m)) << np.uint64(1)
    keys |= _spread_bits(_cell_index(v, m))
    keys |= face.astype(np.uint64) << np.uint64(2 * level)
    return keys


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
    if not worst <= 1e-9:  # nan too
        raise ValueError(f"cloud is {worst:.2e} off the unit sphere")
    eps = np.array([max_cell_diameter(k) for k in range(levels)])
    # neighbouring sorted keys lie in different level-k cells exactly when
    # their XOR keeps a bit after the shift by 2 (K - k)
    finest = levels - 1
    keys = np.sort(_morton_keys(points, finest))
    change = keys[1:] ^ keys[:-1]
    counts = np.array([1 + np.count_nonzero(change >> 2 * (finest - k))
                       for k in range(levels)], dtype=float)
    slope, fit_levels, rms, r2 = _fit(eps, counts, len(points))
    return BoxCountResult(eps, counts, len(points), slope, fit_levels, rms, r2)


def estimate_dimension(result: BoxCountResult) -> float:
    """Dimension from the banded fit; errors when under three levels are usable."""
    if result.fit_levels is None or math.isnan(result.slope):
        raise ValueError(
            "fewer than 3 levels satisfy 10 <= N <= n/10; "
            "supply more points or fewer levels")
    return result.slope
