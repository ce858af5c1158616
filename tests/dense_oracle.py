"""Shared by the sparse-counting property tests: the per-grid-cell routes
that ``render`` and ``box_count`` replaced, kept as oracles.

``dense_render`` counts every pixel of the raster with ``bincount`` and
``unique_box_counts`` runs ``np.unique`` over the cell keys of each level.
Both allocate work per grid cell, so they suit small grids only.
"""

import math

import numpy as np

from qmix.boxdim import _cell_index, _face_coords
from qmix.render import DETECTOR_COLORS, _pixel_coords


def _intensity(hits):
    """Gray level of every pixel's hit count; all black when none is hit."""
    top = hits.max()
    if top <= 0:
        return np.zeros(hits.shape, dtype=np.uint8)
    return np.rint(255.0 * np.log1p(hits) / math.log1p(top)).astype(np.uint8)


def dense_render(points, spec, detectors=None, comments=()):
    """PGM/PPM bytes from a dense per-pixel (per-detector) hit table."""
    points = np.asarray(points, dtype=float)
    px, py, mask, width, height = _pixel_coords(points, spec)
    flat = py * width + px
    if spec.mode == "pgm":
        hits = np.bincount(flat, minlength=width * height)
        img = _intensity(hits)
        magic = b"P5"
    else:
        det = np.asarray(detectors, dtype=int)[mask] - 1
        per = np.bincount(flat * 4 + det, minlength=4 * width * height).reshape(-1, 4)
        winner = per.argmax(axis=1)  # the lowest detector of a tie
        img = (DETECTOR_COLORS[winner].astype(np.uint16)
               * _intensity(per.sum(axis=1))[:, None].astype(np.uint16) // 255).astype(np.uint8)
        magic = b"P6"
    head = [magic]
    head.extend(b"# " + c.encode() for c in comments)
    head.append(f"{width} {height}".encode())
    head.append(b"255")
    return b"\n".join(head) + b"\n" + img.tobytes()


def unique_box_counts(points, levels):
    """Occupied cells at each level k < levels, one ``np.unique`` per level."""
    face, u, v = _face_coords(np.asarray(points, dtype=float))
    counts = np.empty(levels)
    for k in range(levels):
        m = 1 << k
        cells = (face * m + _cell_index(u, m)) * m + _cell_index(v, m)
        counts[k] = len(np.unique(cells))
    return counts
