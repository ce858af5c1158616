"""Routes that the library replaced with faster ones, kept as test oracles.

``dense_render`` counts every pixel of the raster with ``bincount`` and
``unique_box_counts`` runs ``np.unique`` over the cell keys of each level.
Both allocate work per grid cell, so they suit small grids only.
``argmax_face_coords`` is the face projection by ``argmax`` and 2-D fancy
indexing.  ``pf_affine`` pushes a piece table forward one step by gathering
the r preimage pieces of every image piece, and ``iterated_distance_table``
fills the classical distance table with it, one push-forward and one exact
L1 distance per probe and iterate.  ``dedupe_breaks_oracle`` merges the
image breaks of ``pf_affine`` by the sequential rule, one point at a time,
so the oracle does not lean on the library's snapping.
"""

import math

import numpy as np

from qmix.boxdim import _cell_index, _face_coords
from qmix.circle import _BREAK_TOL, TWO_PI, CircleDensity, _piece_of, l1_distance
from qmix.render import DETECTOR_COLORS, _pixel_coords

_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


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


def argmax_face_coords(points):
    """(face id 0..5, u, v) of the cube-face central projection; the first
    axis of largest |coordinate| wins a tie."""
    idx = np.arange(len(points))
    axis = np.argmax(np.abs(points), axis=1)
    dom = points[idx, axis]
    face = 2 * axis + (dom < 0)
    u = points[idx, _OTHER_AXES[axis, 0]] / np.abs(dom)
    v = points[idx, _OTHER_AXES[axis, 1]] / np.abs(dom)
    return face, u, v


def dedupe_breaks_oracle(points):
    """Sorted breaks, each kept when more than the tolerance past the last
    kept one, walked one point at a time."""
    pts = np.sort(np.mod(points, TWO_PI))
    pts = pts[(pts > _BREAK_TOL) & (pts < TWO_PI - _BREAK_TOL)]
    keep = [0.0]
    for p in pts:
        if p - keep[-1] > _BREAK_TOL:
            keep.append(float(p))
    keep.append(TWO_PI)
    return np.array(keep)


def pf_affine(f, r):
    """One push-forward under x -> r x (mod 2pi).

    The image pieces sit between the images r b of the breaks; on each,
    branch j pulls back the piece of f holding its midpoint's preimage.
    The r branches are summed with ``math.fsum``: a running sum of 1024
    terms of size 1/r is off by up to 1e-14 (the library's route did so).
    """
    breaks = dedupe_breaks_oracle(np.concatenate([np.mod(r * f.breaks[:-1], TWO_PI), [0.0]]))
    xm = 0.5 * (breaks[:-1] + breaks[1:])
    j = np.arange(r)[:, None]
    c, s = np.moveaxis(f.coefs[_piece_of(f.breaks, (xm + TWO_PI * j) / r)], -1, 0)
    c_new = np.array([math.fsum(col) for col in ((c + s * TWO_PI * j / r) / r).T])
    s_new = np.array([math.fsum(col) for col in (s / (r * r)).T])
    return CircleDensity.from_pieces(
        np.column_stack([breaks[:-1], breaks[1:], c_new, s_new]))


def iterated_distance_table(f0, probes, r, n_max):
    """||P^n probe - P^n f0||_1 for n = 0..n_max, iterating ``pf_affine``."""
    current = [f0] + list(probes)
    dists = np.empty((len(probes), n_max + 1))
    for n in range(n_max + 1):
        for j in range(len(probes)):
            dists[j, n] = l1_distance(current[j + 1], current[0])
        if n < n_max:
            current = [pf_affine(h, r) for h in current]
    return dists
