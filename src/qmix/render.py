"""Raster rendering of sphere point clouds to binary PGM/PPM.

Deliberately dependency-free: both formats are written byte-exactly, so a
cloud plus a render spec always reproduces the identical file.  Intensity
is log-scaled hit count per pixel; PPM mode colors each pixel by the
detector with the most hits there, the lowest of a tie.

Hits are counted from one sort of the visible points' keys, the pixel p
(PGM) or 4 p + d for detector d (PPM).  Each run of equal keys is one
occupied pixel (or pixel and detector), so only occupied pixels get an
intensity and a color, and they are scattered into the zeroed pixels of
the output file's own buffer.  Work and memory beyond that one buffer are
O(points) at any raster size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boxdim import _cell_index, _face_coords
from .states import _unit_direction

AXIS_PROJECTIONS = {
    "+x": (0, 1, 2), "-x": (0, 1, 2),
    "+y": (1, 0, 2), "-y": (1, 0, 2),
    "+z": (2, 0, 1), "-z": (2, 0, 1),
}
PROJECTIONS = tuple(AXIS_PROJECTIONS) + ("net",)

# fixed detector palette (detectors 1..4)
DETECTOR_COLORS = np.array([
    [230, 25, 75],
    [60, 180, 75],
    [0, 130, 200],
    [255, 225, 25],
], dtype=np.uint8)

# cross layout: panel column and row of each face id (2*axis + negative)
_NET_COLS = np.array([2, 0, 1, 1, 1, 3])
_NET_ROWS = np.array([1, 1, 0, 2, 1, 1])


@dataclass(frozen=True)
class RenderSpec:
    """Projection plus raster parameters.

    ``zoom_center``/``zoom_radius`` switch to a tangent-plane view of the
    cap of the given angular radius around the center direction.
    """
    projection: str = "+z"
    size: int = 800
    mode: str = "pgm"
    zoom_center: Optional[tuple[float, float, float]] = None
    zoom_radius: Optional[float] = None

    def __post_init__(self):
        if self.projection not in PROJECTIONS:
            raise ValueError(f"projection must be one of {PROJECTIONS}")
        if not 64 <= self.size <= 8192:
            raise ValueError("image size must lie in [64, 8192]")
        if self.mode not in ("pgm", "ppm"):
            raise ValueError("mode must be 'pgm' or 'ppm'")
        if (self.zoom_center is None) != (self.zoom_radius is None):
            raise ValueError("zoom needs both a center and an angular radius")
        if self.zoom_radius is not None and not 0 < self.zoom_radius <= math.pi / 2:
            raise ValueError("zoom radius must lie in (0, pi/2]")
        if self.zoom_center is not None:
            _unit_direction(self.zoom_center, "zoom_center")


def _zoom_coords(points: np.ndarray, center, radius: float):
    c = np.array(_unit_direction(center, "zoom_center"))
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(c)))] = 1.0
    e1 = np.cross(c, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    mask = points @ c >= math.cos(radius)
    scale = math.sin(radius)
    u = (points[mask] @ e1) / scale
    v = (points[mask] @ e2) / scale
    return u, v, mask


def _axis_coords(points: np.ndarray, projection: str):
    axis, ua, va = AXIS_PROJECTIONS[projection]
    sign = 1.0 if projection[0] == "+" else -1.0
    mask = sign * points[:, axis] >= 0.0
    u = points[mask, ua] * sign
    v = points[mask, va]
    return u, v, mask


def _net_pixels(points: np.ndarray, panel: int):
    face, u, v = _face_coords(points)
    px = _NET_COLS[face] * panel + _cell_index(u, panel)
    py = _NET_ROWS[face] * panel + _cell_index(v, panel)
    return px, py, np.ones(len(points), dtype=bool)


def _pixel_coords(points: np.ndarray, spec: RenderSpec):
    """(px, py, mask, width, height) of every visible point."""
    if spec.projection == "net":
        panel = spec.size // 4
        px, py, mask = _net_pixels(points, panel)
        return px, py, mask, 4 * panel, 3 * panel
    if spec.zoom_center is not None:
        u, v, mask = _zoom_coords(points, spec.zoom_center, spec.zoom_radius)
    else:
        u, v, mask = _axis_coords(points, spec.projection)
    return _cell_index(u, spec.size), _cell_index(v, spec.size), mask, spec.size, spec.size


def _intensity(hits: np.ndarray) -> np.ndarray:
    """Gray level of each occupied pixel's hit count, log-scaled to 255."""
    return np.rint(255.0 * np.log1p(hits) / math.log1p(hits.max())).astype(np.uint8)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of the sorted nonempty ``keys`` and its run length."""
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.diff(np.r_[starts, len(keys)])


def render(points: np.ndarray, spec: RenderSpec,
           detectors: Optional[np.ndarray] = None,
           comments: tuple[str, ...] = ()) -> bytearray:
    """Rasterize a cloud to PGM (grayscale) or PPM (detector-colored) bytes.

    PPM mode needs one detector label in 1..4 per point, else ValueError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
        raise ValueError("expected a nonempty (n, 3) point cloud")
    px, py, mask, width, height = _pixel_coords(points, spec)
    flat = py * width + px
    if spec.mode == "pgm":
        data, img = _pnm_buffer(b"P5", width, height, 1, comments)
        if len(flat):
            pixels, hits = _runs(np.sort(flat))
            img[pixels, 0] = _intensity(hits)
        return data
    if detectors is None:
        raise ValueError("ppm mode needs a detector label per point")
    det = np.asarray(detectors, dtype=int)
    if det.shape != (len(points),):
        raise ValueError("detector labels must match the cloud length")
    if not 1 <= det.min() <= det.max() <= 4:
        raise ValueError("detector labels must lie in 1..4")
    data, img = _pnm_buffer(b"P6", width, height, 3, comments)
    if len(flat):
        # hits of pixel p at detector d form the run of key 4 p + d
        cells, hits = _runs(np.sort(flat * 4 + (det[mask] - 1)))
        starts = np.flatnonzero(np.r_[True, (cells[1:] >> 2) != (cells[:-1] >> 2)])
        # a pixel's largest 4 h + 3 - d names its most-hit detector, the
        # lowest of a tie
        best = np.maximum.reduceat(hits * 4 + (3 - (cells & 3)), starts)
        shade = _intensity(np.add.reduceat(hits, starts)).astype(np.uint16)
        img[cells[starts] >> 2] = (DETECTOR_COLORS[3 - (best & 3)].astype(np.uint16)
                                   * shade[:, None] // 255)
    return data


def _pnm_buffer(magic: bytes, width: int, height: int, channels: int,
                comments: tuple[str, ...]) -> tuple[bytearray, np.ndarray]:
    """The whole file, header lines then zeroed pixels, and a writable
    (pixels, channels) view of its pixels: the image is scattered into
    the file's own buffer, never copied."""
    head = [magic]
    head.extend(b"# " + c.encode() for c in comments)
    head.append(f"{width} {height}".encode())
    head.append(b"255\n")
    header = b"\n".join(head)
    data = bytearray(len(header) + width * height * channels)
    data[:len(header)] = header
    img = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    return data, img.reshape(width * height, channels)
