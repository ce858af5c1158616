"""Densities on the circle and the transfer operator of the r-adic map.

Densities live on [0, 2pi) with the normalized measure dx / 2pi, and each
is one exact piecewise-affine piece table: ``breaks`` 0 = b_0 < ... <
b_n = 2pi and ``coefs`` rows (c, s) with f = c + s x on [b_i, b_i+1).  The
table is closed under the transfer operator of S(x) = r x (mod 2pi),

    (P f)(x) = (1/r) * sum_{j=0..r-1} f(x / r + 2 pi j / r)

and every operation below is an array operation on it: integrals,
distances, entropies and Fourier coefficients are closed forms (relative
entropy uses Gauss quadrature inside each piece).  No samples are kept;
``evaluate(grid_points(m))`` samples the table where a grid is needed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fitting import ExponentEstimate, probe_exponent

TWO_PI = 2.0 * math.pi
_BREAK_TOL = 1e-12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# Samples per grid, 8 MB at the cap.  `qmix classical` samples only for
# --density-out: 121 MB peak RSS and 2.9 s at this cap with 100 probe ks (2 CPUs).
MAX_GRID_SIZE = 2 ** 20
# Radix of the r-adic map: the push-forward gathers an (r, pieces) array, so
# its cost is linear in r (`qmix classical` takes about 0.4 s at the cap with
# its other defaults).
MAX_R = 1024
# Iterates per probe in lambda_classical: its run time is linear in n_max
# (`qmix classical` takes about 3 s at the cap with its other defaults).
# The sawtooth probes reach the 1e-13 floor within about 45 iterates at r = 2.
# With every cap at once (r = 1024, 1000 iterates, 100 probe ks and 2^20
# --density-out samples) `qmix classical` takes 39 s and peaks at 96 MB RSS.
MAX_ITERATES = 1000


def _dedupe_breaks(points: np.ndarray) -> np.ndarray:
    """Sorted breakpoints on [0, 2pi] with sub-1e-12 gaps collapsed.

    A point is kept when it lies more than the tolerance past the last kept
    one.  A point that far past its predecessor is that far past every kept
    point before it, so only points after a sub-tolerance gap are checked
    one by one.
    """
    pts = np.sort(np.mod(points, TWO_PI))
    pts = pts[(pts > _BREAK_TOL) & (pts < TWO_PI - _BREAK_TOL)]
    keep = np.diff(pts, prepend=0.0) > _BREAK_TOL
    close = np.flatnonzero(~keep)
    # the largest point kept so far by the gap rule, up to each close point
    sure = np.maximum.accumulate(np.where(keep, pts, 0.0))[close]
    last = 0.0
    for i, p, before in zip(close.tolist(), pts[close].tolist(), sure.tolist()):
        last = max(last, before)
        if p - last > _BREAK_TOL:
            keep[i] = True
            last = p
    return np.concatenate(([0.0], pts[keep], [TWO_PI]))


def grid_points(m: int) -> np.ndarray:
    """The uniform grid x_j = j 2pi / m, j = 0..m-1, on which densities are sampled."""
    if not 8 <= m <= MAX_GRID_SIZE:
        raise ValueError(f"grid size {m} must be from 8 to the MAX_GRID_SIZE cap of {MAX_GRID_SIZE}")
    return np.arange(m) * (TWO_PI / m)


def _piece_of(breaks: np.ndarray, x) -> np.ndarray:
    """Index of the piece [breaks[i], breaks[i + 1]) holding each x in [0, 2pi]."""
    return np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, len(breaks) - 2)


def _segment_integral(c, s, u, v):
    """Integral of c + s x over [u, v]."""
    return c * (v - u) + 0.5 * s * (v * v - u * u)


def _x_log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log(x / y) elementwise, 0 where x <= 0."""
    pos = x > 0.0
    return np.where(pos, x * np.log(np.where(pos, x, 1.0) / y), 0.0)


class CircleDensity:
    """Nonnegative unit-mass density on the circle, held as its piece table
    ``breaks``/``coefs``; every integral below is computed from it in
    closed form."""

    def __init__(self, breaks: np.ndarray, coefs: np.ndarray):
        # an affine piece takes its minimum at one of its ends
        c, s = coefs.T
        low = min(np.min(c + s * breaks[:-1]), np.min(c + s * breaks[1:]))
        if low < -1e-12:
            raise ValueError(f"density has negative values (min {low:.3e})")
        self.breaks = breaks
        self.coefs = coefs
        mass = self.mass()
        if not abs(mass - 1.0) <= 1e-9:
            raise ValueError(f"density mass is {mass:.12g}, expected 1")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pieces(cls, pieces: Sequence[tuple[float, float, float, float]]) -> "CircleDensity":
        """Build from (x0, x1, c, s) pieces tiling [0, 2pi), f(x) = c + s x."""
        table = np.asarray(pieces, dtype=float)
        if table.ndim != 2 or table.shape[1] != 4 or len(table) == 0:
            raise ValueError("pieces must be (x0, x1, c, s) rows tiling [0, 2pi)")
        if not np.all(np.isfinite(table)):
            raise ValueError("pieces must be finite")
        table = table[np.lexsort(table.T[::-1])]  # row order of sorted(pieces)
        br = np.append(table[:, 0], table[-1, 1])
        if abs(br[0]) > _BREAK_TOL or abs(br[-1] - TWO_PI) > _BREAK_TOL:
            raise ValueError("pieces must tile [0, 2pi)")
        if np.any(np.abs(table[:-1, 1] - table[1:, 0]) > _BREAK_TOL):
            raise ValueError("pieces must be contiguous")
        br[0] = 0.0
        br[-1] = TWO_PI
        return cls(br, table[:, 2:])

    @classmethod
    def uniform(cls) -> "CircleDensity":
        return cls.from_pieces([(0.0, TWO_PI, 1.0, 0.0)])

    @property
    def has_pieces(self) -> bool:
        """Always True.  Kept only because the benchmark tracer's
        ``circle.pieces`` counter (bench/spans.py) reads it, and the tier-1
        suite runs that counter through bench/test_bench.py."""
        return True

    def evaluate(self, x) -> np.ndarray:
        """Pointwise values of the density."""
        x = np.mod(np.asarray(x, dtype=float), TWO_PI)
        idx = _piece_of(self.breaks, x)
        return self.coefs[idx, 0] + self.coefs[idx, 1] * x

    def mass(self) -> float:
        c, s = self.coefs.T
        return float(np.sum(_segment_integral(c, s, self.breaks[:-1],
                                              self.breaks[1:]))) / TWO_PI


def sawtooth_density(k: int) -> CircleDensity:
    """f(x) = 1 + (x - pi) / (k pi): a tilted density converging to uniform."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return CircleDensity.from_pieces(
        [(0.0, TWO_PI, 1.0 - 1.0 / k, 1.0 / (k * math.pi))])


def linear_ramp_density() -> CircleDensity:
    """f(x) = x / pi: the unit-interval density 2x rescaled to the circle."""
    return CircleDensity.from_pieces([(0.0, TWO_PI, 0.0, 1.0 / math.pi)])


# -- transfer operator ----------------------------------------------------

def _pf_affine(f: CircleDensity, r: int) -> CircleDensity:
    # the image pieces sit between the images r b of the breaks; on each,
    # branch j pulls back the piece of f holding its midpoint's preimage.
    # The (r, pieces) gather never outgrows r times f's pieces: the image
    # has no more pieces than f.
    breaks = _dedupe_breaks(np.concatenate([np.mod(r * f.breaks[:-1], TWO_PI), [0.0]]))
    xm = 0.5 * (breaks[:-1] + breaks[1:])
    j = np.arange(r)[:, None]
    c, s = np.moveaxis(f.coefs[_piece_of(f.breaks, (xm + TWO_PI * j) / r)], -1, 0)
    c_new = np.sum((c + s * TWO_PI * j / r) / r, axis=0)
    s_new = np.sum(s / (r * r), axis=0)
    return CircleDensity.from_pieces(
        np.column_stack([breaks[:-1], breaks[1:], c_new, s_new]))


def pf_apply(f: CircleDensity, r: int) -> CircleDensity:
    """Push a density forward under x -> r x (mod 2pi); pieces map to pieces exactly."""
    if not 2 <= r <= MAX_R or int(r) != r:
        raise ValueError(f"r must be an integer from 2 to the MAX_R cap of {MAX_R} (got {r})")
    return _pf_affine(f, int(r))


# -- integrals ------------------------------------------------------------

def _merged_table(f: CircleDensity, g: CircleDensity):
    """Merged breaks of f and g and the (c, s) columns of each on every merged piece."""
    breaks = _dedupe_breaks(np.concatenate([f.breaks[:-1], g.breaks[:-1], [0.0]]))
    xm = 0.5 * (breaks[:-1] + breaks[1:])
    return (breaks, f.coefs[_piece_of(f.breaks, xm)].T,
            g.coefs[_piece_of(g.breaks, xm)].T)


def l1_distance(f: CircleDensity, g: CircleDensity) -> float:
    """Integral of |f - g| d mu, exact."""
    breaks, (cf, sf), (cg, sg) = _merged_table(f, g)
    u, v = breaks[:-1], breaks[1:]
    dc, ds = cf - cg, sf - sg
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -dc / ds  # inf or nan where ds = 0, never inside (u, v)
    root = np.where((u < root) & (root < v), root, v)
    total = (np.abs(_segment_integral(dc, ds, u, root))
             + np.abs(_segment_integral(dc, ds, root, v)))
    return float(np.sum(total)) / TWO_PI


def _eta_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean of -w log w over [a, b] for endpoint values a, b >= 0.

    (lo + hi)(1/4 - log(hi)/2) - lo^2 log1p(d/lo) / (2d), d = hi - lo, stays
    accurate as a piece flattens, where antiderivative differences cancel.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(d > 0.0, np.log1p(d / lo) / d, 1.0 / lo)
        head = np.where(hi > 0.0, (lo + hi) * (0.25 - 0.5 * np.log(hi)), 0.0)
        return head - np.where(lo > 0.0, 0.5 * lo * lo * log_ratio, 0.0)


def entropy(f: CircleDensity) -> float:
    """Integral of eta(f) d mu with eta(x) = -x log x; maximal (0) at uniform."""
    c, s = f.coefs.T
    u, v = f.breaks[:-1], f.breaks[1:]
    means = _eta_mean(np.clip(c + s * u, 0.0, None), np.clip(c + s * v, 0.0, None))
    return float(np.sum((v - u) * means)) / TWO_PI


def relative_entropy(f: CircleDensity, g: CircleDensity,
                     support_tol: float = 1e-14) -> float:
    """Integral of f log(f/g) d mu, or inf when f has mass where g vanishes.

    The pair is integrated per merged piece with 32-node Gauss quadrature
    (the integrand is smooth inside each piece).
    """
    breaks, (cf, sf), (cg, sg) = _merged_table(f, g)
    u, v = breaks[:-1], breaks[1:]
    void = np.maximum(cg + sg * u, cg + sg * v) < support_tol
    if np.any(void & (_segment_integral(cf, sf, u, v) > support_tol)):
        return math.inf
    half = 0.5 * (v - u)
    x = half[:, None] * _GL_NODES + (0.5 * (u + v))[:, None]
    fx = np.clip(cf[:, None] + sf[:, None] * x, 0.0, None)
    gx = np.clip(cg[:, None] + sg[:, None] * x, support_tol, None)
    per_piece = np.where(void, 0.0, half * (_x_log(fx, gx) @ _GL_WEIGHTS))
    return max(float(np.sum(per_piece)) / TWO_PI, 0.0)


# -- exponent and Fourier diagnostics --------------------------------------

def lambda_classical(f0: CircleDensity, probes: Sequence[CircleDensity], r: int,
                     n_max: int = 12) -> ExponentEstimate:
    """Decay exponent of ||P^n f - P^n f0||_1, minimum over probes.

    The (probes, n) distance table goes to
    :func:`qmix.fitting.probe_exponent`, the protocol of the quantum
    estimator: slopes are fitted over iteration counts n in [n_max/2,
    n_max] (n_max >= 4 puts three iterates there).  A probe whose distance
    falls to the 1e-13 floor too early for a fit window (affine iterates
    can reach the uniform density in finitely many steps) is excluded
    with a note rather than fitted.
    """
    if not probes:
        raise ValueError("need at least one probe density")
    if n_max < 4:
        raise ValueError(f"n_max must be at least 4 (got {n_max}) for three fitted iterates")
    if n_max > MAX_ITERATES:
        raise ValueError(f"n_max = {n_max} exceeds the MAX_ITERATES cap of {MAX_ITERATES}")
    for i, p in enumerate(probes):
        if l1_distance(p, f0) < 1e-12:
            raise ValueError(f"probe {i} equals the reference density")
    steps = np.arange(n_max + 1, dtype=float)
    current = [f0] + list(probes)
    dists = np.empty((len(probes), n_max + 1))
    for n in range(n_max + 1):
        for j in range(len(probes)):
            dists[j, n] = l1_distance(current[j + 1], current[0])
        if n < n_max:
            current = [pf_apply(h, r) for h in current]
    return probe_exponent(steps, dists, 1e-13)


def fourier_coefficient(f: CircleDensity, k: int) -> complex:
    """f^(k) = (1/2pi) integral e^{-ikx} f(x) dx, in closed form at every integer k.

    On a piece c + s x the integrand has the antiderivative
    e^{-ikx} (i (c + s x) / k + s / k^2).
    """
    if k == 0:
        return complex(f.mass())
    c, s = f.coefs.T

    def antiderivative(x):
        return np.exp(-1j * k * x) * (1j * (c + s * x) / k + s / (k * k))

    return complex(np.sum(antiderivative(f.breaks[1:]) - antiderivative(f.breaks[:-1]))) / TWO_PI


def fourier_check(f: CircleDensity, r: int, k: int, n: int) -> tuple[complex, complex]:
    """Return ((P^n f)^(k), f^(k r^n)); the two agree for the r-adic map."""
    target = fourier_coefficient(f, k * r ** n)
    g = f
    for _ in range(n):
        g = pf_apply(g, r)
    return fourier_coefficient(g, k), target
