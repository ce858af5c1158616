"""Densities on the circle and the transfer operator of the r-adic map.

Densities live on [0, 2pi) with the normalized measure dx / 2pi, and each
holds exactly one of two representations:

* exact piecewise-affine, one piece table: ``breaks`` 0 = b_0 < ... <
  b_n = 2pi and ``coefs`` rows (c, s) with f = c + s x on [b_i, b_i+1).
  The table is closed under the transfer operator of S(x) = r x (mod 2pi),
  and every affine operation is an array operation on it.  No samples are
  kept; ``evaluate(grid_points(m))`` samples the table where a grid is
  needed;
* uniform grids of M samples, pushed forward spectrally (the operator
  maps the Fourier coefficient at k r to the one at k), which is exact on
  trigonometric polynomials below the alias limit and spectrally accurate
  on smooth densities.

The transfer operator itself is

    (P f)(x) = (1/r) * sum_{j=0..r-1} f(x / r + 2 pi j / r)

Grid mode requires M divisible by r.  Integrals are exact on affine
pairs and use the periodic trapezoid rule (the grid mean) otherwise, an
affine side sampled on the other's grid.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .fitting import ExponentEstimate, probe_exponent

TWO_PI = 2.0 * math.pi
_BREAK_TOL = 1e-12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# Samples per grid, 8 MB at the cap.  `qmix classical` samples only for
# --density-out: 145 MB and 2.6 s at this cap with 100 probe ks (2 CPUs).
MAX_GRID_SIZE = 2 ** 20
# Radix of the r-adic map: the exact affine push-forward loops once per
# branch, so its cost is linear in r (`qmix classical` takes about 1.2 s at
# the cap with its other defaults).
MAX_R = 1024
# Iterates per probe in lambda_classical: its run time is linear in n_max
# (`qmix classical` takes about 1.1 s at the cap with its other defaults).
# The sawtooth probes reach the 1e-13 floor within about 45 iterates at r = 2.
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


def _x_log(x: np.ndarray, y=1.0) -> np.ndarray:
    """x log(x / y) elementwise, 0 where x <= 0."""
    pos = x > 0.0
    return np.where(pos, x * np.log(np.where(pos, x, 1.0) / y), 0.0)


class CircleDensity:
    """Nonnegative unit-mass density on the circle, in one representation.

    An affine density holds only its piece table ``breaks``/``coefs``
    (``grid`` is None), and every integral below is computed from it in
    closed form.  A grid density holds only ``grid``, M samples at
    x_m = 2 pi m / M (``breaks`` and ``coefs`` are None).
    """

    def __init__(self, grid: Optional[np.ndarray], breaks: Optional[np.ndarray] = None,
                 coefs: Optional[np.ndarray] = None):
        if grid is not None:
            grid = np.asarray(grid, dtype=float)
            if grid.ndim != 1 or len(grid) < 8:
                raise ValueError("grid must hold at least 8 samples")
            if not np.all(np.isfinite(grid)):
                raise ValueError("density samples must be finite")
            low = grid.min()
            grid = np.clip(grid, 0.0, None)
        else:
            # an affine piece takes its minimum at one of its ends
            c, s = coefs.T
            low = min(np.min(c + s * breaks[:-1]), np.min(c + s * breaks[1:]))
        if low < -1e-12:
            raise ValueError(f"density has negative values (min {low:.3e})")
        self.grid = grid
        self.breaks = breaks
        self.coefs = coefs
        mass = self.mass()
        if not abs(mass - 1.0) <= 1e-9:
            raise ValueError(f"density mass is {mass:.12g}, expected 1")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_grid(cls, values: Sequence[float]) -> "CircleDensity":
        return cls(np.asarray(values, dtype=float))

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
        return cls(None, br, table[:, 2:])

    @classmethod
    def uniform(cls) -> "CircleDensity":
        return cls.from_pieces([(0.0, TWO_PI, 1.0, 0.0)])

    @property
    def has_pieces(self) -> bool:
        return self.breaks is not None

    @property
    def grid_size(self) -> int:
        return len(self.grid)

    def evaluate(self, x) -> np.ndarray:
        """Pointwise values of an affine density."""
        x = np.mod(np.asarray(x, dtype=float), TWO_PI)
        idx = _piece_of(self.breaks, x)
        return self.coefs[idx, 0] + self.coefs[idx, 1] * x

    def mass(self) -> float:
        if self.has_pieces:
            c, s = self.coefs.T
            return float(np.sum(_segment_integral(c, s, self.breaks[:-1],
                                                  self.breaks[1:]))) / TWO_PI
        return float(np.mean(self.grid))


def sawtooth_density(k: int) -> CircleDensity:
    """f(x) = 1 + (x - pi) / (k pi): a tilted density converging to uniform."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return CircleDensity.from_pieces(
        [(0.0, TWO_PI, 1.0 - 1.0 / k, 1.0 / (k * math.pi))])


def linear_ramp_density() -> CircleDensity:
    """f(x) = x / pi: the unit-interval density 2x rescaled to the circle."""
    return CircleDensity.from_pieces([(0.0, TWO_PI, 0.0, 1.0 / math.pi)])


def trig_density(cos_coeffs: Sequence[float], sin_coeffs: Sequence[float] = (),
                 grid_size: int = 1024) -> CircleDensity:
    """1 + sum_j a_j cos(j x) + b_j sin(j x); must be nonnegative."""
    xs = grid_points(grid_size)
    vals = np.ones(grid_size)
    for j, a in enumerate(cos_coeffs, start=1):
        vals += a * np.cos(j * xs)
    for j, b in enumerate(sin_coeffs, start=1):
        vals += b * np.sin(j * xs)
    if vals.min() < -1e-12:
        raise ValueError("coefficients produce a negative density")
    return CircleDensity.from_grid(vals)


# -- transfer operator ----------------------------------------------------

def _pf_affine(f: CircleDensity, r: int) -> CircleDensity:
    # the image pieces sit between the images r b of the breaks; on each,
    # branch j pulls back the piece of f holding its midpoint's preimage
    breaks = _dedupe_breaks(np.concatenate([np.mod(r * f.breaks[:-1], TWO_PI), [0.0]]))
    xm = 0.5 * (breaks[:-1] + breaks[1:])
    c_new = s_new = 0.0
    for j in range(r):
        c, s = f.coefs[_piece_of(f.breaks, (xm + TWO_PI * j) / r)].T
        c_new += (c + s * TWO_PI * j / r) / r
        s_new += s / (r * r)
    return CircleDensity.from_pieces(
        np.column_stack([breaks[:-1], breaks[1:], c_new, s_new]))


def _pf_spectral(f: CircleDensity, r: int) -> CircleDensity:
    m = f.grid_size
    if m % r != 0:
        raise ValueError(f"grid size {m} must be divisible by r = {r}")
    c = np.fft.fft(f.grid)
    half = m // 2
    kp = np.arange(m)
    signed = ((kp + half) % m) - half     # frequency of each FFT bin
    src = r * signed
    out = np.zeros_like(c)
    ok = np.abs(src) < half
    out[kp[ok]] = c[np.mod(src[ok], m)]
    vals = np.fft.ifft(out).real
    if vals.min() < -1e-9:
        raise ValueError(
            "spectral push-forward produced significantly negative values; "
            "grid mode expects a smooth density")
    return CircleDensity(vals)


def pf_apply(f: CircleDensity, r: int) -> CircleDensity:
    """Push a density forward under x -> r x (mod 2pi).

    Affine densities transform exactly (pieces map to pieces); grid-only
    densities use the spectral rule (P f)^(k) = f^(k r).
    """
    if not 2 <= r <= MAX_R or int(r) != r:
        raise ValueError(f"r must be an integer from 2 to the MAX_R cap of {MAX_R} (got {r})")
    r = int(r)
    if f.has_pieces:
        return _pf_affine(f, r)
    return _pf_spectral(f, r)


# -- integrals ------------------------------------------------------------

def _merged_table(f: CircleDensity, g: CircleDensity):
    """Merged breaks of f and g and the (c, s) columns of each on every merged piece."""
    breaks = _dedupe_breaks(np.concatenate([f.breaks[:-1], g.breaks[:-1], [0.0]]))
    xm = 0.5 * (breaks[:-1] + breaks[1:])
    return (breaks, f.coefs[_piece_of(f.breaks, xm)].T,
            g.coefs[_piece_of(g.breaks, xm)].T)


def _grid_pair(f: CircleDensity, g: CircleDensity) -> tuple[np.ndarray, np.ndarray]:
    """Sample values on a shared grid; an affine side is sampled on the other's grid."""
    if f.has_pieces:
        return f.evaluate(grid_points(g.grid_size)), g.grid
    if g.has_pieces:
        return f.grid, g.evaluate(grid_points(f.grid_size))
    if f.grid_size != g.grid_size:
        raise ValueError("grid densities must share a grid size")
    return f.grid, g.grid


def l1_distance(f: CircleDensity, g: CircleDensity) -> float:
    """Integral of |f - g| d mu; exact when both densities are affine."""
    if f.has_pieces and g.has_pieces:
        breaks, (cf, sf), (cg, sg) = _merged_table(f, g)
        u, v = breaks[:-1], breaks[1:]
        dc, ds = cf - cg, sf - sg
        with np.errstate(divide="ignore", invalid="ignore"):
            root = -dc / ds  # inf or nan where ds = 0, never inside (u, v)
        root = np.where((u < root) & (root < v), root, v)
        total = (np.abs(_segment_integral(dc, ds, u, root))
                 + np.abs(_segment_integral(dc, ds, root, v)))
        return float(np.sum(total)) / TWO_PI
    fv, gv = _grid_pair(f, g)
    return float(np.mean(np.abs(fv - gv)))


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
    if f.has_pieces:
        c, s = f.coefs.T
        u, v = f.breaks[:-1], f.breaks[1:]
        means = _eta_mean(np.clip(c + s * u, 0.0, None), np.clip(c + s * v, 0.0, None))
        return float(np.sum((v - u) * means)) / TWO_PI
    return float(np.mean(-_x_log(f.grid)))


def relative_entropy(f: CircleDensity, g: CircleDensity,
                     support_tol: float = 1e-14) -> float:
    """Integral of f log(f/g) d mu, or inf when f has mass where g vanishes.

    Affine pairs are integrated per merged piece with 32-node Gauss
    quadrature (the integrand is smooth inside each piece); grid pairs use
    the periodic trapezoid rule.
    """
    if f.has_pieces and g.has_pieces:
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
    fv, gv = _grid_pair(f, g)
    if np.any((gv < support_tol) & (fv > support_tol)):
        return math.inf
    return max(float(np.mean(_x_log(fv, np.clip(gv, support_tol, None)))), 0.0)


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


def density_from_csv(text: str) -> CircleDensity:
    """Rebuild a grid density from x,f(x) rows on a uniform grid.

    Sampling a density with jumps loses O(1/M) of its mass to the
    discontinuities; imports off by at most 1e-3 are renormalized, exact
    ones are kept bit for bit.
    """
    xs, vals = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        x, v = line.split(",")
        xs.append(float(x))
        vals.append(float(v))
    xs = np.asarray(xs)
    if np.max(np.abs(xs - grid_points(len(xs)))) > 1e-9:
        raise ValueError("density CSV must sample a uniform grid over [0, 2pi)")
    vals = np.asarray(vals, dtype=float)
    mass = float(np.mean(vals))
    if abs(mass - 1.0) > 1e-3:
        raise ValueError(f"sampled density has mass {mass:.6g}; not a unit density")
    if abs(mass - 1.0) > 1e-12:
        vals = vals / mass
    return CircleDensity.from_grid(vals)


def fourier_coefficient(f: CircleDensity, k: int) -> complex:
    """f^(k) = (1/2pi) integral e^{-ikx} f(x) dx via the DFT of a grid density."""
    if f.has_pieces:
        raise ValueError("Fourier coefficients need a grid density; sample an affine one")
    m = f.grid_size
    if not 0 <= k < m // 2:
        raise ValueError(f"coefficient index {k} is beyond the alias limit {m // 2}")
    return complex(np.fft.fft(f.grid)[k] / m)


def fourier_check(f: CircleDensity, r: int, k: int, n: int) -> tuple[complex, complex]:
    """Return ((P^n f)^(k), f^(k r^n)) for a grid density; the two agree for the r-adic map."""
    target = fourier_coefficient(f, k * r ** n)
    g = f
    for _ in range(n):
        g = pf_apply(g, r)
    return fourier_coefficient(g, k), target
