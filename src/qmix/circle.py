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

P^n itself is a closed form.  A table minus its mean is a sum of jumps and
kinks at its breaks, P scales each jump by 1/r and each kink by 1/r^2 and
moves its break b to r b (Raabe's multiplication theorem), so
:func:`pf_power` and the classical distance table follow the breaks and
rescale the amplitudes; no step sums over the r branches.  Distances take
f - g as f's amplitudes next to g's negated ones, and :func:`_snap` is the
one rule by which breaks coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .fitting import ExponentEstimate, probe_exponent

TWO_PI = 2.0 * math.pi
_BREAK_TOL = 1e-12
# distances at or below this are rounding to the exponent fit
_FLOOR = 1e-13
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# Samples per grid, 8 MB at the cap.  `qmix classical` samples only for
# --density-out: 106 MB peak RSS and 1.6 s at this cap with 100 probe ks (2 CPUs).
MAX_GRID_SIZE = 2 ** 20
# Radix of the r-adic map.  No cost grows with r; the cap bounds rounding:
# the image r b of a break is off by at most r 2pi 2^-53 = 7.1e-13 at the
# cap, below _BREAK_TOL, so images that coincide still merge.
MAX_R = 1024
# Iterates: pf_power(f, r, n) takes n steps of the breaks; `qmix classical`
# takes them once, for --density-out.  The distance table stops every row at
# the 1e-13 floor (the sawtooths within about 45 iterates at r = 2, 5 at
# r = 1024), so only its (probes, n_max) array grows with n_max.  `qmix
# classical` takes about 0.15 s at this cap with its other defaults, about
# what the defaults take, and 0.8 s at 89 MB peak RSS with every cap at once
# (r = 1024, 1000 iterates, 100 probe ks and 2^20 --density-out samples; one
# 2-CPU host).
MAX_ITERATES = 1000


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
#
# A zero-mean piece table is sum_b J_b S_b + sum_b K_b C_b over its breaks b:
# J_b is its jump and K_b its change of slope at b, S_b(x) = 1/2 - {(x-b)/2pi}
# the unit-jump sawtooth and C_b(x) = -pi B2({(x-b)/2pi}) the unit-kink
# second Bernoulli function (B2(t) = t^2 - t + 1/6).  Raabe's multiplication
# theorem gives P S_b = S_{rb} / r and P C_b = C_{rb} / r^2, so P^n scales
# every jump by r^-n and every kink by r^-2n and moves every break to r^n b.
# The images are taken one multiplication at a time: r^n b formed at once
# would round away the digits of b that the map brings up.

def _radix(r) -> int:
    if not 2 <= r <= MAX_R or int(r) != r:
        raise ValueError(f"r must be an integer from 2 to the MAX_R cap of {MAX_R} (got {r})")
    return int(r)


def _amplitudes(breaks: np.ndarray, c: np.ndarray, s: np.ndarray):
    """(points, jumps, kinks) of the table c + s x on ``breaks``: the
    breaks b_0 = 0 < ... < b_{n-1}, and the jump and the change of slope
    at each, across 2pi at b_0.

    A jump is taken as (c_i - c_{i-1}) + (s_i - s_{i-1}) b_i, not as a
    difference of end values: near-equal c are subtracted exactly, so a
    nearly uniform table keeps the digits of its small jumps.
    """
    kinks = s - np.roll(s, 1)
    jumps = c - np.roll(c, 1) + kinks * breaks[:-1]
    jumps[0] -= s[-1] * TWO_PI
    return breaks[:-1], jumps, kinks


def _difference(f: CircleDensity, g: CircleDensity):
    """(points, jumps, kinks) of f - g, unmerged: f's, then g's negated."""
    (pf, jf, kf), (pg, jg, kg) = (_amplitudes(h.breaks, *h.coefs.T) for h in (f, g))
    return np.concatenate([pf, pg]), np.concatenate([jf, -jg]), np.concatenate([kf, -kg])


def _snap(p: np.ndarray):
    """Sort the points of every row and snap each run of points closer than
    ``_BREAK_TOL`` (and points that close to 0 or 2pi, onto 0) to the run's
    first point.  A run ends only where a gap exceeds the tolerance, so a
    chain of sub-tolerance gaps is one run.  Returns the snapped rows, the
    flat index of every sorted point and the mask of run starts.
    """
    rows, width = p.shape
    p = np.where((p > _BREAK_TOL) & (p < TWO_PI - _BREAK_TOL), p, 0.0)
    order = np.argsort(p, axis=1, kind="stable") + width * np.arange(rows)[:, None]
    p = p.ravel()[order]
    first = np.ones(p.shape, dtype=bool)
    first[:, 1:] = p[:, 1:] - p[:, :-1] > _BREAK_TOL
    return np.maximum.accumulate(np.where(first, p, 0.0), axis=1), order, first


def _merge(p: np.ndarray, jumps: np.ndarray, kinks: np.ndarray):
    """:func:`_snap` the points of every row and move each run's summed
    amplitudes onto its first point (zero elsewhere).  Returns the rows,
    jumps, kinks and run starts; on :func:`_difference` (f, g), the
    amplitudes of f - g.
    """
    p, order, first = _snap(p)
    starts = np.flatnonzero(first)  # every row opens with a start
    merged = []
    for amp in (jumps, kinks):
        out = np.zeros(p.shape)
        out.flat[starts] = np.add.reduceat(amp.ravel()[order.ravel()], starts)
        merged.append(out)
    return p, merged[0], merged[1], first


def _suffix(a: np.ndarray) -> np.ndarray:
    """sum_{b > i} a_b for every i of every row."""
    out = np.zeros(a.shape)
    out[:, :-1] = np.cumsum(a[:, :0:-1], axis=1)[:, ::-1]
    return out


def _pieces(q: np.ndarray, right: np.ndarray, jumps: np.ndarray, kinks: np.ndarray):
    """(c, s) of sum J_b S_b + sum K_b C_b on each piece [q_i, right_i) of
    the sorted rows ``q`` (q_0 = 0, right_i = q_i+1, the last one 2pi).

    The terms with q_b > x on piece i are the suffix b > i, so the slope is
    (sum K_b q_b - sum J_b) / 2pi minus the suffix sum of K, and c is a row
    constant minus the suffix sum of J plus that of K q.  The constant is
    set by the zero mean of the sum: its closed form sums terms of the size
    of the amplitudes, which cancel to far below it.
    """
    tilt = (np.sum(kinks * q, axis=1) - np.sum(jumps, axis=1)) / TWO_PI
    slope = tilt[:, None] - _suffix(kinks)
    const = _suffix(kinks * q) - _suffix(jumps)
    mean = np.sum((right - q) * (const + 0.5 * slope * (q + right)), axis=1) / TWO_PI
    return const - mean[:, None], slope


def _combination_l1(q, jumps, kinks) -> np.ndarray:
    """Integral of |sum J_b S_b + sum K_b C_b| d mu for every row, exact.

    Each piece is affine with end values a and b: its integral of |.| is
    (|a + b| / 2) width, or (a^2 + b^2) / (2 |a - b|) width when it
    changes sign.
    """
    right = np.concatenate([q[:, 1:], np.full((len(q), 1), TWO_PI)], axis=1)
    const, slope = _pieces(q, right, jumps, kinks)
    a, b = const + slope * q, const + slope * right
    with np.errstate(divide="ignore", invalid="ignore"):
        area = np.where(a * b >= 0.0, np.abs(a + b), (a * a + b * b) / np.abs(a - b))
    return 0.5 * np.sum((right - q) * area, axis=1) / TWO_PI


def pf_power(f: CircleDensity, r: int, n: int) -> CircleDensity:
    """P^n f for the map x -> r x (mod 2pi), from f's jump and kink
    decomposition in closed form; pieces map to pieces exactly.

    The images r^n b of the breaks are taken one multiplication at a time,
    with the snapping of :func:`_merge` at every step, so the cost is
    linear in n.
    """
    r = _radix(r)
    if not 0 <= n <= MAX_ITERATES or int(n) != n:
        raise ValueError(f"n must be an integer from 0 to the MAX_ITERATES cap of "
                         f"{MAX_ITERATES} (got {n})")
    p, jumps, kinks = (a[None, :] for a in _amplitudes(f.breaks, *f.coefs.T))
    first = np.ones(p.shape, dtype=bool)
    for _ in range(int(n)):
        p, jumps, kinks, first = _merge(np.mod(r * p, TWO_PI), jumps, kinks)
    breaks = np.append(p[first], TWO_PI)
    scale = float(r) ** -n
    const, slope = _pieces(breaks[None, :-1], breaks[None, 1:], jumps[first][None, :] * scale,
                           kinks[first][None, :] * scale * scale)
    return CircleDensity(breaks, np.column_stack([f.mass() + const[0], slope[0]]))


def pf_apply(f: CircleDensity, r: int) -> CircleDensity:
    """Push a density forward under x -> r x (mod 2pi): ``pf_power(f, r, 1)``."""
    return pf_power(f, r, 1)


# -- integrals ------------------------------------------------------------

def _merged_table(f: CircleDensity, g: CircleDensity):
    """The breaks of f and g merged by :func:`_snap`, and the (c, s) columns
    of each on every merged piece."""
    p, _, first = _snap(np.concatenate([f.breaks[:-1], g.breaks[:-1]])[None, :])
    breaks = np.append(p[first], TWO_PI)
    xm = 0.5 * (breaks[:-1] + breaks[1:])
    return (breaks, f.coefs[_piece_of(f.breaks, xm)].T,
            g.coefs[_piece_of(g.breaks, xm)].T)


def l1_distance(f: CircleDensity, g: CircleDensity) -> float:
    """Integral of |f - g| d mu, exact: :func:`_combination_l1` of the
    merged jumps and kinks of f - g."""
    p, jumps, kinks, _ = _merge(*(a[None, :] for a in _difference(f, g)))
    return float(_combination_l1(p, jumps, kinks)[0])


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

@dataclass
class ClassicalEstimate(ExponentEstimate):
    """A fitted classical exponent plus each probe's exact decay rate.

    ``exact_rates[i]`` is log r if a jump of P^n (probe - f0) survives, 2
    log r if only kinks do, and inf once every term has cancelled;
    ``uniform_at[i]`` is then the first n at which P^n probe = P^n f0.  An
    amplitude below 1e-12 (sum|J| + 2pi sum|K|) of the probe counts as
    cancelled, and the rate is read at the probe's last tabulated iterate.
    """
    exact_rates: list[float] = field(default_factory=list)
    uniform_at: list[Optional[int]] = field(default_factory=list)


def distance_table(f0: CircleDensity, probes: Sequence[CircleDensity], r: int, n_max: int):
    """(dists, exact_rates, uniform_at): the (probes, n_max + 1) table of
    ||P^n probe - P^n f0||_1 and the rates of :class:`ClassicalEstimate`.

    A row is :func:`_difference` (probe, f0); every iterate is one batched
    :func:`_merge` (the first one sums probe - f0) and
    :func:`_combination_l1` over the rows still live.  A row stops at the
    first n where the bound (sum|J| / 4) r^-n + (pi / 6) (sum|K|) r^-2n on
    its distance falls below ``_FLOOR``; its later entries hold that
    bound, which no fit window can use.  When probe - f0
    is one jump and no kink (the ramp against the uniform density), the
    bound is the exact distance.  ``r`` and ``n_max`` are used as given;
    :func:`lambda_classical` checks them.
    """
    parts = [_difference(probe, f0) for probe in probes]
    width = max(len(part[0]) for part in parts)
    p, jumps, kinks = (np.array([np.pad(part[i], (0, width - len(part[i]))) for part in parts])
                       for i in range(3))
    dists = np.empty((len(parts), n_max + 1))
    jump_left = np.ones(len(parts), dtype=bool)
    uniform_at = np.full(len(parts), -1)
    live = np.arange(len(parts))
    for n in range(n_max + 1):
        p, jumps, kinks, _ = _merge(p, jumps, kinks)
        if n == 0:  # the amplitudes of probe - f0 set what counts as cancelled
            tol = _BREAK_TOL * (np.abs(jumps).sum(axis=1) + TWO_PI * np.abs(kinks).sum(axis=1))
        jump_left[live] = np.abs(jumps).max(axis=1) > tol[live]
        kink_left = np.abs(kinks).max(axis=1) > tol[live] / TWO_PI
        uniform_at[live[~(jump_left[live] | kink_left) & (uniform_at[live] < 0)]] = n
        # the bound is terms @ (r^-n, r^-2n)
        terms = np.column_stack([0.25 * np.abs(jumps).sum(axis=1),
                                 math.pi / 6.0 * np.abs(kinks).sum(axis=1)])
        scale = float(r) ** -np.arange(n, n_max + 1)
        done = terms @ [scale[0], scale[0] ** 2] < _FLOOR
        if done.any():
            dists[live[done], n:] = terms[done] @ np.array([scale, scale * scale])
            live, p, jumps, kinks = (a[~done] for a in (live, p, jumps, kinks))
            if not live.size:
                break
        dists[live, n] = _combination_l1(p, jumps * scale[0], kinks * scale[0] ** 2)
        p = np.mod(r * p, TWO_PI)
    log_r = math.log(r)
    rates = np.where(uniform_at >= 0, math.inf, np.where(jump_left, log_r, 2.0 * log_r))
    return dists, rates.tolist(), [int(n) if n >= 0 else None for n in uniform_at]


def lambda_classical(f0: CircleDensity, probes: Sequence[CircleDensity], r: int,
                     n_max: int = 12) -> ClassicalEstimate:
    """Decay exponent of ||P^n f - P^n f0||_1, minimum over probes.

    The (probes, n) distance table of :func:`distance_table` goes to
    :func:`qmix.fitting.probe_exponent`, the protocol of the quantum
    estimator: slopes are fitted over iteration counts n in [n_max/2,
    n_max] (n_max >= 4 puts three iterates there).  A probe whose distance
    falls to the 1e-13 floor too early for a fit window (affine iterates
    can reach the uniform density in finitely many steps) is excluded
    with a note rather than fitted.  The exact rate of every probe comes
    with the fit.
    """
    r = _radix(r)
    if not probes:
        raise ValueError("need at least one probe density")
    if n_max < 4:
        raise ValueError(f"n_max must be at least 4 (got {n_max}) for three fitted iterates")
    if n_max > MAX_ITERATES:
        raise ValueError(f"n_max = {n_max} exceeds the MAX_ITERATES cap of {MAX_ITERATES}")
    dists, rates, uniform_at = distance_table(f0, probes, r, n_max)
    same = np.flatnonzero(dists[:, 0] < 1e-12)
    if same.size:
        raise ValueError(f"probe {same[0]} equals the reference density")
    estimate = probe_exponent(np.arange(n_max + 1, dtype=float), dists, _FLOOR)
    return ClassicalEstimate(**vars(estimate), exact_rates=rates, uniform_at=uniform_at)


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
    return fourier_coefficient(pf_power(f, r, n), k), target
