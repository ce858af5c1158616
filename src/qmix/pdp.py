"""Piecewise deterministic jump process on the spin sphere.

A pure state is a unit vector r on S^2.  Between detection events it
precesses about the z axis at angular speed omega; events arrive as a
homogeneous Poisson stream, and an event at detector i (one of the four
tetrahedron directions n_i) moves the state to

    r_i = [ (1 - a^2) r + 2 a (1 + a r.n_i) n_i ] / (1 + a^2 + 2 a r.n_i)

with probability

    p_i(r) = (1 + a^2 + 2 a r.n_i) / (4 (1 + a^2))

where a is the detector sharpness in [0, 1].  At a = 1 every jump lands
exactly on a vertex; at a = 0 the maps degenerate to the identity.

Rate convention.  The Poisson rate is kappa by default ("literal").  The
alternative "eeqt" convention scales it by (1 + a^2), the trace of the
summed squared coupling operators, which is what reproduces the ensemble
master equation of :mod:`qmix.lindblad` exactly; the ensemble-consistency
test in the suite records that resolution.  Both conventions drive the
same jump chain, so all attractor geometry is identical; only the clock
differs.

Randomness comes from the counter-based Philox4x64-10 generator keyed as
(seed, stream), so every path is reproducible bit for bit from its
parameters and seed; the draw order is pinned in ``sample_path``.

A path is stored by column (``SamplePath.times``, ``detectors``,
``states``), not one object per jump.  The chaos game is the same sampler
at omega = 0 and kappa = 1 with the burn-in sliced off, so its points are
bit for bit the post-jump states of that path.
"""

from __future__ import annotations

import array
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lindblad import TETRA_DIRECTIONS

logger = logging.getLogger(__name__)

RATE_CONVENTIONS = ("literal", "eeqt")
DEFAULT_START = (0.0, 0.0, 1.0)
DEFAULT_BURN_IN = 100  # attractor convergence is geometric; 100 jumps suffice


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox4x64-10 generator keyed by (seed, stream)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def total_rate(kappa: float, alpha: float, rate_convention: str = "literal") -> float:
    if rate_convention == "literal":
        return kappa
    if rate_convention == "eeqt":
        return kappa * (1.0 + alpha * alpha)
    raise ValueError(f"rate_convention must be one of {RATE_CONVENTIONS}")


def jump_probs(r, alpha: float) -> np.ndarray:
    """Detector probabilities p_i(r); nonnegative and summing to one."""
    r = np.asarray(r, dtype=float)
    dots = TETRA_DIRECTIONS @ r
    return (1.0 + alpha * alpha + 2.0 * alpha * dots) / (4.0 * (1.0 + alpha * alpha))


def jump_map(r, detector: int, alpha: float) -> np.ndarray:
    """Post-jump state for detector index (1..4).

    The map preserves the sphere; the output is renormalized and the
    rounding drift logged at debug level.  The denominator vanishes only
    for alpha = 1 with r at the detector antipode, a point of zero jump
    probability; it is rejected rather than regularized.
    """
    r = np.asarray(r, dtype=float)
    if not 1 <= detector <= 4:
        raise ValueError("detector index must be in 1..4")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = TETRA_DIRECTIONS[detector - 1]
    a2 = alpha * alpha
    dot = float(r @ n)
    den = 1.0 + a2 + 2.0 * alpha * dot
    if den < 1e-12:
        raise ValueError("jump map undefined at the detector antipode for alpha = 1")
    out = ((1.0 - a2) * r + 2.0 * alpha * (1.0 + alpha * dot) * n) / den
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-13:
        logger.debug("jump renormalization drift %.3e", norm - 1.0)
    return out / norm


@dataclass(frozen=True)
class JumpRecord:
    """One detection event: arrival time, detector (1..4), post-jump state."""
    time: float
    detector: int
    state: tuple[float, float, float]


@dataclass(eq=False)
class SamplePath:
    """Jump history of one realization, reproducible from (params, seed).

    The path is stored by column: event ``i`` arrived at ``times[i]`` at
    detector ``detectors[i]`` (1..4) and left the state ``states[i]``.
    """
    r0: tuple[float, float, float]
    omega: float
    kappa: float
    alpha: float
    seed: int
    rate_convention: str
    times: np.ndarray  # shape (n,)
    detectors: np.ndarray  # shape (n,), values 1..4
    states: np.ndarray  # shape (n, 3)

    @property
    def records(self) -> list[JumpRecord]:
        """The events as one :class:`JumpRecord` each."""
        return [JumpRecord(t, d, tuple(r)) for t, d, r in
                zip(self.times.tolist(), self.detectors.tolist(), self.states.tolist())]


def _unit(v) -> tuple[float, float, float]:
    x, y, z = (float(c) for c in v)
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0:
        raise ValueError("state must be a nonzero 3-vector")
    return x / n, y / n, z / n


# as Python floats: the scalar loop below runs about twice as slow on numpy
# scalars, and the arithmetic is the same IEEE double either way
_DIRECTIONS = tuple(tuple(row) for row in TETRA_DIRECTIONS.tolist())


def sample_path(omega: float, kappa: float, alpha: float, r0=DEFAULT_START,
                n_jumps: int = 1000, seed: int = 0,
                rate_convention: str = "literal") -> SamplePath:
    """Simulate one path of the jump process.

    Draw order is fixed: first a block of ``n_jumps`` exponential waiting
    times, then a block of ``n_jumps`` uniforms for the detector choices
    (inverse CDF in detector order 1..4).  The scalar jump loop writes
    detectors and states into preallocated typed buffers that become the
    path's columns without a copy.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if n_jumps < 1:
        raise ValueError("n_jumps must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    rate = total_rate(kappa, alpha, rate_convention)
    rng = make_rng(seed)
    waits = rng.standard_exponential(n_jumps) / rate
    us = rng.random(n_jumps).tolist()
    angles = (omega * waits).tolist() if omega != 0.0 else None

    a = alpha
    one_a2 = 1.0 + a * a
    one_minus_a2 = 1.0 - a * a
    two_a = 2.0 * a
    x, y, z = _unit(r0)
    picks = array.array("q", [0]) * n_jumps
    states = array.array("d", [0.0]) * (3 * n_jumps)
    for i in range(n_jumps):
        if angles is not None:
            c, s = math.cos(angles[i]), math.sin(angles[i])
            x, y = c * x - s * y, s * x + c * y
        u = us[i] * 4.0 * one_a2
        acc = 0.0
        # inverse CDF; a u past the rounded total falls through to detector 4
        for j in range(4):
            nx, ny, nz = _DIRECTIONS[j]
            dot = x * nx + y * ny + z * nz
            acc += one_a2 + two_a * dot
            if u < acc:
                break
        den = one_a2 + two_a * dot
        c1 = one_minus_a2 / den
        c2 = two_a * (1.0 + a * dot) / den
        x, y, z = c1 * x + c2 * nx, c1 * y + c2 * ny, c1 * z + c2 * nz
        norm = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / norm, y / norm, z / norm
        picks[i] = j + 1
        k = 3 * i
        states[k] = x
        states[k + 1] = y
        states[k + 2] = z
    # cumsum adds in sequence, so arrival times match a running t += dt
    return SamplePath(_unit(r0), omega, kappa, alpha, seed, rate_convention,
                      np.cumsum(waits), np.frombuffer(picks, dtype=np.int64),
                      np.frombuffer(states).reshape(n_jumps, 3))


def chaos_game(alpha: float, n_points: int, seed: int = 0,
               burn_in: int = DEFAULT_BURN_IN, r0=DEFAULT_START) -> np.ndarray:
    """Post-jump states of the frozen-precession process (omega=0, kappa=1).

    The first ``burn_in`` jumps are discarded; the remaining ``n_points``
    post-jump states sample the attractor of the four detector maps.
    """
    points, _ = chaos_game_labeled(alpha, n_points, seed, burn_in, r0)
    return points


def chaos_game_labeled(alpha: float, n_points: int, seed: int = 0,
                       burn_in: int = DEFAULT_BURN_IN,
                       r0=DEFAULT_START) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`chaos_game` but also returns the detector of each point.

    Points and labels are the columns of ``sample_path(omega=0, kappa=1)``
    past the burn-in; labels are ``uint8``.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    path = sample_path(omega=0.0, kappa=1.0, alpha=alpha, r0=r0,
                       n_jumps=n_points + burn_in, seed=seed)
    return path.states[burn_in:], path.detectors[burn_in:].astype(np.uint8)


def _ensemble_chunk(args) -> np.ndarray:
    """Sum of final Bloch vectors for one seeded chunk of paths."""
    (omega, kappa, alpha, r0, n_paths, t_end, seed, stream, rate) = args
    rng = make_rng(seed, stream)
    r = np.tile(np.asarray(r0, dtype=float), (n_paths, 1))
    t = np.zeros(n_paths)
    active = np.ones(n_paths, dtype=bool)
    a = alpha
    a2 = a * a
    while active.any():
        idx = np.nonzero(active)[0]
        dt = rng.standard_exponential(len(idx)) / rate
        t_next = t[idx] + dt
        over = t_next > t_end
        advanced = np.where(over, t_end - t[idx], dt)
        if omega != 0.0:
            ang = omega * advanced
            c, s = np.cos(ang), np.sin(ang)
            x = r[idx, 0].copy()
            y = r[idx, 1].copy()
            r[idx, 0] = c * x - s * y
            r[idx, 1] = s * x + c * y
        t[idx] = np.where(over, t_end, t_next)
        active[idx[over]] = False
        jidx = idx[~over]
        u = rng.random(len(idx))[~over]  # fixed draw count per round
        if len(jidx) == 0:
            continue
        rj = r[jidx]
        dots = rj @ TETRA_DIRECTIONS.T
        w = (1.0 + a2) + 2.0 * a * dots
        cw = np.cumsum(w, axis=1)
        pick = (u[:, None] * cw[:, -1:] >= cw).sum(axis=1)
        nd = TETRA_DIRECTIONS[pick]
        dsel = np.take_along_axis(dots, pick[:, None], axis=1)[:, 0]
        den = (1.0 + a2) + 2.0 * a * dsel
        c1 = (1.0 - a2) / den
        c2 = 2.0 * a * (1.0 + a * dsel) / den
        rn = c1[:, None] * rj + c2[:, None] * nd
        rn /= np.linalg.norm(rn, axis=1)[:, None]
        r[jidx] = rn
    return r.sum(axis=0)


def ensemble_bloch_mean(omega: float, kappa: float, alpha: float, r0,
                        n_paths: int, t_end: float, seed: int = 0,
                        rate_convention: str = "literal",
                        threads: Optional[int] = None,
                        chunk_size: int = 20_000) -> np.ndarray:
    """Mean Bloch vector over independent paths at time ``t_end``.

    Paths are simulated in vectorized chunks; chunk c draws from the
    Philox stream (seed, c), and partial sums are combined in chunk order,
    so the result does not depend on the thread count.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    rate = total_rate(kappa, alpha, rate_convention)
    r0u = _unit(r0)
    jobs = []
    remaining = n_paths
    stream = 0
    while remaining > 0:
        m = min(chunk_size, remaining)
        jobs.append((omega, kappa, alpha, r0u, m, t_end, seed, stream, rate))
        remaining -= m
        stream += 1
    if threads is None:
        from .io import qmix_threads
        threads = qmix_threads()
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(_ensemble_chunk, jobs))
    else:
        partials = [_ensemble_chunk(j) for j in jobs]
    total = np.zeros(3)
    for part in partials:  # fixed chunk order keeps the sum deterministic
        total += part
    return total / n_paths
