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

One private kernel, ``_jump_kernel``, holds the weights 1 + a^2 + 2 a r.n_i,
the pick rule (for a uniform u, the first detector whose running weight sum
exceeds u 4 (1 + a^2), else detector 4) and the renormalized post-jump map.
The sequential sampler repeats its arithmetic for one state, bit for bit.

A path is stored by column (``SamplePath.times``, ``detectors``,
``states``), not one object per jump.  The chaos game is the same sampler
at omega = 0 and kappa = 1 with the burn-in sliced off, so its points are
bit for bit the post-jump states of that path.  Ensembles run in chunks of
``ENSEMBLE_CHUNK`` paths, one Philox stream per chunk; each round steps only
the chunk's live paths, kept compacted in path order.
"""

from __future__ import annotations

import array
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .lindblad import TETRA_DIRECTIONS

RATE_CONVENTIONS = ("literal", "eeqt")
DEFAULT_START = (0.0, 0.0, 1.0)
DEFAULT_BURN_IN = 100  # attractor convergence is geometric; 100 jumps suffice
ENSEMBLE_CHUNK = 20_000  # paths per vectorized chunk; bounds its working arrays
# rate * t_end cap: an ensemble runs one vectorized round per jump of its
# slowest path (about 0.1 ms each at 10 paths on a 2-vCPU Xeon)
MAX_EXPECTED_JUMPS = 10 ** 5
# jumps per sampled path: its columns take 40 bytes a jump, and the scalar
# loop's Python lists of draws up to 64 more
MAX_JUMPS = 10 ** 7


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


def _check_args(alpha, kappa=1.0, t_end=0.0, detector=1, rate_convention="literal",
                **counts) -> None:
    """Raise ValueError for a parameter outside the process's domain."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    expected = total_rate(kappa, alpha, rate_convention) * t_end
    if expected > MAX_EXPECTED_JUMPS:
        raise ValueError(f"rate * t_end = {expected:.6g} exceeds the MAX_EXPECTED_JUMPS "
                         f"cap of {MAX_EXPECTED_JUMPS} jumps per path")
    if not 1 <= detector <= 4:
        raise ValueError("detector index must be in 1..4")
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    if counts.get("n_jumps", 0) > MAX_JUMPS:
        raise ValueError(f"n_jumps = {counts['n_jumps']} exceeds the MAX_JUMPS cap of "
                         f"{MAX_JUMPS} jumps per path")


def _jump_kernel(r: np.ndarray, alpha: float, u: Optional[np.ndarray] = None,
                 pick: Optional[np.ndarray] = None, dots: Optional[np.ndarray] = None):
    """Weights ``w`` (n, 4), 0-based picks and renormalized post-jump states
    for a batch ``r`` (n, 3); returns ``(w, pick, out)``.

    Uniforms ``u`` draw the picks by the module's rule, or ``pick`` is
    given; with neither, ``pick`` and ``out`` are None.  ``dots`` defaults
    to r.n_i summed in the ``sample_path`` loop's order, so one state steps
    exactly as the sampler does; the ensemble passes its faster matmul.
    """
    if dots is None:
        n = TETRA_DIRECTIONS
        dots = r[:, 0:1] * n[:, 0] + r[:, 1:2] * n[:, 1] + r[:, 2:3] * n[:, 2]
    a2 = alpha * alpha
    w = (1.0 + a2) + 2.0 * alpha * dots
    if u is not None:
        # the first running sum above the threshold, else detector 4: the
        # number of leading sums at or below it (a rounded weight can dip
        # below zero by an ulp, so the sums need not be monotone)
        thr = u * 4.0 * (1.0 + a2)
        running = w[:, 0]
        below = thr >= running
        pick = below.astype(np.intp)
        for k in (1, 2):
            running = running + w[:, k]
            below &= thr >= running
            pick += below
    if pick is None:
        return w, None, None
    at = pick + np.arange(0, 4 * len(pick), 4)  # flat index of each row's pick
    den = w.ravel().take(at)
    dot = dots.ravel().take(at)
    c1 = (1.0 - a2) / den
    c2 = 2.0 * alpha * (1.0 + alpha * dot) / den
    # column by column: numpy runs an (n, 3) by (n, 1) broadcast as n inner
    # loops of three elements, several times slower
    x, y, z = (c1 * r[:, k] + c2 * TETRA_DIRECTIONS[:, k].take(pick) for k in range(3))
    norm = np.sqrt(x * x + y * y + z * z)
    out = np.empty((len(pick), 3))
    for k, col in enumerate((x, y, z)):
        np.divide(col, norm, out=out[:, k])
    return w, pick, out


def jump_probs(r, alpha: float) -> np.ndarray:
    """Detector probabilities p_i(r); nonnegative and summing to one."""
    w, _, _ = _jump_kernel(np.asarray(r, dtype=float)[None, :], alpha)
    return w[0] / (4.0 * (1.0 + alpha * alpha))


def jump_map(r, detector: int, alpha: float) -> np.ndarray:
    """Post-jump state for detector index (1..4).

    The map preserves the sphere and the output is renormalized; it equals
    the ``sample_path`` step from ``r`` at that detector bit for bit.  The
    denominator vanishes only for alpha = 1 with r at the detector
    antipode, a point of zero jump probability; it is rejected rather than
    regularized.
    """
    _check_args(alpha, detector=detector)
    with np.errstate(divide="ignore", invalid="ignore"):  # the antipode, rejected below
        w, _, out = _jump_kernel(np.asarray(r, dtype=float)[None, :], alpha,
                                 pick=np.array([detector - 1]))
    if w[0, detector - 1] < 1e-12:
        raise ValueError("jump map undefined at the detector antipode for alpha = 1")
    return out[0]


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
    _check_args(alpha, kappa, n_jumps=n_jumps)
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
    # _jump_kernel for one state, operation for operation (equal bit for bit):
    # about 2 us per step against 50 us per one-row kernel call (2-vCPU Xeon)
    for i in range(n_jumps):
        if angles is not None:
            c, s = math.cos(angles[i]), math.sin(angles[i])
            x, y = c * x - s * y, s * x + c * y
        u = us[i] * 4.0 * one_a2
        acc = 0.0
        for j in range(4):
            nx, ny, nz = _DIRECTIONS[j]
            dot = x * nx + y * ny + z * nz
            w = one_a2 + two_a * dot
            acc += w
            if u < acc:
                break
        c1 = one_minus_a2 / w
        c2 = two_a * (1.0 + a * dot) / w
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

    Points and labels are the columns of ``post_burn_in_path(omega=0,
    kappa=1)``; labels are ``uint8``.
    """
    path = post_burn_in_path(0.0, 1.0, alpha, n_points, burn_in, r0, seed)
    return path.states, path.detectors.astype(np.uint8)


def post_burn_in_path(omega: float, kappa: float, alpha: float, n_points: int,
                      burn_in: int = DEFAULT_BURN_IN, r0=DEFAULT_START, seed: int = 0,
                      rate_convention: str = "literal") -> SamplePath:
    """The last ``n_points`` events of a ``sample_path`` of ``n_points + burn_in`` jumps.

    Raises ValueError unless ``n_points >= 1`` and ``burn_in >= 0``.
    """
    _check_args(alpha, n_points=n_points)
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    path = sample_path(omega, kappa, alpha, r0, n_points + burn_in, seed, rate_convention)
    return replace(path, times=path.times[burn_in:], detectors=path.detectors[burn_in:],
                   states=path.states[burn_in:])


def _ensemble_chunk(args) -> np.ndarray:
    """Sum of final Bloch vectors for one seeded chunk of paths.

    Only live paths are stepped: ``ids``, ``t`` and ``r`` hold the paths
    still short of ``t_end``, compacted in path order, and a path's state
    goes to its own row of ``final`` in the round it finishes.
    """
    (omega, alpha, r0, n_paths, t_end, seed, stream, rate) = args
    rng = make_rng(seed, stream)
    final = np.empty((n_paths, 3))
    ids = np.arange(n_paths)
    t = np.zeros(n_paths)
    r = np.tile(np.asarray(r0, dtype=float), (n_paths, 1))
    while len(ids):
        dt = rng.standard_exponential(len(ids)) / rate
        t_next = t + dt
        over = t_next > t_end
        if omega != 0.0:
            ang = omega * np.where(over, t_end - t, dt)
            c, s = np.cos(ang), np.sin(ang)
            new_x = c * r[:, 0] - s * r[:, 1]
            r[:, 1] = s * r[:, 0] + c * r[:, 1]
            r[:, 0] = new_x
        done = np.flatnonzero(over)
        final[ids.take(done)] = r.take(done, axis=0)
        stay = np.flatnonzero(~over)
        u = rng.random(len(ids)).take(stay)  # fixed draw count per round
        ids, t, r = ids.take(stay), t_next.take(stay), r.take(stay, axis=0)
        r = _jump_kernel(r, alpha, u=u, dots=r @ TETRA_DIRECTIONS.T)[2]
    return final.sum(axis=0)


def qmix_threads() -> int:
    """Worker-thread cap from QMIX_THREADS (default: cpu count)."""
    raw = os.environ.get("QMIX_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return max(1, os.cpu_count() or 1)


def ensemble_bloch_mean(omega: float, kappa: float, alpha: float, r0,
                        n_paths: int, t_end: float, seed: int = 0,
                        rate_convention: str = "literal") -> np.ndarray:
    """Mean Bloch vector over independent paths at time ``t_end``.

    Paths are simulated in vectorized chunks of ``ENSEMBLE_CHUNK``; chunk c
    draws from the Philox stream (seed, c), and partial sums are combined
    in chunk order, so the result does not depend on the thread count.
    """
    _check_args(alpha, kappa, t_end, rate_convention=rate_convention, n_paths=n_paths)
    rate = total_rate(kappa, alpha, rate_convention)
    r0u = _unit(r0)
    jobs = [(omega, alpha, r0u, min(ENSEMBLE_CHUNK, n_paths - start), t_end, seed, stream, rate)
            for stream, start in enumerate(range(0, n_paths, ENSEMBLE_CHUNK))]
    with ThreadPoolExecutor(max_workers=min(qmix_threads(), len(jobs))) as pool:
        partials = list(pool.map(_ensemble_chunk, jobs))
    total = np.zeros(3)
    for part in partials:  # fixed chunk order keeps the sum deterministic
        total += part
    return total / n_paths
