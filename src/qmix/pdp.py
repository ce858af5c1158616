"""Piecewise deterministic jump process on the spin sphere.

A pure state is a unit vector r on S^2.  Between detection events it
precesses about the z axis at angular speed omega; events arrive as a
homogeneous Poisson stream of rate kappa (1 + a^2), the trace of the summed
squared coupling operators, so the path ensemble reproduces the master
equation of :mod:`qmix.lindblad`.  An event at detector i (one of the four
tetrahedron directions n_i) moves the state to

    r_i = [ (1 - a^2) r + 2 a (1 + a r.n_i) n_i ] / (1 + a^2 + 2 a r.n_i)

with probability

    p_i(r) = (1 + a^2 + 2 a r.n_i) / (4 (1 + a^2))

where a is the detector sharpness in [0, 1].  At a = 1 every jump lands
exactly on a vertex; at a = 0 the maps degenerate to the identity.

Randomness comes from the counter-based Philox4x64-10 generator keyed as
(seed, stream), so every path is reproducible bit for bit from its
parameters and seed; the draw order is pinned in ``sample_path``.

One private kernel, ``_jump_kernel``, holds the weights 1 + a^2 + 2 a r.n_i,
the pick rule (for a uniform u, the first detector whose running weight sum
exceeds u 4 (1 + a^2), else detector 4) and the renormalized post-jump map.
The sequential sampler repeats its arithmetic for one state, bit for bit.

``sample_path`` is the one path sampler: it runs a burn-in and the kept
jumps as one path, and stores the kept events by column
(``SamplePath.times``, ``detectors``, ``states``), not one object per
jump.  The chaos game is that sampler at omega = 0 and kappa = 1, its
points the kept post-jump states.  Ensembles run in chunks of
``ENSEMBLE_CHUNK`` paths, one Philox stream per chunk; each round steps only
the chunk's live paths, kept compacted in path order.  Of T worker threads,
worker w runs chunks w, w + T, w + 2T, ... in one workspace of its own:
every round writes its intermediates into that workspace instead of fresh
arrays, because freshly allocated arrays come back from the allocator as
fresh zeroed pages, and faulting those in cost more than the arithmetic.

``TETRA_DIRECTIONS``, ``DEFAULT_BURN_IN`` and ``make_rng`` come from
:mod:`qmix.states`, which ``qmix.cli`` loads without this module.
``concurrent.futures`` is imported inside ``ensemble_bloch_mean``, the one
user of threads.
"""

from __future__ import annotations

import array
import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .states import DEFAULT_BURN_IN, TETRA_DIRECTIONS, make_rng

DEFAULT_START = (0.0, 0.0, 1.0)
ENSEMBLE_CHUNK = 20_000  # paths per vectorized chunk; bounds its working arrays
# rate * t_end cap: an ensemble runs one vectorized round per jump of its
# slowest path (about 0.1 ms each at 10 paths on a 2-vCPU Xeon)
MAX_EXPECTED_JUMPS = 10 ** 5
# jumps per sampled path: its columns take 40 bytes a jump, and its draws
# 16 more as arrays (the scalar loop's Python lists of them hold one block)
MAX_JUMPS = 10 ** 7
_DRAW_BLOCK = 65536  # draws per block of the scalar loop


def total_rate(kappa: float, alpha: float) -> float:
    """Poisson rate of detection events: kappa tr(sum_i A_i^+ A_i) = kappa (1 + a^2)."""
    return kappa * (1.0 + alpha * alpha)


def _check_args(alpha, kappa=1.0, t_end=0.0, detector=1, burn_in=0, **counts) -> None:
    """Raise ValueError for a parameter outside the process's domain."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    expected = total_rate(kappa, alpha) * t_end
    if expected > MAX_EXPECTED_JUMPS:
        raise ValueError(f"rate * t_end = {expected:.6g} exceeds the MAX_EXPECTED_JUMPS "
                         f"cap of {MAX_EXPECTED_JUMPS} jumps per path")
    if not 1 <= detector <= 4:
        raise ValueError("detector index must be in 1..4")
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    jumps = burn_in + counts.get("n_jumps", 0)
    if jumps > MAX_JUMPS:
        raise ValueError(f"burn_in + n_jumps = {jumps} exceeds the MAX_JUMPS cap of "
                         f"{MAX_JUMPS} jumps per path")


# TETRA_DIRECTIONS by coordinate, so one take gathers the picked directions
_DIRECTIONS_BY_AXIS = np.ascontiguousarray(TETRA_DIRECTIONS.T)


class _Workspace:
    """Arrays for batches of up to ``rows`` states.

    ``_jump_kernel`` and ``_ensemble_chunk`` write every batch-sized
    intermediate through ``out=`` into prefix views of these arrays, so one
    workspace serves every round of every chunk a worker runs, and a round
    faults in no fresh pages.  ``out`` holds the kernel's post-jump states
    (the ensemble's current states), ``src`` the live states a round
    compacts for the kernel, and ``scratch`` the temporaries of both.
    """

    def __init__(self, rows: int):
        self.dots = np.empty((rows, 4))
        self.w = np.empty((rows, 4))
        self.out = np.empty((rows, 3))
        self.src = np.empty((rows, 3))
        self.final = np.empty((rows, 3))
        self.scratch = np.empty((10, rows))
        self.t = np.empty(rows)
        self.u = np.empty(rows)
        self.flags = np.empty((3, rows), dtype=bool)
        self.pick = np.empty(rows, dtype=np.intp)
        self.at = np.empty(rows, dtype=np.intp)
        self.ids = np.empty((2, rows), dtype=np.intp)
        self.index = np.arange(rows)
        self.offsets = np.arange(0, 4 * rows, 4)  # flat index of each row of an (n, 4) array


def _jump_kernel(r: np.ndarray, alpha: float, u: Optional[np.ndarray] = None,
                 pick: Optional[np.ndarray] = None, dots: Optional[np.ndarray] = None,
                 ws: Optional[_Workspace] = None):
    """Weights ``w`` (n, 4), 0-based picks and renormalized post-jump states
    for a batch ``r`` (n, 3); returns ``(w, pick, out)``.

    Uniforms ``u`` draw the picks by the module's rule, or ``pick`` is
    given; with neither, ``pick`` and ``out`` are None.  ``dots`` defaults
    to r.n_i summed in the ``sample_path`` loop's order, so one state steps
    exactly as the sampler does; the ensemble passes its faster matmul.
    Results are views into ``ws`` (a fresh workspace when None), valid
    until its next use; ``r`` must not be a view of ``ws.out``.
    """
    m = len(r)
    if ws is None:
        ws = _Workspace(m)
    w = ws.w[:m]
    if dots is None:
        dots = ws.dots[:m]
        n = TETRA_DIRECTIONS
        np.multiply(r[:, 0:1], n[:, 0], out=dots)
        for k in (1, 2):
            np.multiply(r[:, k:k + 1], n[:, k], out=w)
            np.add(dots, w, out=dots)
    a2 = alpha * alpha
    np.multiply(dots, 2.0 * alpha, out=w)
    np.add(w, 1.0 + a2, out=w)
    if u is not None:
        # the first running sum above the threshold, else detector 4: the
        # number of leading sums at or below it (a rounded weight can dip
        # below zero by an ulp, so the sums need not be monotone)
        thr, running = ws.scratch[:2, :m]
        below = ws.flags[:, :m]
        pick = ws.pick[:m]
        np.multiply(u, 4.0 * (1.0 + a2), out=thr)  # u * 4 is exact: the bits of u * 4 * (1 + a2)
        np.greater_equal(thr, w[:, 0], out=below[0])
        np.add(w[:, 0], w[:, 1], out=running)
        np.greater_equal(thr, running, out=below[1])
        np.add(running, w[:, 2], out=running)
        np.greater_equal(thr, running, out=below[2])
        np.logical_and(below[1], below[0], out=below[1])
        np.logical_and(below[2], below[1], out=below[2])
        count = below.view(np.uint8)  # summed as bytes: a bool add is an "or"
        np.add(count[0], count[1], out=count[0])
        np.add(count[0], count[2], out=count[0])
        np.copyto(pick, count[0])
    if pick is None:
        return w, None, None
    den, dot, c1, c2 = ws.scratch[:4, :m]
    normals, xyz = ws.scratch[4:7, :m], ws.scratch[7:10, :m]
    at = ws.at[:m]
    np.add(pick, ws.offsets[:m], out=at)
    w.ravel().take(at, out=den, mode="clip")
    dots.ravel().take(at, out=dot, mode="clip")
    np.divide(1.0 - a2, den, out=c1)
    np.multiply(dot, alpha, out=c2)  # 2 a (1 + a dot) / den
    np.add(c2, 1.0, out=c2)
    np.multiply(c2, 2.0 * alpha, out=c2)
    np.divide(c2, den, out=c2)
    _DIRECTIONS_BY_AXIS.take(pick, axis=1, out=normals, mode="clip")
    np.multiply(normals, c2, out=normals)
    np.multiply(r.T, c1, out=xyz)
    np.add(xyz, normals, out=xyz)
    norm = den
    np.multiply(xyz, xyz, out=normals)
    np.add(normals[0], normals[1], out=norm)
    np.add(norm, normals[2], out=norm)
    np.sqrt(norm, out=norm)
    out = ws.out[:m]
    np.divide(xyz, norm, out=out.T)
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
    if not 0 < n < math.inf:
        raise ValueError("state must be a finite nonzero 3-vector")
    return x / n, y / n, z / n


# as Python floats: the scalar loop below runs about twice as slow on numpy
# scalars, and the arithmetic is the same IEEE double either way
_DIRECTIONS = tuple(tuple(row) for row in TETRA_DIRECTIONS.tolist())


def sample_path(omega: float, kappa: float, alpha: float, r0=DEFAULT_START,
                n_jumps: int = 1000, seed: int = 0, burn_in: int = 0) -> SamplePath:
    """Simulate ``burn_in + n_jumps`` jumps of the process from t = 0 and
    keep the last ``n_jumps`` events; their times stay absolute.

    Draw order is fixed: first a block of ``burn_in + n_jumps`` exponential
    waiting times, then a block of as many uniforms for the detector
    choices (inverse CDF in detector order 1..4).  The scalar jump loop
    writes detectors and states into preallocated typed buffers whose tails
    become the path's columns without a copy.
    """
    _check_args(alpha, kappa, burn_in=burn_in, n_jumps=n_jumps)
    rate = total_rate(kappa, alpha)
    n = burn_in + n_jumps
    rng = make_rng(seed)
    waits = rng.standard_exponential(n) / rate
    uniforms = rng.random(n)

    a = alpha
    one_a2 = 1.0 + a * a
    one_minus_a2 = 1.0 - a * a
    two_a = 2.0 * a
    (n1x, n1y, n1z), (n2x, n2y, n2z), (n3x, n3y, n3z), (n4x, n4y, n4z) = _DIRECTIONS
    cos, sin, sqrt = math.cos, math.sin, math.sqrt  # no module lookup per step
    x, y, z = _unit(r0)
    picks = array.array("q", [0]) * n
    states = array.array("d", [0.0]) * (3 * n)
    # the draws become Python floats (the pick thresholds u 4 (1 + a^2), as
    # the kernel forms them, and the precession angles) one block at a time,
    # so their lists never outgrow a block
    for start in range(0, n, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, n)
        thresholds = (uniforms[start:stop] * 4.0 * one_a2).tolist()
        angles = (omega * waits[start:stop]).tolist() if omega != 0.0 else repeat(None)
        # _jump_kernel for one state, operation for operation (equal bit for
        # bit), with the pick unrolled over local floats: about 1.5 us per
        # step against 50 us per one-row kernel call (2-vCPU Xeon)
        for i, u, angle in zip(range(start, stop), thresholds, angles):
            if angle is not None:
                c, s = cos(angle), sin(angle)
                x, y = c * x - s * y, s * x + c * y
            dot = x * n1x + y * n1y + z * n1z
            acc = w = one_a2 + two_a * dot
            if u < acc:
                nx, ny, nz, picks[i] = n1x, n1y, n1z, 1
            else:
                dot = x * n2x + y * n2y + z * n2z
                w = one_a2 + two_a * dot
                acc += w
                if u < acc:
                    nx, ny, nz, picks[i] = n2x, n2y, n2z, 2
                else:
                    dot = x * n3x + y * n3y + z * n3z
                    w = one_a2 + two_a * dot
                    acc += w
                    if u < acc:
                        nx, ny, nz, picks[i] = n3x, n3y, n3z, 3
                    else:
                        dot = x * n4x + y * n4y + z * n4z
                        w = one_a2 + two_a * dot
                        nx, ny, nz, picks[i] = n4x, n4y, n4z, 4
            c1 = one_minus_a2 / w
            c2 = two_a * (1.0 + a * dot) / w
            x, y, z = c1 * x + c2 * nx, c1 * y + c2 * ny, c1 * z + c2 * nz
            norm = sqrt(x * x + y * y + z * z)
            x, y, z = x / norm, y / norm, z / norm
            k = 3 * i
            states[k] = x
            states[k + 1] = y
            states[k + 2] = z
    # cumsum adds in sequence, so arrival times match a running t += dt
    return SamplePath(_unit(r0), np.cumsum(waits)[burn_in:],
                      np.frombuffer(picks, dtype=np.int64)[burn_in:],
                      np.frombuffer(states).reshape(n, 3)[burn_in:])


def chaos_game(alpha: float, n_points: int, seed: int = 0,
               burn_in: int = DEFAULT_BURN_IN, r0=DEFAULT_START) -> np.ndarray:
    """Post-jump states of the frozen-precession process (omega=0, kappa=1).

    The first ``burn_in`` jumps are discarded; the remaining ``n_points``
    post-jump states sample the attractor of the four detector maps.
    """
    return sample_path(0.0, 1.0, alpha, r0, n_points, seed, burn_in=burn_in).states


def _ensemble_chunk(args, ws: _Workspace) -> np.ndarray:
    """Sum of final Bloch vectors for one seeded chunk of paths.

    Only live paths are stepped: ``ids``, ``t`` and ``r`` hold the paths
    still short of ``t_end``, compacted in path order, and a path's state
    goes to its own row of ``final`` in the round it finishes.  Every
    round works in ``ws``; ``ids`` alternates between its two rows.
    """
    (omega, alpha, r0, n_paths, t_end, seed, stream, rate) = args
    rng = make_rng(seed, stream)
    final = ws.final[:n_paths]
    m, side = n_paths, 0
    ids, t, r = ws.ids[side, :m], ws.t[:m], ws.out[:m]
    np.copyto(ids, ws.index[:m])
    t.fill(0.0)
    r[...] = r0
    while m:
        dt, t_next, c, s, p, q, drawn = ws.scratch[:7, :m]
        over = ws.flags[0, :m]
        rng.standard_exponential(out=dt)
        np.divide(dt, rate, out=dt)
        np.add(t, dt, out=t_next)
        np.greater(t_next, t_end, out=over)
        done = np.flatnonzero(over)
        if omega != 0.0:
            # a finishing path precesses only up to t_end
            left = t.take(done, out=p[:len(done)], mode="clip")
            dt.put(done, np.subtract(t_end, left, out=left), mode="clip")
            np.multiply(dt, omega, out=dt)
            np.cos(dt, out=c)
            np.sin(dt, out=s)
            x, y = r[:, 0], r[:, 1]
            np.multiply(c, x, out=p)
            np.multiply(s, y, out=q)
            np.subtract(p, q, out=p)
            np.multiply(s, x, out=q)
            np.multiply(c, y, out=y)
            np.add(q, y, out=y)
            np.copyto(x, p)
        spare = ws.ids[1 - side]
        final[ids.take(done, out=spare[:len(done)], mode="clip")] = \
            r.take(done, axis=0, out=ws.src[:len(done)], mode="clip")
        stay = np.flatnonzero(np.logical_not(over, out=over))
        m, side = len(stay), 1 - side
        rng.random(out=drawn)  # fixed draw count per round
        u = drawn.take(stay, out=ws.u[:m], mode="clip")
        ids = ids.take(stay, out=spare[:m], mode="clip")
        t = t_next.take(stay, out=ws.t[:m], mode="clip")
        live = r.take(stay, axis=0, out=ws.src[:m], mode="clip")
        dots = np.matmul(live, TETRA_DIRECTIONS.T, out=ws.dots[:m])
        r = _jump_kernel(live, alpha, u=u, dots=dots, ws=ws)[2]
    return final.sum(axis=0)


def ensemble_bloch_mean(omega: float, kappa: float, alpha: float, r0,
                        n_paths: int, t_end: float, seed: int = 0,
                        rate_convention: str = "eeqt") -> np.ndarray:
    """Mean Bloch vector over independent paths at time ``t_end``.

    ``rate_convention`` accepts only ``"eeqt"``, the one clock
    (``total_rate``).  Kept only because the benchmark's pushforward
    workload (bench/workloads.py) passes it.

    Paths are simulated in vectorized chunks of ``ENSEMBLE_CHUNK``; chunk c
    draws from the Philox stream (seed, c), and partial sums are combined
    in chunk order, so the result does not depend on the thread count.
    With T = min(CPUs this process may run on, chunks) workers, worker w
    runs chunks w, w + T, ... in one ``_Workspace`` it allocates once, so
    no round allocates batch-sized arrays (each would fault in fresh pages).
    """
    from concurrent.futures import ThreadPoolExecutor  # only ensembles use threads

    if rate_convention != "eeqt":
        raise ValueError(f"rate_convention must be 'eeqt', got {rate_convention!r}")
    _check_args(alpha, kappa, t_end, n_paths=n_paths)
    rate = total_rate(kappa, alpha)
    r0u = _unit(r0)
    jobs = [(omega, alpha, r0u, min(ENSEMBLE_CHUNK, n_paths - start), t_end, seed, stream, rate)
            for stream, start in enumerate(range(0, n_paths, ENSEMBLE_CHUNK))]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(cpus or 1, len(jobs))

    def run_chunks(worker: int) -> list[np.ndarray]:
        ws = _Workspace(min(ENSEMBLE_CHUNK, n_paths))
        return [_ensemble_chunk(job, ws) for job in jobs[worker::n_workers]]

    partials = [None] * len(jobs)
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for worker, sums in enumerate(pool.map(run_chunks, range(n_workers))):
            partials[worker::n_workers] = sums
    total = np.zeros(3)
    for part in partials:  # fixed chunk order keeps the sum deterministic
        total += part
    return total / n_paths
