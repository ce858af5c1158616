"""Master-equation engine for dissipative qubit models.

A model is a Hamiltonian plus weighted jump operators generating

    d rho / dt = -i [H, rho] + sum_k  r_k (A_k rho A_k^+ - {A_k^+ A_k, rho} / 2)

Four named presets cover the measurement setups analysed by the rest of
the package:

* ``Tetrahedron`` -- four spin polarizers along the vertices of a regular
  tetrahedron, coupling operators (I + alpha n_i . sigma)/2 at rate kappa
  each (``from_bloch(alpha n_i)``), Hamiltonian (omega/2) sigma3.
* ``Zeno`` -- a single yes/no polarizer e = (I + sigma1)/2 at rate kappa,
  Hamiltonian (omega/2) sigma3.
* ``Fluorescence`` -- driven two-level emitter: H = -(rabi/2) sigma1 and
  lowering operator [[0, 0], [1, 0]] at rate gamma.
* ``SigmaXConjugation`` -- d rho/dt = sigma1 rho sigma1 - rho, the stock
  example of a dissipative semigroup that is not completely mixing.

Propagation has one route.  Every generator is one 4x4 table A =
[[M, b], [0, 0]] on (x, tr rho) (:func:`bloch_generator`), the affine map
d x/dt = M x + b on (x, 1), and every propagator is exp(t A)
(:func:`_affine_propagator`), the only matrix exponential of the package
(:func:`_expm`, scaling and squaring in numpy).  On a uniform grid it is
the powers of the step propagator P = exp(dt A), filled by doubling
(:func:`_grid_propagator`): :func:`evolve` fills each block of trajectory
rows as one product of P^1 .. P^B with a state, and the exponent's
distance tables read the 3x3 block of P^k, which moves a difference of
two states, (d, 0).  The exact paths of every preset
(:func:`analytic_bloch_paths`) and the mixing classification at a horizon
apply exp(t A) at arbitrary times (:func:`_propagate`).  The slowest
decay rate behind the default horizon and the stationary state read one
scaled inverse of M (:func:`_scaled_inverse`).
:func:`generator_apply`, the master equation on 2x2 density matrices,
defines A and serves as the reference the Bloch forms are checked against.

States are Bloch vectors: :func:`evolve` takes one (a 2x2 matrix too) and
returns Bloch rows.  Everything is expressed against the Pauli constants in :mod:`qmix.states`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .states import (
    ATOL_STRUCT,
    IDENTITY2,
    SIGMA1,
    SIGMA3,
    TETRA_DIRECTIONS,
    _one_bloch,
    bloch_table,
    from_bloch,
    hermitian_eigenvalues,
    is_hermitian,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Tetrahedron:
    """Simultaneous four-direction spin measurement."""
    kappa: float
    alpha: float
    omega: float = 0.0


@dataclass(frozen=True)
class Zeno:
    """Repeated yes/no check of one spin component under precession."""
    kappa: float
    omega: float


@dataclass(frozen=True)
class Fluorescence:
    """Two-level emitter driven at Rabi frequency ``rabi``, decay ``gamma``."""
    rabi: float
    gamma: float


@dataclass(frozen=True)
class SigmaXConjugation:
    """Pure sigma1-conjugation dephasing; the x axis is frozen."""


Preset = Union[Tetrahedron, Zeno, Fluorescence, SigmaXConjugation]


class PositivityError(RuntimeError):
    """Integrator produced a state with an eigenvalue below -1e-6."""


class NonUniqueStationaryError(ValueError):
    """The generator kernel is degenerate; carries the fixed subspace."""

    def __init__(self, message: str, fixed_directions: np.ndarray):
        super().__init__(message)
        self.fixed_directions = fixed_directions


class LindbladModel:
    """Immutable Hamiltonian + jump-term bundle.

    ``jump_terms`` is an ordered tuple of (operator, rate) pairs with
    rate >= 0.  The generator's table is built once, here (see
    :func:`bloch_generator`), and every spectral fact of the model is read
    from it, not from the preset that built it.
    """

    def __init__(self, hamiltonian: np.ndarray, jump_terms):
        h = np.array(hamiltonian, dtype=complex)
        if h.shape != (2, 2):
            raise ValueError("hamiltonian must be 2x2")
        if not np.all(np.isfinite(h)):
            raise ValueError("hamiltonian must be finite")
        if not is_hermitian(h, 1e-10):
            raise ValueError("hamiltonian must be hermitian")
        terms = []
        for op, rate in jump_terms:
            op = np.array(op, dtype=complex)
            if op.shape != (2, 2):
                raise ValueError("jump operators must be 2x2")
            if not np.all(np.isfinite(op)):
                raise ValueError("jump operators must be finite")
            if not 0 <= rate < math.inf:
                raise ValueError("jump rates must be finite and nonnegative")
            op.setflags(write=False)
            terms.append((op, float(rate)))
        h.setflags(write=False)
        self._h = h
        self._terms = tuple(terms)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite table raises
            self._generator = bloch_table(lambda rho: generator_apply(self, rho))
        if not np.isfinite(self._generator).all():
            raise ValueError(f"the generator table overflows: jump rates {list(self.rates())}, "
                             f"largest hamiltonian entry {np.abs(h).max():g}")
        self._generator[3] = 0.0  # trace is preserved
        self._generator.setflags(write=False)

    @property
    def hamiltonian(self) -> np.ndarray:
        return self._h

    @property
    def jump_terms(self):
        return self._terms

    def rates(self):
        return tuple(rate for _, rate in self._terms)


def build_model(preset: Preset) -> LindbladModel:
    """Construct the LindbladModel for a named preset."""
    if isinstance(preset, Tetrahedron):
        if preset.kappa < 0 or preset.omega < 0:
            raise ValueError("kappa and omega must be nonnegative")
        if not 0.0 <= preset.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        h = 0.5 * preset.omega * SIGMA3
        ops = from_bloch(preset.alpha * TETRA_DIRECTIONS)
        return LindbladModel(h, [(a_i, preset.kappa) for a_i in ops])
    if isinstance(preset, Zeno):
        if preset.kappa < 0 or preset.omega < 0:
            raise ValueError("kappa and omega must be nonnegative")
        h = 0.5 * preset.omega * SIGMA3
        e = 0.5 * (IDENTITY2 + SIGMA1)
        return LindbladModel(h, [(e, preset.kappa)])
    if isinstance(preset, Fluorescence):
        if preset.gamma < 0 or preset.rabi < 0:
            raise ValueError("gamma and rabi must be nonnegative")
        h = -0.5 * preset.rabi * SIGMA1
        lower = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        return LindbladModel(h, [(lower, preset.gamma)])
    if isinstance(preset, SigmaXConjugation):
        return LindbladModel(np.zeros((2, 2)), [(SIGMA1, 1.0)])
    raise TypeError(f"unknown preset {preset!r}")


def generator_apply(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation at ``rho``, 2x2 or a stack (..., 2, 2).

    Output is traceless and hermitian for hermitian input.
    """
    h = model.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for op, rate in model.jump_terms:
        if rate == 0.0:
            continue
        gram = op.conj().T @ op
        out = out + rate * (op @ rho @ op.conj().T - 0.5 * (gram @ rho + rho @ gram))
    return out


def bloch_generator(model: LindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """Affine form of the generator in Bloch coordinates.

    Returns (M, b) with d x / dt = M x + b, read-only views of the model's
    :func:`qmix.states.bloch_table` of :func:`generator_apply`, whose trace
    row (rounding) is set to 0.  Exact up to rounding.
    """
    a = model._generator
    return a[:3, :3], a[:3, 3]


def default_timestep(model: LindbladModel) -> float:
    """Output step of :func:`evolve`: min(1e-3, 0.01 / fastest rate or frequency)."""
    scale = max(model.rates(), default=0.0)
    lo, hi = hermitian_eigenvalues(model.hamiltonian)
    scale = max(scale, abs(lo), abs(hi))
    if scale <= 0.0:
        return 1e-3
    return min(1e-3, 0.01 / scale)


# Each step stores one time and one Bloch vector (32 bytes), so the cap bounds
# a trajectory at about 320 MB.  Longer horizons need a larger dt.  At the cap
# (a tetrahedron, dt = 1e-3) evolve takes 0.40-0.56 s (median 0.45 s over six
# fresh processes) and peaks at 335 MB RSS (one 2-CPU x86-64 host, numpy 2.4,
# OpenBLAS).
MAX_STEPS = 10 ** 7


@dataclass
class StateTrajectory:
    """Output of :func:`evolve`: Bloch vectors ``blochs`` (n, 3) at uniform ``times``."""
    times: np.ndarray
    blochs: np.ndarray


def _positivity_guard(x: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Clamp the Bloch vectors (rows of ``x``, at times ``t``) that left the unit ball.

    The smaller eigenvalue of (I + x . sigma) / 2 is lo = (1 - |x|) / 2.
    A row with lo below -1e-6 or not finite aborts, naming the first such
    time; rows with smaller drift are projected back to the sphere, which
    is the pure state with the same eigenvectors.  Returns the guarded rows
    (``x`` itself when every row lies in the ball) and lo of every row; the
    clamped rows are those with lo < 0.
    """
    norm = np.sqrt(np.einsum("...i,...i->...", x, x))
    lo = 0.5 * (1.0 - norm)
    out = ~(norm <= 1.0)  # a non-finite norm too
    if not out.any():
        return x, lo
    bad = ~(lo >= -1e-6)
    if bad.any():
        first = np.argmax(bad)
        at = f"at t={np.broadcast_to(t, lo.shape).flat[first]:.6g}"
        if not math.isfinite(lo.flat[first]):
            raise PositivityError(f"non-finite state norm {norm.flat[first]:.3e} {at}")
        raise PositivityError(f"state eigenvalue {lo.flat[first]:.3e} {at} exceeds the "
                              "-1e-6 abort threshold")
    return np.divide(x, norm[..., None], out=x.copy(), where=out[..., None]), lo


def _grid_propagator(model: LindbladModel, dt: float, n: int) -> np.ndarray:
    """exp(t_k A) on the uniform grid t_k = k dt, shape (n, 4, 4), for n >= 2:
    the powers P^0 .. P^(n-1) of the step propagator P = exp(dt A).

    Powers by doubling: with P[0..k] filled, P[k+1 : k+1+c] = P[1 : 1+c] @ P[k],
    so about log2(n) batched products fill the stack.
    """
    p = np.empty((n, 4, 4))
    p[0] = np.eye(4)
    p[1] = _affine_propagator(model, dt)
    k = 1
    while k < n - 1:
        c = min(k, n - 1 - k)
        np.matmul(p[1:1 + c], p[k], out=p[k + 1:k + 1 + c])
        k += c
    return p


# Rows of a trajectory per block: one product of the current state with the
# stacked step powers P^1 .. P^B gives the next B rows.
_BLOCK_STEPS = 1024


@np.errstate(over="ignore", invalid="ignore")  # a non-finite row aborts instead
def evolve(model: LindbladModel, state0, t_end: float,
           dt: Optional[float] = None) -> StateTrajectory:
    """The solution of the master equation on a uniform grid of output steps.

    ``state0`` is one state, a Bloch vector (3,) or a 2x2 density matrix;
    a vector is the first row as given.
    The step propagator is exact: P = exp(dt A) of the generator table
    acting on (x, 1), so dt sets only the spacing of the rows, at any size.
    The powers P^1 .. P^B (B = ``_BLOCK_STEPS``) are filled once
    (:func:`_grid_propagator`), and each block of B rows is that stack
    times the block's first state, so the block's last row, P^B times the
    state, starts the next block and the work memory stays at B powers for
    any grid.  The
    step is shrunk so the grid lands on ``t_end`` exactly, and grids longer
    than ``MAX_STEPS`` are rejected before anything is allocated.  Trace
    and hermiticity hold by construction.  Positivity is guarded row by
    row on each block: drift (|x| > 1) beyond 1e-6 in the smaller
    eigenvalue aborts with PositivityError at the first such time, smaller
    drift (the rounding of the step powers) is clamped, and one warning
    per call reports the clamped rows.  A non-finite row (an overflowed
    propagator) aborts too, without numpy's floating-point warnings.
    """
    x = _one_bloch(state0)
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    if dt is None:
        dt = default_timestep(model)
    if not dt > 0:
        raise ValueError("dt must be positive")
    if t_end == 0.0:
        return StateTrajectory(np.array([0.0]), x[None, :].copy())
    ratio = t_end / dt - 1e-12
    if not ratio <= MAX_STEPS:
        raise ValueError(
            f"t_end / dt = {t_end / dt:.6g} steps exceeds the MAX_STEPS cap of {MAX_STEPS}")
    n_steps = max(1, math.ceil(ratio))
    dt = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    # rows 3 (k-1) .. 3k - 1 are the Bloch rows of P^k: times (x, 1), the
    # next Bloch vectors end to end
    powers = _grid_propagator(model, dt, min(n_steps, _BLOCK_STEPS) + 1)[1:, :3].reshape(-1, 4)
    blochs = np.empty((n_steps + 1, 3))
    blochs[0] = x
    state = np.append(x, 1.0)
    clamped, worst, first = 0, 0.0, 0.0
    for start in range(1, n_steps + 1, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, n_steps + 1)
        rows = (powers[:3 * (stop - start)] @ state).reshape(-1, 3)
        rows, lo = _positivity_guard(rows, times[start:stop])
        out = lo < 0.0
        if out.any():
            if not clamped:
                first = times[start + np.argmax(out)]
            clamped += int(np.count_nonzero(out))
            worst = min(worst, float(lo.min()))
        blochs[start:stop] = rows
        state[:3] = rows[-1]
    if clamped:
        logger.warning("clamped %d of %d steps back to the Bloch sphere: worst positivity "
                       "drift %.3e, first at t=%.6g", clamped, n_steps, worst, first)
    return StateTrajectory(times, blochs)


# 1/k! for k = 0..24 in five rows of five: the blocks of the Taylor polynomial
# of exp as a polynomial in A^5 whose coefficients are quartics in A
_TAYLOR_BLOCKS = np.array([1 / math.factorial(k) for k in range(25)]).reshape(5, 5)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(A) for every k x k matrix of a float array of shape (..., k, k).

    Scaling and squaring: each A is halved s times until its 1-norm is
    below 2, the degree-24 Taylor polynomial of the result (relative
    truncation error below 2e-17) is summed Paterson-Stockmeyer style in
    eight products, and the sum is squared s times.  The halving is exact,
    but every squaring about doubles the relative error of a mode whose
    rate is small against the norm (a slow decay under a fast rotation,
    over a long grid step), so the threshold is 2, not the 1/2 at which a
    degree-19 polynomial in seven products would do: one product more,
    two squarings fewer.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(0.5 * norm)[1], 0)  # 2^-s norm < 2
    p = np.empty((6,) + a.shape)  # A^0 .. A^5
    p[0] = np.eye(a.shape[-1])
    p[1] = np.ldexp(a, -s[..., None, None])
    for j in range(2, 6):
        np.matmul(p[j - 1], p[1], out=p[j])
    blocks = np.einsum("bj,j...->b...", _TAYLOR_BLOCKS, p[:5])
    e = blocks[4]
    for j in (3, 2, 1, 0):
        e = e @ p[5] + blocks[j]
    if e.ndim == 2:
        for _ in range(s):
            e = e @ e
        return e
    for j in range(s.max(initial=0)):
        more = s > j
        e[more] = e[more] @ e[more]
    return e


def _affine_propagator(model: LindbladModel, t) -> np.ndarray:
    """4x4 matrices exp(t A) of the model's generator table, one per time.

    ``t`` is a time or an array of times; the result has shape t.shape + (4, 4).
    """
    return _expm(np.asarray(t, dtype=float)[..., None, None] * model._generator)


def _propagate(model: LindbladModel, blochs: np.ndarray, t) -> np.ndarray:
    """exp(t A) applied to (x, 1) for each Bloch vector x of ``blochs`` (n, 3)
    at each time of ``t``; the result has shape (n,) + t.shape + (3,)."""
    prop = _affine_propagator(model, t)
    return np.einsum("...ij,nj->n...i", prop[..., :3, :3], blochs) + prop[..., :3, 3]


def analytic_bloch_paths(preset: Preset, blochs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact Bloch trajectories of a preset: the exponential of its generator table.

    ``blochs`` has shape (n, 3); the result has shape (n, len(times), 3).
    """
    blochs = np.atleast_2d(np.asarray(blochs, dtype=float))
    return _propagate(build_model(preset), blochs, times)


def _scaled_inverse(model: LindbladModel) -> tuple[np.ndarray, int, Optional[np.ndarray]]:
    """(S, e, inv(S)) for the Bloch block M, S = 2^-e M with its largest entry
    in [1/2, 1); inv(S) is None for a singular M: ``inv`` fails, or Skeel's
    condition ||inv(S)| |S|||_inf exceeds 1e10 (rounding leaves the zero mode
    of a rotated-dephasing table near 1e-17 of |M|, condition 5e15 and up;
    Zeno reads 1e8 at kappa/omega = 1e8)."""
    m = bloch_generator(model)[0]
    e = int(np.frexp(np.abs(m).max())[1])
    scaled = np.ldexp(m, -e)
    with np.errstate(all="ignore"):  # an overflowed inverse reads as singular
        try:
            inverse = np.linalg.inv(scaled)
        except np.linalg.LinAlgError:
            return scaled, e, None
        condition = (np.abs(inverse) @ np.abs(scaled)).sum(axis=1).max()
    return scaled, e, inverse if condition <= 1e10 else None


def stationary_state(model: LindbladModel) -> np.ndarray:
    """Bloch vector x of the unique state with L(rho) = 0.

    Solves M x = -b at unit scale, x = -inv(S) 2^-e b (:func:`_scaled_inverse`);
    a singular M means the fixed set is a whole affine subspace, and
    NonUniqueStationaryError carries its flat directions (right singular
    vectors of S).  The scaled residual |M x + b| / 2^e must stay below
    1e-12.  The solution, a computed state, passes :func:`_positivity_guard`.
    """
    scaled, e, inverse = _scaled_inverse(model)
    if inverse is None:
        sing, vt = np.linalg.svd(scaled)[1:]
        null_dirs = vt[sing <= max(1e-10 * sing[0], sing[-1])]
        raise NonUniqueStationaryError(
            "generator kernel is degenerate; stationary states form an affine "
            f"subspace with flat Bloch direction(s) {np.round(null_dirs, 12).tolist()}",
            null_dirs)
    b = np.ldexp(bloch_generator(model)[1], -e)
    x = -(inverse @ b)
    residual = float(np.linalg.norm(scaled @ x + b))
    if residual > ATOL_STRUCT:
        raise RuntimeError(f"stationary solve left residual {residual:.3e}")
    return _positivity_guard(x, math.inf)[0]
