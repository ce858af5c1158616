"""Qubit state arithmetic: Pauli basis, Bloch coordinates, trace norm,
entropy functionals.

Operators are plain 2x2 complex numpy arrays, Bloch vectors are float
arrays (..., 3) with components x_k = tr(rho sigma_k).  The Pauli basis used
throughout the package is

    SIGMA1 = [[0, 1], [1, 0]]
    SIGMA2 = [[0, i], [-i, 0]]
    SIGMA3 = [[-1, 0], [0, 1]]

SIGMA2 and SIGMA3 carry the opposite sign of the common textbook choice,
but the cyclic products are unchanged (sigma1 sigma2 = i sigma3 and
permutations), so the usual Bloch-ball geometry holds verbatim.  Every
Bloch formula elsewhere in the package is derived against these constants;
``test_pauli_convention`` pins the algebra.

A given state, a Bloch vector or a 2x2 density matrix, passes one test in
either form (:func:`as_bloch`): |x| <= 1 + 2e-12.  Computed states, which
drift by rounding, follow ``lindblad._positivity_guard`` instead.

Entropies are batched closed forms of Bloch vectors (:func:`bloch_entropy`,
:func:`bloch_relative_entropy`); the matrix forms validate, then convert.
All logarithms are natural (entropies in nats).

The jump process's tetrahedron and the Philox constructor live here too:
the master equation, the exponent's probe set and the sampler share them.
"""

from __future__ import annotations

import math

import numpy as np

# Structural invariants (hermiticity, trace, norm bookkeeping) are enforced
# at 1e-12.
ATOL_STRUCT = 1e-12

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
PAULIS = (SIGMA1, SIGMA2, SIGMA3)
IDENTITY2 = np.eye(2, dtype=complex)

MAX_ENTROPY = math.log(2.0)

# Unit vectors to the vertices of a regular tetrahedron, first one along +x.
# n_2's z is one ulp below the rounded 2 sqrt(2) / 3, so that every n_i . n_i
# computes to exactly 1 and every antipode weight at alpha = 1 to exactly 0.
TETRA_DIRECTIONS = np.array([
    [1.0, 0.0, 0.0],
    [-1.0 / 3.0, 0.0, float.fromhex("0x1.e2b7dddfefa66p-1")],
    [-1.0 / 3.0, math.sqrt(2.0 / 3.0), -math.sqrt(2.0) / 3.0],
    [-1.0 / 3.0, -math.sqrt(2.0 / 3.0), -math.sqrt(2.0) / 3.0],
])


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox4x64-10 generator keyed by (seed, stream), each in [0, 2^64).

    Every Philox key in the package is built here.  A key word outside that
    range raises ValueError rather than wrapping onto another seed's stream.
    """
    if not (0 <= seed < 2 ** 64 and 0 <= stream < 2 ** 64):
        raise ValueError(f"Philox key (seed={seed}, stream={stream}) must lie in [0, 2^64)")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def is_hermitian(a: np.ndarray, atol: float = ATOL_STRUCT) -> bool:
    """Whether every matrix of ``a`` (..., n, n) is hermitian to ``atol``."""
    return bool(np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), initial=0.0) <= atol)


def hermitian_eigenvalues(a: np.ndarray):
    """Eigenvalues (low, high) of hermitian 2x2 matrices (..., 2, 2) in closed form.

    Uses the trace/discriminant formula; no iterative solver involved.
    """
    d0, d1 = a[..., 0, 0].real, a[..., 1, 1].real
    disc = np.hypot(0.5 * (d0 - d1), np.abs(a[..., 0, 1]))
    return 0.5 * (d0 + d1) - disc, 0.5 * (d0 + d1) + disc


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate one statistical state, a 2x2 matrix that :func:`as_bloch`
    accepts, and return it as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    as_bloch(rho)
    return rho


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors x_k = tr(rho sigma_k) of states (..., 2, 2), shape (..., 3)."""
    rho = np.asarray(rho)
    up, down = rho[..., 0, 1], rho[..., 1, 0]
    return np.stack([up.real + down.real, up.imag - down.imag,
                     rho[..., 1, 1].real - rho[..., 0, 0].real], axis=-1)


def bloch_table(linear_map) -> np.ndarray:
    """Real 4x4 table of a linear map on 2x2 matrices, in the coordinates (x, tr rho)
    of rho = (tr rho I + x . sigma) / 2: one call of ``linear_map`` on the stack
    sigma_1/2, sigma_2/2, sigma_3/2, I/2, whose images' (x, tr) are the columns."""
    out = linear_map(0.5 * np.stack([*PAULIS, IDENTITY2]))
    return np.vstack([to_bloch(out).T, np.trace(out, axis1=1, axis2=2).real])


def as_bloch(states) -> np.ndarray:
    """Bloch vectors (..., 3) of given states: Bloch vectors (..., 3), or density
    matrices (..., 2, 2) hermitian with unit trace to ``ATOL_STRUCT``, converted
    by :func:`to_bloch`.  Both forms then pass :func:`_check_in_ball`."""
    a = np.asarray(states)
    if a.shape[-1:] == (3,):
        x = a.astype(float, copy=False)
    elif a.shape[-2:] == (2, 2):
        rho = a.astype(complex, copy=False)
        if not is_hermitian(rho):
            raise ValueError("density matrix must be hermitian")
        if np.any(np.abs(rho[..., 0, 0].real + rho[..., 1, 1].real - 1.0) > ATOL_STRUCT):
            raise ValueError("density matrix must have unit trace")
        x = to_bloch(rho)
    else:
        raise ValueError(f"expected a 2x2 matrix or a Bloch vector of three components, "
                         f"got shape {a.shape}")
    _check_in_ball(x)
    return x


def _check_in_ball(x: np.ndarray) -> None:
    """Raise ValueError unless every Bloch vector of ``x`` (..., 3) is a given
    state: its smaller eigenvalue (1 - |x|) / 2 is at least -``ATOL_STRUCT``,
    that is |x| <= 1 + 2e-12 (computed states: ``lindblad._positivity_guard``)."""
    norm = float(np.max(np.linalg.norm(x, axis=-1), initial=0.0))
    if not norm <= 1.0 + 2.0 * ATOL_STRUCT:  # nan fails too
        raise ValueError(f"state has negative eigenvalue {0.5 * (1.0 - norm):.3e}: its Bloch "
                         f"vector lies outside the unit ball (|x| = {norm:.12g})")


def _one_bloch(state) -> np.ndarray:
    """Bloch vector (3,) of one state, a Bloch vector or a 2x2 matrix (see :func:`as_bloch`)."""
    x = as_bloch(state)
    if x.shape != (3,):
        raise ValueError(f"expected one state, got Bloch array of shape {x.shape}")
    return x


def _unit_direction(v, name: str) -> tuple[float, float, float]:
    """v / |v| of a finite nonzero 3-vector ``v``, else ValueError naming ``name``.

    The norm is taken after an exact power-of-two scaling of v into [1/2, 1),
    so no square overflows or underflows: a huge or tiny v gives the direction
    of its unit-scale twin bit for bit, and an ordinary v the bits of v / |v|.
    """
    x, y, z = (float(c) for c in v)
    if not all(map(math.isfinite, (x, y, z))) or x == y == z == 0.0:
        raise ValueError(f"{name} must be a finite nonzero 3-vector")
    shift = -math.frexp(max(abs(x), abs(y), abs(z)))[1]
    x, y, z = (math.ldexp(c, shift) for c in (x, y, z))
    n = math.sqrt(x * x + y * y + z * z)
    return x / n, y / n, z / n


def from_bloch(x) -> np.ndarray:
    """States rho = (I + x . sigma) / 2, shape (..., 2, 2), of Bloch vectors x (..., 3)
    with |x| <= 1; at x = alpha n_i, the tetrahedron's detector operators."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("Bloch vector must have three components")
    _check_in_ball(x)
    x = np.moveaxis(x, -1, 0)[..., None, None]
    return 0.5 * (IDENTITY2 + x[0] * SIGMA1 + x[1] * SIGMA2 + x[2] * SIGMA3)


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a hermitian 2x2 matrix."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, 1e-10):
        raise ValueError("trace norm implemented for hermitian input only")
    lo, hi = hermitian_eigenvalues(a)
    return abs(lo) + abs(hi)


def bloch_distance(d: np.ndarray) -> np.ndarray:
    """Euclidean norms of Bloch differences d (..., 3): the trace distance
    ||rho - sigma||_1 of the two states they separate.

    hypot, not norm: the squares of distances below 1e-154 underflow (two
    calls, not hypot.reduce over the length-3 axis, which is 3x slower).
    """
    return np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2])


def bloch_entropy(x) -> np.ndarray:
    """Entropy H2((1 + |x|)/2) in nats of Bloch vectors (..., 3); H2 is the
    binary entropy, 0 log 0 = 0, and |x| is capped at 1 (see :func:`from_bloch`)."""
    r = np.minimum(np.linalg.norm(x, axis=-1), 1.0)
    p = np.stack([0.5 * (1.0 + r), 0.5 * (1.0 - r)])
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=0)


def bloch_relative_entropy(x, y, support_tol: float = ATOL_STRUCT) -> np.ndarray:
    """Relative entropy S(rho_x | rho_y) in nats of Bloch vectors (..., 3).

    S = sum p log p - w+ log q+ - w- log q-, with p = (1 +- |x|)/2, rho_y's
    eigenvalues q = (1 +- |y|)/2 and rho_x's weights w = (1 +- x.y/|y|)/2 on
    their eigenvectors (any direction serves at y = 0, where q+ = q-).  It is
    ``inf`` where q- < ``support_tol`` < w- (a support violation, not an
    error); where both are below ``support_tol`` the w- term is dropped.
    Norms are capped at 1 and rounding below 0 is clamped to 0.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ry = np.minimum(np.linalg.norm(y, axis=-1), 1.0)
    cos = np.clip(np.sum(x * y, axis=-1) / np.where(ry > 0.0, ry, 1.0), -1.0, 1.0)
    w_minus, q_minus = 0.5 * (1.0 - cos), 0.5 * (1.0 - ry)
    outside = q_minus < support_tol
    value = (-bloch_entropy(x) - (1.0 - w_minus) * np.log(0.5 * (1.0 + ry))
             - w_minus * np.log(np.where(outside, 1.0, q_minus)))
    return np.where(outside & (w_minus > support_tol), np.inf, np.maximum(value, 0.0))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -tr(rho log rho) in nats of a statistical state."""
    return float(bloch_entropy(to_bloch(check_density_matrix(rho))))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray,
                     support_tol: float = ATOL_STRUCT) -> float:
    """tr(rho log rho - rho log sigma) in nats; see :func:`bloch_relative_entropy`."""
    x, y = (to_bloch(check_density_matrix(s)) for s in (rho, sigma))
    return float(bloch_relative_entropy(x, y, support_tol))


def _random_bloch(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Haar-like direction, radius 1 (pure) or uniform in [0, 1)."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    if not pure:
        d *= rng.random()
    return d


def random_density(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Sample a state with the Bloch vector of :func:`_random_bloch`."""
    return from_bloch(_random_bloch(rng, pure))
