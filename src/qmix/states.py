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

Entropies are batched closed forms of Bloch vectors (:func:`bloch_entropy`,
:func:`bloch_relative_entropy`); the matrix forms validate, then convert.
All logarithms are natural (entropies in nats).
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


def _check_states(rho: np.ndarray, atol: float) -> None:
    """Raise ValueError unless every matrix of ``rho`` (..., 2, 2) is hermitian
    and unit-trace to ``atol`` with eigenvalues >= -atol."""
    if not is_hermitian(rho, atol):
        raise ValueError("density matrix must be hermitian")
    if np.any(np.abs(rho[..., 0, 0].real + rho[..., 1, 1].real - 1.0) > atol):
        raise ValueError("density matrix must have unit trace")
    lo, _ = hermitian_eigenvalues(rho)
    if np.any(lo < -atol):
        raise ValueError(f"density matrix has negative eigenvalue {np.min(lo):.3e}")


def check_density_matrix(rho: np.ndarray, atol: float = ATOL_STRUCT) -> np.ndarray:
    """Validate a statistical state and return it as a complex array.

    Raises ValueError unless rho is hermitian and unit-trace to ``atol``
    with eigenvalues >= -atol.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    _check_states(rho, atol)
    return rho


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors x_k = tr(rho sigma_k) of states (..., 2, 2), shape (..., 3)."""
    rho = np.asarray(rho)
    up, down = rho[..., 0, 1], rho[..., 1, 0]
    return np.stack([up.real + down.real, up.imag - down.imag,
                     rho[..., 1, 1].real - rho[..., 0, 0].real], axis=-1)


def as_bloch(states) -> np.ndarray:
    """Bloch vectors (..., 3) of density matrices (..., 2, 2), checked as
    :func:`check_density_matrix` checks one, or of Bloch vectors (..., 3),
    checked to lie in the unit ball."""
    a = np.asarray(states)
    if a.shape[-1:] == (3,):
        x = a.astype(float, copy=False)
        _check_in_ball(x)
        return x
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a Bloch vector of three components, "
                         f"got shape {a.shape}")
    rho = a.astype(complex, copy=False)
    _check_states(rho, ATOL_STRUCT)
    return to_bloch(rho)


def _check_in_ball(x: np.ndarray) -> None:
    """Raise ValueError unless every Bloch vector in ``x`` (..., 3) has |x| <= 1 + 1e-9."""
    norm = float(np.max(np.linalg.norm(x, axis=-1), initial=0.0))
    if not norm <= 1.0 + 1e-9:  # nan fails too
        raise ValueError(f"Bloch vector lies outside the unit ball (|x| = {norm:.12g})")


def from_bloch(x) -> np.ndarray:
    """Statistical state rho = (I + x . sigma) / 2 for |x| <= 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    _check_in_ball(x)
    return 0.5 * (IDENTITY2 + x[0] * SIGMA1 + x[1] * SIGMA2 + x[2] * SIGMA3)


def pure_state(direction) -> np.ndarray:
    """Rank-1 projector whose Bloch vector points along ``direction``."""
    d = np.asarray(direction, dtype=float)
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise ValueError("direction must be nonzero")
    return from_bloch(d / n)


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
