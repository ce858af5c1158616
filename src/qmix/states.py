"""Qubit state arithmetic: Pauli basis, Bloch coordinates, trace norm,
entropy functionals.

Operators are plain 2x2 complex numpy arrays, Bloch vectors are length-3
float arrays with components x_k = tr(rho sigma_k).  The Pauli basis used
throughout the package is

    SIGMA1 = [[0, 1], [1, 0]]
    SIGMA2 = [[0, i], [-i, 0]]
    SIGMA3 = [[-1, 0], [0, 1]]

SIGMA2 and SIGMA3 carry the opposite sign of the common textbook choice,
but the cyclic products are unchanged (sigma1 sigma2 = i sigma3 and
permutations), so the usual Bloch-ball geometry holds verbatim.  Every
Bloch formula elsewhere in the package is derived against these constants;
``test_pauli_convention`` pins the algebra.

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
    return bool(np.max(np.abs(a - a.conj().T)) <= atol)


def hermitian_eigenvalues(a: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (low, high) of a hermitian 2x2 matrix in closed form.

    Uses the trace/discriminant formula; no iterative solver involved.
    """
    half_tr = 0.5 * (a[0, 0].real + a[1, 1].real)
    disc = math.hypot(0.5 * (a[0, 0].real - a[1, 1].real), abs(a[0, 1]))
    return half_tr - disc, half_tr + disc


def check_density_matrix(rho: np.ndarray, atol: float = ATOL_STRUCT) -> np.ndarray:
    """Validate a statistical state and return it as a complex array.

    Raises ValueError unless rho is hermitian and unit-trace to ``atol``
    with eigenvalues >= -atol.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if not is_hermitian(rho, atol):
        raise ValueError("density matrix must be hermitian")
    if abs(rho[0, 0].real + rho[1, 1].real - 1.0) > atol:
        raise ValueError("density matrix must have unit trace")
    lo, _ = hermitian_eigenvalues(rho)
    if lo < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector x_k = tr(rho sigma_k) of a statistical state."""
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def from_bloch(x) -> np.ndarray:
    """Statistical state rho = (I + x . sigma) / 2 for |x| <= 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    norm = float(np.linalg.norm(x))
    if norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector lies outside the unit ball (|x| = {norm:.12g})")
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


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam log lam) in nats, with 0 log 0 = 0."""
    lo, hi = hermitian_eigenvalues(rho)
    out = 0.0
    for lam in (lo, hi):
        if lam > 0.0:
            out -= lam * math.log(lam)
    return out


def relative_entropy(rho: np.ndarray, sigma: np.ndarray,
                     support_tol: float = ATOL_STRUCT) -> float:
    """tr(rho log rho - rho log sigma) in nats.

    Returns ``math.inf`` when rho has weight (above ``support_tol``) on an
    eigenvector of sigma whose eigenvalue is below ``support_tol``; a
    support violation is a value, not an error.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    p = np.clip(p.real, 0.0, None)
    q = q.real
    # overlap[i, j] = |<u_i | v_j>|^2
    overlap = np.abs(u.conj().T @ v) ** 2
    weight = p @ overlap  # weight rho assigns to each eigenvector of sigma
    s_cross = 0.0
    for j in range(2):
        if q[j] < support_tol:
            if weight[j] > support_tol:
                return math.inf
            continue
        s_cross += weight[j] * math.log(q[j])
    s_self = sum(pi * math.log(pi) for pi in p if pi > 0.0)
    value = s_self - s_cross
    if value < 0.0:
        # Klein's inequality gives >= 0 for states; only rounding can dip below.
        if value < -1e-10:
            raise ValueError(f"relative entropy went negative: {value:.3e} (not states?)")
        value = 0.0
    return value


def random_density(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Sample a state: Haar-like direction, radius 1 (pure) or uniform in [0, 1)."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    if not pure:
        d *= rng.random()
    return from_bloch(d)
