"""Property tests for the qubit entropy functionals against a 2x2
eigendecomposition oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmix.states import (
    ATOL_STRUCT,
    IDENTITY2,
    MAX_ENTROPY,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    as_bloch,
    bloch_entropy,
    bloch_relative_entropy,
    from_bloch,
    relative_entropy,
    von_neumann_entropy,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)


def eigh_relative_entropy(rho, sigma, support_tol=ATOL_STRUCT):
    """tr(rho log rho - rho log sigma) from the eigenvectors of both states.

    rho's weight on each eigenvector of sigma is p @ |<u_i|v_j>|^2; an
    eigenvalue of sigma below ``support_tol`` that carries weight above it
    makes the value infinite, and one that carries none is skipped.
    """
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    p = np.clip(p, 0.0, None)
    weight = p @ (np.abs(u.conj().T @ v) ** 2)
    value = sum(pi * math.log(pi) for pi in p if pi > 0.0)
    for qj, wj in zip(q, weight):
        if qj < support_tol:
            if wj > support_tol:
                return math.inf
            continue
        value -= wj * math.log(qj)
    return max(value, 0.0)


def eigh_entropy(rho):
    lam = np.linalg.eigvalsh(rho)
    return -sum(x * math.log(x) for x in lam if x > 0.0)


_entry = st.floats(-1.0, 1.0)


@st.composite
def bloch_vectors(draw):
    """Pure (radius 1) or mixed Bloch vector in a random direction.

    Mixed radii stop at 0.999: closer to the sphere, log((1 - |y|)/2) loses
    digits in any route, so a 1e-11 agreement would test rounding, not the
    formula.
    """
    v = np.array(draw(st.lists(_entry, min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        return np.zeros(3)
    return v / norm * draw(st.one_of(st.just(1.0), st.floats(0.0, 0.999)))


@PROPERTY_SETTINGS
@given(x=bloch_vectors(), y=bloch_vectors())
def test_relative_entropy_matches_the_eigh_oracle(x, y):
    rho, sigma = from_bloch(x), from_bloch(y)
    expected = eigh_relative_entropy(rho, sigma)
    got = relative_entropy(rho, sigma)
    if math.isinf(expected):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(expected, rel=0, abs=1e-11)


@PROPERTY_SETTINGS
@given(x=bloch_vectors())
def test_entropy_matches_the_eigh_oracle(x):
    rho = from_bloch(x)
    assert von_neumann_entropy(rho) == pytest.approx(eigh_entropy(rho), rel=0, abs=1e-12)


@PROPERTY_SETTINGS
@given(xs=st.lists(bloch_vectors(), min_size=1, max_size=6))
def test_batched_call_equals_the_per_pair_call(xs):
    x = np.array(xs)
    pairs = bloch_relative_entropy(x[:, None], x[None, :])
    entropies = bloch_entropy(x)
    assert pairs.shape == (len(xs), len(xs)) and entropies.shape == (len(xs),)
    for i, xi in enumerate(xs):
        assert entropies[i] == bloch_entropy(xi)
        for j, xj in enumerate(xs):
            assert pairs[i, j] == bloch_relative_entropy(xi, xj)


@PROPERTY_SETTINGS
@given(x=bloch_vectors(), y=bloch_vectors())
def test_bloch_forms_equal_the_matrix_forms(x, y):
    # the matrix forms see x after a round trip through a 2x2 matrix; near a
    # pure state, a rounding of |x| by 1e-16 moves the entropy by about 4e-15
    rho, sigma = from_bloch(x), from_bloch(y)
    assert bloch_entropy(x) == pytest.approx(von_neumann_entropy(rho), rel=0, abs=1e-13)
    expected = relative_entropy(rho, sigma)
    if math.isinf(expected):
        assert math.isinf(bloch_relative_entropy(x, y))
    else:
        assert bloch_relative_entropy(x, y) == pytest.approx(expected, rel=0, abs=1e-12)


def _accepted(state):
    try:
        as_bloch(state)
    except ValueError:
        return False
    return True


@PROPERTY_SETTINGS
@given(direction=st.lists(_entry, min_size=3, max_size=3).filter(
           lambda v: np.linalg.norm(v) > 1e-3),
       k=st.integers(-50, 50).filter(lambda k: k != 20))
def test_a_vector_and_its_matrix_get_one_verdict(direction, k):
    # |x| = 1 + k 1e-13 against the bound 1 + 2e-12; at k = 20 the state sits
    # on the bound, where the 1e-16 rounding of the matrix decides.  The matrix
    # is built here because from_bloch checks the ball itself
    x = (1.0 + k * 1e-13) * np.array(direction) / np.linalg.norm(direction)
    rho = 0.5 * (IDENTITY2 + x[0] * SIGMA1 + x[1] * SIGMA2 + x[2] * SIGMA3)
    assert _accepted(x) == _accepted(rho) == (k < 20)


def binary_entropy(p):
    return -sum(v * math.log(v) for v in (p, 1.0 - p) if v > 0.0)


class TestRelativeEntropyEdgeCases:
    def test_against_the_maximally_mixed_state(self):
        # H(rho | I/2) = log 2 - S(rho), whatever the direction of rho
        for x in ([0.0, 0.0, 0.0], [0.3, -0.4, 0.1], [0.0, 0.6, 0.8]):
            r = float(np.linalg.norm(x))
            got = relative_entropy(from_bloch(x), from_bloch([0.0, 0.0, 0.0]))
            assert got == pytest.approx(MAX_ENTROPY - binary_entropy(0.5 * (1 + r)),
                                        rel=0, abs=1e-15)

    def test_pure_against_mixed(self):
        # |x| = 1: the self term is 0 log 0 + 1 log 1 = 0
        x, y = np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.0])
        w_plus = 0.5 * (1.0 + x @ y / np.linalg.norm(y))
        expected = -w_plus * math.log(0.75) - (1.0 - w_plus) * math.log(0.25)
        got = relative_entropy(from_bloch(x), from_bloch(y))
        assert got == pytest.approx(expected, rel=0, abs=1e-15)
        assert got == pytest.approx(eigh_relative_entropy(from_bloch(x), from_bloch(y)),
                                    rel=0, abs=1e-15)

    @pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.2, 0.4, -0.1], [0.0, 0.0, 1.0],
                                   [0.6, 0.0, -0.8]])
    def test_equal_states_give_zero(self, x):
        assert relative_entropy(from_bloch(x), from_bloch(x)) == pytest.approx(0.0, abs=1e-15)

    def test_sigma_within_support_tol_of_the_sphere_is_a_support_violation(self):
        sigma = from_bloch([0.0, 0.0, 1.0 - 0.5 * ATOL_STRUCT])
        for x in ([0.5, 0.0, 0.0], [0.0, 0.0, 0.9], [0.0, 0.0, -1.0]):
            assert math.isinf(relative_entropy(from_bloch(x), sigma))
            assert math.isinf(eigh_relative_entropy(from_bloch(x), sigma))
