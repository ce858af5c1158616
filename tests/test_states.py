"""Qubit arithmetic: Bloch coordinates, trace norm, entropies."""

import math

import numpy as np
import pytest

from qmix.states import (
    IDENTITY2,
    PAULIS,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    as_bloch,
    check_density_matrix,
    from_bloch,
    hermitian_eigenvalues,
    random_density,
    relative_entropy,
    to_bloch,
    trace_norm,
    von_neumann_entropy,
)


class TestPauliConvention:
    """Pin the algebra of the package's Pauli constants."""

    def test_cyclic_products(self):
        np.testing.assert_allclose(SIGMA1 @ SIGMA2, 1j * SIGMA3, atol=1e-15)
        np.testing.assert_allclose(SIGMA2 @ SIGMA3, 1j * SIGMA1, atol=1e-15)
        np.testing.assert_allclose(SIGMA3 @ SIGMA1, 1j * SIGMA2, atol=1e-15)

    def test_squares_and_traces(self):
        for s in (SIGMA1, SIGMA2, SIGMA3):
            np.testing.assert_allclose(s @ s, IDENTITY2, atol=1e-15)
            assert abs(np.trace(s)) == 0.0

    def test_printed_entries(self):
        assert SIGMA2[0, 1] == 1j and SIGMA2[1, 0] == -1j
        assert SIGMA3[0, 0] == -1 and SIGMA3[1, 1] == 1


class TestBlochMaps:
    def test_maximally_mixed_maps_to_origin(self):
        np.testing.assert_allclose(to_bloch(0.5 * IDENTITY2), [0, 0, 0], atol=1e-15)

    def test_basis_projector_coordinates(self):
        # oracle: direct trace computation against the constants
        rho = np.diag([1.0, 0.0]).astype(complex)
        expected = [np.trace(rho @ s).real for s in (SIGMA1, SIGMA2, SIGMA3)]
        np.testing.assert_allclose(expected, [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(to_bloch(rho), [0.0, 0.0, -1.0], atol=1e-15)

    def test_x_projector(self):
        np.testing.assert_allclose(to_bloch(0.5 * (IDENTITY2 + SIGMA1)),
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_from_bloch_origin_and_axis(self):
        np.testing.assert_allclose(from_bloch([0, 0, 0]), 0.5 * IDENTITY2, atol=1e-15)
        proj = from_bloch([1, 0, 0])
        np.testing.assert_allclose(proj, 0.5 * (IDENTITY2 + SIGMA1), atol=1e-15)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-14)

    def test_unit_vectors_give_rank_one_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            eig = np.linalg.eigvalsh(from_bloch(v))  # independent eigensolver
            np.testing.assert_allclose(sorted(eig), [0.0, 1.0], atol=1e-12)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.random()
            np.testing.assert_allclose(to_bloch(from_bloch(v)), v, atol=1e-12)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="unit ball"):
            from_bloch([1.0 + 1e-6, 0.0, 0.0])

    def test_stack_of_vectors_gives_stack_of_states(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 5, 3))
        x *= rng.random((4, 5, 1)) / np.linalg.norm(x, axis=-1, keepdims=True)
        got = from_bloch(x)
        assert got.shape == (4, 5, 2, 2)
        for i, j in np.ndindex(4, 5):
            assert got[i, j].tobytes() == from_bloch(x[i, j]).tobytes()
        x[2, 3] = [0.0, 0.0, 1.0 + 1e-6]
        with pytest.raises(ValueError, match="unit ball"):
            from_bloch(x)
        with pytest.raises(ValueError, match="three components"):
            from_bloch(np.zeros((2, 4)))

    def test_closed_form_eigenvalues_match_lapack(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = a + a.conj().T
            lo, hi = hermitian_eigenvalues(h)
            np.testing.assert_allclose([lo, hi], np.linalg.eigvalsh(h), atol=1e-12)


class TestTraceNorm:
    def test_zero_difference(self):
        rho = from_bloch([0.3, -0.1, 0.2])
        assert trace_norm(rho - rho) == pytest.approx(0.0, abs=1e-15)

    def test_half_sigma1(self):
        diff = 0.5 * (IDENTITY2 + SIGMA1) - 0.5 * IDENTITY2
        # oracle: eigenvalues of sigma1/2 are +/- 1/2
        assert sorted(np.linalg.eigvalsh(diff)) == pytest.approx([-0.5, 0.5])
        assert trace_norm(diff) == pytest.approx(1.0, abs=1e-14)

    def test_distance_to_center_is_bloch_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.normal(size=3)
            m = m / np.linalg.norm(m) * rng.random()
            got = trace_norm(from_bloch(m) - 0.5 * IDENTITY2)
            assert got == pytest.approx(np.linalg.norm(m), abs=1e-12)

    def test_norm_axioms_on_random_hermitians(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = a + a.conj().T
            b = b + b.conj().T
            c = rng.normal()
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-12
            assert trace_norm(c * a) == pytest.approx(abs(c) * trace_norm(a), rel=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEntropies:
    def test_relative_entropy_of_equal_states(self):
        rho = from_bloch([0.2, 0.4, -0.1])
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_center_against_tilted_state(self):
        # H(I/2 | (I + sin(2 phi) sigma1)/2) = -log cos(2 phi) at phi = pi/8
        phi = math.pi / 8
        sigma = from_bloch([math.sin(2 * phi), 0.0, 0.0])
        value = relative_entropy(0.5 * IDENTITY2, sigma)
        assert value == pytest.approx(-math.log(math.cos(2 * phi)), abs=1e-12)
        assert value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_distinct_projectors_have_infinite_divergence(self):
        for phi in (0.1, math.pi / 8, 0.7):
            e1 = np.diag([1.0, 0.0]).astype(complex)
            e2 = np.array([
                [math.cos(phi) ** 2, math.sin(phi) * math.cos(phi)],
                [math.sin(phi) * math.cos(phi), math.sin(phi) ** 2]])
            assert math.isinf(relative_entropy(e1, e2))

    def test_pinsker_bound_sampled(self):
        rng = np.random.default_rng(17)
        for i in range(500):
            rho = random_density(rng, pure=(i % 4 == 0))
            sigma = random_density(rng)
            h = relative_entropy(rho, sigma)
            if math.isinf(h):
                continue
            assert h >= 0.5 * trace_norm(rho - sigma) ** 2 - 1e-12

    def test_von_neumann_entropy_values(self):
        assert von_neumann_entropy(from_bloch([0, 1, 0])) == pytest.approx(0.0, abs=1e-12)
        assert von_neumann_entropy(0.5 * IDENTITY2) == pytest.approx(math.log(2), abs=1e-14)
        got = von_neumann_entropy(from_bloch([0.0, 0.5, 0.0]))
        expected = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
        assert got == pytest.approx(expected, abs=1e-12)


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            check_density_matrix(np.diag([1.5, -0.5]))


def _stack(rng, n):
    """n states, pure and mixed, with noise of 1e-14 on every entry."""
    states = [random_density(rng, pure=(i % 3 == 0)) for i in range(n)]
    noise = 1e-14 * (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    return np.array(states) + noise


class TestAsBloch:
    """The batched boundary converter against the per-matrix route."""

    def test_matrix_stack_equals_the_per_matrix_route_bit_for_bit(self):
        rng = np.random.default_rng(41)
        stack = _stack(rng, 300).reshape(3, 100, 2, 2)
        got = as_bloch(stack)
        assert got.shape == (3, 100, 3)
        per_matrix = np.array([to_bloch(check_density_matrix(r)) for r in stack.reshape(-1, 2, 2)])
        # oracle: the trace formula x_k = Re tr(rho sigma_k), matrix by matrix
        traces = np.array([[np.trace(r @ s).real for s in PAULIS]
                           for r in stack.reshape(-1, 2, 2)])
        np.testing.assert_array_equal(got.reshape(-1, 3), per_matrix)
        np.testing.assert_array_equal(got.reshape(-1, 3), traces)

    def test_bloch_vectors_pass_through(self):
        x = np.array([[0.0, 0.6, 0.8], [0.1, -0.2, 0.3]])
        np.testing.assert_array_equal(as_bloch(x), x)
        np.testing.assert_array_equal(as_bloch([0, 0, 1]), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 0.5], [0.0, 0.5]]),  # not hermitian
        np.diag([0.7, 0.7]),  # trace 1.4
        np.diag([1.5, -0.5]),  # eigenvalue -0.5
        np.diag([1.0 + 2e-12, -2e-12]),  # eigenvalue just below -1e-12
        np.full((2, 2), np.nan),
    ], ids=["non-hermitian", "trace", "negative", "barely-negative", "nan"])
    def test_stack_is_rejected_with_the_per_matrix_message(self, bad):
        with pytest.raises(ValueError) as single:
            check_density_matrix(bad)
        stack = np.array([0.5 * IDENTITY2, from_bloch([0.0, 0.0, 1.0]), bad])
        with pytest.raises(ValueError) as batched:
            as_bloch(stack)
        assert str(batched.value) == str(single.value)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="outside the unit ball"):
            as_bloch([[0.0, 0.0, 1.0], [0.0, 0.8, 0.8]])
        with pytest.raises(ValueError, match="outside the unit ball"):
            as_bloch([0.0, math.nan, 0.0])
        # the ball of a density matrix: eigenvalue -5e-12, below -1e-12
        with pytest.raises(ValueError, match="outside the unit ball"):
            as_bloch([0.0, 0.0, 1.0 + 1e-11])

    @pytest.mark.parametrize("shape", [(4,), (2,), (3, 2), (2, 2, 4), ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            as_bloch(np.zeros(shape))
