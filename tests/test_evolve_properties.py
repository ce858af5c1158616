"""Property tests for the Bloch RK4 integrator on random Lindblad models."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qmix.lindblad import LindbladModel, evolve, generator_apply
from qmix.states import from_bloch, to_bloch

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)

_entry = st.floats(-1.0, 1.0)
_operators = st.lists(_entry, min_size=8, max_size=8).map(
    lambda v: (np.array(v[:4]) + 1j * np.array(v[4:])).reshape(2, 2))


@st.composite
def models(draw):
    """Hermitian H plus one to three jump operators at rates in [0, 2]."""
    a = draw(_operators)
    terms = [(draw(_operators), draw(st.floats(0.0, 2.0)))
             for _ in range(draw(st.integers(1, 3)))]
    return LindbladModel(0.5 * (a + a.conj().T), terms)


@st.composite
def blochs(draw, radii):
    """Bloch vector with a random direction and its length drawn from ``radii``."""
    v = np.array(draw(st.lists(_entry, min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        return np.zeros(3)
    return v / norm * draw(radii)


def rk4_reference(model, rho, dt, n_steps):
    """Classical RK4 on the 2x2 density matrix, one generator call per stage."""
    out = [rho]
    for _ in range(n_steps):
        k1 = generator_apply(model, rho)
        k2 = generator_apply(model, rho + 0.5 * dt * k1)
        k3 = generator_apply(model, rho + 0.5 * dt * k2)
        k4 = generator_apply(model, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(rho)
    return out


@PROPERTY_SETTINGS
@given(model=models(), x0=blochs(st.floats(0.0, 0.9)))
def test_bloch_rk4_matches_density_matrix_rk4(model, x0):
    traj = evolve(model, from_bloch(x0), 0.2, dt=0.01)
    reference = rk4_reference(model, from_bloch(x0), 0.01, 20)
    expected = np.array([to_bloch(rho) for rho in reference])
    np.testing.assert_allclose(traj.blochs, expected, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(model=models(), x0=blochs(st.just(1.0)))
def test_evolve_keeps_states_physical(model, x0):
    traj = evolve(model, from_bloch(x0), 0.5)
    assert np.max(np.linalg.norm(traj.blochs, axis=1)) <= 1.0 + 1e-12
    states = traj.states
    traces = np.trace(states, axis1=1, axis2=2)
    np.testing.assert_allclose(traces, 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(states, np.conj(np.swapaxes(states, 1, 2)))
