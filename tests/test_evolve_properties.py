"""Property tests for the Bloch propagator of evolve on random Lindblad models."""

import numpy as np
from hypothesis import given, settings, strategies as st

from expm_oracle import expm_longdouble
from qmix.lindblad import LindbladModel, evolve, generator_apply
from qmix.states import bloch_table, from_bloch

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


def exact_paths(model, x0, times):
    """Oracle: (x(t), 1) = exp(t A) (x0, 1), with A = [[M, b], [0, 0]] the
    table of the master equation (trace row dropped), exponentiated per time
    in extended precision."""
    a = bloch_table(lambda rho: generator_apply(model, rho))
    a[3] = 0.0
    prop = expm_longdouble(a, times).astype(float)
    return prop[:, :3, :3] @ x0 + prop[:, :3, 3]


@PROPERTY_SETTINGS
@given(model=models(), x0=blochs(st.floats(0.0, 0.9)))
def test_evolve_matches_the_extended_precision_exponential(model, x0):
    traj = evolve(model, from_bloch(x0), 0.2, dt=0.01)
    np.testing.assert_allclose(traj.blochs, exact_paths(model, x0, traj.times),
                               rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(model=models(), x0=blochs(st.just(1.0)))
def test_evolve_keeps_states_physical(model, x0):
    traj = evolve(model, from_bloch(x0), 0.5)
    assert np.max(np.linalg.norm(traj.blochs, axis=1)) <= 1.0 + 1e-12
    states = from_bloch(traj.blochs)
    traces = np.trace(states, axis1=1, axis2=2)
    np.testing.assert_allclose(traces, 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(states, np.conj(np.swapaxes(states, 1, 2)))
