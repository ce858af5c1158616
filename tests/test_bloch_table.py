"""The 4x4 table of a qubit map on (x, tr rho), and the two objects it ties
together: the master equation's generator and the four detector actions of
the jump process."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmix.exponent import lambda_q_analytic
from qmix.lindblad import (
    Fluorescence,
    SigmaXConjugation,
    Tetrahedron,
    Zeno,
    bloch_generator,
    build_model,
    generator_apply,
)
from qmix.pdp import jump_map, jump_probs
from qmix.states import (IDENTITY2, PAULIS, TETRA_DIRECTIONS, bloch_table, from_bloch,
                         to_bloch)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)

_entry = st.floats(-1.0, 1.0)
_operators = st.lists(_entry, min_size=8, max_size=8).map(
    lambda v: (np.array(v[:4]) + 1j * np.array(v[4:])).reshape(2, 2))
_presets = st.one_of(
    st.builds(Tetrahedron, st.floats(0.0, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 4.0)),
    st.builds(Zeno, st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
    st.builds(Fluorescence, st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
    st.just(SigmaXConjugation()),
)


def commutator(h):
    h = 0.5 * (h + h.conj().T)
    return lambda rho: -1j * (h @ rho - rho @ h)


def kraus_action(a):
    return lambda rho: a @ rho @ a.conj().T


def master_equation(preset):
    model = build_model(preset)
    return lambda rho: generator_apply(model, rho)


_maps = st.one_of(_operators.map(commutator), _operators.map(kraus_action),
                  _presets.map(master_equation))


@st.composite
def blochs(draw):
    v = np.array(draw(st.lists(_entry, min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    return v / norm * draw(st.floats(0.0, 1.0)) if norm > 1e-3 else np.zeros(3)


@PROPERTY_SETTINGS
@given(f=_maps, x=blochs())
def test_the_table_applies_the_map(f, x):
    table = bloch_table(f)
    image = f(from_bloch(x))
    expected = np.append(to_bloch(image), np.trace(image).real)
    scale = max(1.0, np.abs(table).max())
    np.testing.assert_allclose(table @ np.append(x, 1.0), expected, rtol=0.0,
                               atol=1e-14 * scale)


@pytest.mark.parametrize("preset", [
    Tetrahedron(kappa=2.0, alpha=0.3, omega=0.0), Tetrahedron(kappa=1.0, alpha=0.8, omega=1.0),
    Zeno(kappa=3.9, omega=1.0), Fluorescence(rabi=1.5, gamma=1.0),
    Fluorescence(rabi=1e160, gamma=1.0), SigmaXConjugation()])
def test_bloch_generator_is_the_model_table_bit_for_bit(preset):
    # one batched call on the basis computes what one call per basis element does
    model = build_model(preset)
    m, b = bloch_generator(model)
    assert b.tobytes() == to_bloch(generator_apply(model, 0.5 * IDENTITY2)).tobytes()
    for k, pauli in enumerate(PAULIS):
        assert m[:, k].tobytes() == to_bloch(generator_apply(model, 0.5 * pauli)).tobytes()
    assert m.base is b.base is model._generator and not model._generator.flags.writeable


def detector_tables(alpha):
    """T_i = table(rho -> A_i rho A_i^+) / (1 + alpha^2), A_i = (I + alpha n_i . sigma)/2."""
    return np.array([bloch_table(kraus_action(a)) for a in from_bloch(alpha * TETRA_DIRECTIONS)]
                    ) / (1.0 + alpha * alpha)


@pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 11))
def test_the_detector_tables_sum_to_a_uniform_contraction(alpha):
    c = (1.0 - alpha * alpha / 3.0) / (1.0 + alpha * alpha)
    np.testing.assert_allclose(detector_tables(alpha).sum(axis=0), np.diag([c, c, c, 1.0]),
                               rtol=0.0, atol=1e-15)
    kappa = 1.7
    assert kappa * (1.0 + alpha * alpha) * (1.0 - c) == pytest.approx(
        lambda_q_analytic(Tetrahedron(kappa=kappa, alpha=alpha)), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("kappa, alpha, omega", [
    (1.0, 1.0, 0.0), (2.0, 0.3, 0.0), (1.0, 0.8, 1.0), (0.5, 0.5, 3.0), (4.0, 0.1, 0.7)])
def test_the_tetrahedron_generator_is_its_jumps_minus_their_rate(kappa, alpha, omega):
    # L = -i[H, .] + kappa sum_i A_i . A_i - kappa (1 + alpha^2) . , as sum_i A_i^2
    # = (1 + alpha^2) I
    model = build_model(Tetrahedron(kappa=kappa, alpha=alpha, omega=omega))
    jumps = (1.0 + alpha * alpha) * detector_tables(alpha).sum(axis=0)
    expected = (kappa * jumps - kappa * (1.0 + alpha * alpha) * np.eye(4)
                + bloch_table(commutator(model.hamiltonian)))
    np.testing.assert_allclose(model._generator, expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
def test_jump_probs_and_jump_map_are_the_detector_tables(alpha):
    tables = detector_tables(alpha)
    rng = np.random.default_rng(41)
    for _ in range(50):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        images = tables @ np.append(r, 1.0)  # (p_i f_i(r), p_i) per detector
        np.testing.assert_allclose(jump_probs(r, alpha), images[:, 3], rtol=0.0, atol=1e-15)
        for i, (*moved, p) in enumerate(images):
            if p > 1e-9:
                np.testing.assert_allclose(jump_map(r, i + 1, alpha), np.array(moved) / p,
                                           rtol=1e-12, atol=1e-15)
