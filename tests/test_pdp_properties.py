"""Property tests for the detector maps and the jump sampler."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qmix.pdp import _jump_kernel, jump_map, jump_probs, make_rng, sample_path

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)

_alphas = st.floats(0.0, 1.0)
_detectors = st.integers(1, 4)


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm


@PROPERTY_SETTINGS
@given(r=unit_vectors(), detector=_detectors, alpha=_alphas)
def test_jump_map_stays_on_the_sphere(r, detector, alpha):
    try:
        out = jump_map(r, detector, alpha)
    except ValueError:  # only at alpha = 1 on the detector antipode
        assume(False)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-14


@PROPERTY_SETTINGS
@given(r=unit_vectors(), alpha=_alphas)
def test_jump_probs_are_a_distribution(r, alpha):
    p = jump_probs(r, alpha)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(r0=unit_vectors(), alpha=_alphas, seed=st.integers(0, 2 ** 32 - 1),
       n_jumps=st.integers(1, 40))
def test_each_frozen_step_is_the_jump_map(r0, alpha, seed, n_jumps):
    path = sample_path(omega=0.0, kappa=1.0, alpha=alpha, r0=r0, n_jumps=n_jumps, seed=seed)
    previous = np.array(path.r0)
    for rec in path.records:
        expected = jump_map(previous, rec.detector, alpha)
        np.testing.assert_array_equal(rec.state, expected)
        previous = np.array(rec.state)


@PROPERTY_SETTINGS
@given(r0=unit_vectors(), alpha=_alphas, seed=st.integers(0, 2 ** 32 - 1),
       n_jumps=st.integers(1, 40))
def test_each_frozen_step_is_the_kernel_draw(r0, alpha, seed, n_jumps):
    """The batch kernel's pick rule, fed the sampler's uniforms, picks the
    sampler's detectors and lands on its states bit for bit."""
    path = sample_path(omega=0.0, kappa=1.0, alpha=alpha, r0=r0, n_jumps=n_jumps, seed=seed)
    rng = make_rng(seed)
    rng.standard_exponential(n_jumps)  # the waits come first in the draw order
    us = rng.random(n_jumps)
    previous = np.array(path.r0)
    for u, detector, state in zip(us, path.detectors, path.states):
        _, pick, out = _jump_kernel(previous[None, :], alpha, u=np.array([u]))
        assert pick[0] + 1 == detector
        np.testing.assert_array_equal(out[0], state)
        previous = state
