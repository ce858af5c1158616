"""Property tests for the detector maps and the jump sampler."""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from qmix.lindblad import TETRA_DIRECTIONS
from qmix.pdp import (_jump_kernel, _Workspace, jump_map, jump_probs, make_rng, sample_path,
                      total_rate)

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
@example(r=-TETRA_DIRECTIONS[0], alpha=1.0)
@example(r=-TETRA_DIRECTIONS[1], alpha=1.0)
@example(r=-TETRA_DIRECTIONS[2], alpha=1.0)
@example(r=-TETRA_DIRECTIONS[3], alpha=1.0)
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


@PROPERTY_SETTINGS
@given(r0=unit_vectors(), alpha=_alphas, omega=st.floats(-20.0, 20.0).filter(bool),
       kappa=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 32 - 1),
       n_jumps=st.integers(1, 40))
def test_each_precessing_step_is_the_rotated_kernel_draw(r0, alpha, omega, kappa, seed,
                                                         n_jumps):
    """Off the frozen case, each step rotates the previous state about z by
    omega times its wait, then takes the batch kernel's draw, bit for bit."""
    path = sample_path(omega=omega, kappa=kappa, alpha=alpha, r0=r0, n_jumps=n_jumps, seed=seed)
    rng = make_rng(seed)
    waits = rng.standard_exponential(n_jumps) / total_rate(kappa, alpha)
    us = rng.random(n_jumps)
    x, y, z = path.r0
    for angle, u, detector, state in zip((omega * waits).tolist(), us, path.detectors,
                                         path.states):
        c, s = math.cos(angle), math.sin(angle)
        x, y = c * x - s * y, s * x + c * y
        _, pick, out = _jump_kernel(np.array([[x, y, z]]), alpha, u=np.array([u]))
        assert pick[0] + 1 == detector
        np.testing.assert_array_equal(out[0], state)
        x, y, z = state.tolist()


def first_running_sum_above(weights, threshold):
    """0-based index of the first running weight sum above the threshold,
    else 3 (detector 4), summed left to right in floats."""
    acc = 0.0
    for k, weight in enumerate(weights[:3]):
        acc += weight
        if threshold < acc:
            return k
    return 3


@st.composite
def pick_batches(draw):
    """Rows of unit states (vertices and their antipodes among them, where a
    weight is zero at alpha = 1) with uniforms, some of which put the
    threshold exactly on a running sum."""
    alpha = draw(st.one_of(st.just(1.0), st.just(0.0), _alphas))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = rng.normal(size=(64, 3))
    r /= np.linalg.norm(r, axis=1)[:, None]
    r[:8] = np.concatenate([TETRA_DIRECTIONS, -TETRA_DIRECTIONS])
    scale = 4.0 * (1.0 + alpha * alpha)
    running = np.cumsum(_jump_kernel(r, alpha)[0], axis=1)
    u = rng.random(64)
    on_sum = rng.random(64) < 0.5
    u[on_sum] = np.minimum(running[np.arange(64), rng.integers(0, 3, 64)] / scale,
                           np.nextafter(1.0, 0.0))[on_sum]
    return r, alpha, u


@PROPERTY_SETTINGS
@given(batch=pick_batches(), matmul=st.booleans())
def test_kernel_pick_is_the_first_running_sum_above_the_threshold(batch, matmul):
    r, alpha, u = batch
    dots = r @ TETRA_DIRECTIONS.T if matmul else None
    with np.errstate(divide="ignore", invalid="ignore"):  # a 0 / 0 at an antipode
        w, pick, _ = _jump_kernel(r, alpha, u=u, dots=dots)
    thresholds = u * 4.0 * (1.0 + alpha * alpha)
    expected = [first_running_sum_above(row, t) for row, t in zip(w.tolist(), thresholds.tolist())]
    assert pick.tolist() == expected


@st.composite
def shrinking_rounds(draw):
    """Batches of shrinking size, as the ensemble's rounds are, at one alpha;
    vertices and their antipodes (a zero weight at alpha = 1) among the rows."""
    alpha = draw(st.one_of(st.just(1.0), _alphas))
    sizes = sorted(draw(st.lists(st.integers(1, 40), min_size=2, max_size=6)), reverse=True)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rounds = []
    for m in sizes:
        r = rng.normal(size=(m, 3))
        r /= np.linalg.norm(r, axis=1)[:, None]
        special = np.concatenate([TETRA_DIRECTIONS, -TETRA_DIRECTIONS])[rng.permutation(8)]
        r[:min(m, 8)] = special[:m]
        rounds.append((r, rng.random(m)))
    return alpha, rounds


@PROPERTY_SETTINGS
@given(case=shrinking_rounds(), matmul=st.booleans())
def test_a_reused_workspace_gives_the_fresh_workspace_bits(case, matmul):
    """One workspace, dirty from the larger rounds before, steps each round
    exactly as a fresh one does, with the inputs placed as the ensemble
    places them."""
    alpha, rounds = case
    ws = _Workspace(len(rounds[0][0]))
    for r, u in rounds:
        m = len(r)
        fresh = _jump_kernel(r, alpha, u=u, dots=r @ TETRA_DIRECTIONS.T if matmul else None)
        fresh = [a.copy() for a in fresh]
        live, drawn = ws.src[:m], ws.u[:m]
        live[...], drawn[...] = r, u
        dots = np.matmul(live, TETRA_DIRECTIONS.T, out=ws.dots[:m]) if matmul else None
        reused = _jump_kernel(live, alpha, u=drawn, dots=dots, ws=ws)
        for a, b in zip(fresh, reused):
            assert a.tobytes() == b.tobytes()
