"""Property tests for circle densities, the r-adic transfer operator and the
entropy inequalities (Klein, Pinsker) on the circle and on qubits."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmix.circle import (
    _BREAK_TOL,
    TWO_PI,
    CircleDensity,
    _dedupe_breaks,
    fourier_check,
    l1_distance,
    pf_apply,
    relative_entropy as circle_relative_entropy,
)
from qmix.states import from_bloch, relative_entropy, trace_norm

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)

_radices = st.sampled_from([2, 3, 5])


@st.composite
def affine_densities(draw, max_pieces=200, min_value=0.0):
    """Unit-mass piecewise-affine density with 1 to ``max_pieces`` pieces.

    Hypothesis draws the piece count and a seed for the piece table (drawing
    hundreds of floats one by one would dominate the run time).  Piece widths
    vary by at most a factor of three, so no piece is steep enough for its
    c + s x form to lose digits; end values lie in [min_value, 2] before the
    mass is normalized, and with min_value = 0 some may be exactly zero.
    """
    n = draw(st.integers(1, max_pieces))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    widths = rng.uniform(0.5, 1.5, n)
    edges = np.concatenate([[0.0], np.cumsum(widths) * (TWO_PI / widths.sum())])
    edges[-1] = TWO_PI
    ends = rng.uniform(min_value, 2.0, (n, 2))
    if min_value == 0.0 and draw(st.booleans()):
        ends[rng.random((n, 2)) < 0.3] = 0.0
    u, v = edges[:-1], edges[1:]
    s = (ends[:, 1] - ends[:, 0]) / (v - u)
    c = ends[:, 0] - s * u
    mass = float(np.sum(0.5 * (ends[:, 0] + ends[:, 1]) * (v - u))) / TWO_PI
    assume(mass > 0.1)
    return CircleDensity.from_pieces(
        list(zip(u.tolist(), v.tolist(), (c / mass).tolist(), (s / mass).tolist())))


@PROPERTY_SETTINGS
@given(f=affine_densities(), r=_radices,
       xs=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=8))
def test_push_forward_is_the_preimage_average(f, r, xs):
    g = pf_apply(f, r)
    x = np.array(xs)
    # the image is discontinuous at its breaks, where the two sides may
    # legitimately pick different pieces
    assume(np.min(np.abs(np.subtract.outer(x, g.breaks))) > 1e-9)
    expected = sum(f.evaluate((x + TWO_PI * j) / r) for j in range(r)) / r
    np.testing.assert_allclose(g.evaluate(x), expected, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(f=affine_densities(), r=_radices)
def test_push_forward_keeps_unit_mass_and_sign(f, r):
    g = pf_apply(f, r)
    assert abs(g.mass() - 1.0) <= 1e-12
    c, s = g.coefs[:, 0], g.coefs[:, 1]
    assert min((c + s * g.breaks[:-1]).min(), (c + s * g.breaks[1:]).min()) >= -1e-12


@PROPERTY_SETTINGS
@given(f=affine_densities(), g=affine_densities())
def test_l1_distance_is_symmetric_and_matches_a_midpoint_rule(f, g):
    d = l1_distance(f, g)
    assert d == l1_distance(g, f)
    # midpoint rule on K cells inside each interval between breaks: exact on
    # affine |f - g| except in the cell holding a sign change, where it is
    # off by at most |slope| h^2 / 4
    k = 64
    edges = np.union1d(f.breaks, g.breaks)
    u, v = edges[:-1], edges[1:]
    h = (v - u) / k
    xs = u[:, None] + h[:, None] * (np.arange(k) + 0.5)
    diff = f.evaluate(xs) - g.evaluate(xs)
    reference = float(np.sum(np.abs(diff) * h[:, None])) / TWO_PI
    slope = np.abs(diff[:, -1] - diff[:, 0]) / ((k - 1) * h)
    tol = float(np.sum(slope * h * h)) / (4.0 * TWO_PI) + 1e-12
    assert abs(d - reference) <= tol


def dedupe_breaks_oracle(points):
    """Sorted breaks, each kept when more than the tolerance past the last
    kept one, walked one point at a time."""
    pts = np.sort(np.mod(points, TWO_PI))
    pts = pts[(pts > _BREAK_TOL) & (pts < TWO_PI - _BREAK_TOL)]
    keep = [0.0]
    for p in pts:
        if p - keep[-1] > _BREAK_TOL:
            keep.append(float(p))
    keep.append(TWO_PI)
    return np.array(keep)


@st.composite
def clustered_breaks(draw):
    """Break candidates around [0, 2pi], with 0 and 2pi among them, where
    some points start chains of sub-tolerance steps (two steps of a chain
    can add up past the tolerance) and some are repeated exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = np.concatenate([rng.uniform(-1.0, 8.0, draw(st.integers(0, 40))), [0.0, TWO_PI]])
    starts = rng.choice(base, draw(st.integers(0, 20)))
    steps = rng.uniform(0.0, 1.2 * _BREAK_TOL, (len(starts), 4)) * rng.integers(0, 2, (len(starts), 4))
    chains = starts[:, None] + np.cumsum(steps, axis=1) * rng.choice([-1.0, 1.0], (len(starts), 1))
    return np.concatenate([base, chains.ravel(), [0.0]])


@PROPERTY_SETTINGS
@given(points=clustered_breaks())
def test_dedupe_breaks_matches_the_sequential_rule(points):
    expected = dedupe_breaks_oracle(points)
    out = _dedupe_breaks(points)
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)


@PROPERTY_SETTINGS
@given(f=affine_densities(), r=_radices, k=st.integers(1, 3), n=st.integers(1, 3))
def test_push_forward_obeys_the_fourier_rule(f, r, k, n):
    # (P^n f)^(k) = f^(k r^n), each side an exact coefficient of a piece table
    lhs, rhs = fourier_check(f, r, k, n)
    assert abs(lhs - rhs) <= 1e-12


@PROPERTY_SETTINGS
@given(f=affine_densities(max_pieces=50), g=affine_densities(max_pieces=50, min_value=0.05))
def test_circle_relative_entropy_obeys_klein_and_pinsker(f, g):
    h = circle_relative_entropy(f, g)
    assert h >= 0.0
    assert h >= 0.5 * l1_distance(f, g) ** 2 - 1e-12


_entry = st.floats(-1.0, 1.0)


@st.composite
def qubit_states(draw):
    """Pure (radius 1) or mixed (radius in [0, 1)) state, random direction."""
    v = np.array(draw(st.lists(_entry, min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    radius = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_max=True)))
    return from_bloch(radius * v / norm)


@PROPERTY_SETTINGS
@given(rho=qubit_states(), sigma=qubit_states())
def test_qubit_relative_entropy_obeys_klein_and_pinsker(rho, sigma):
    h = relative_entropy(rho, sigma)
    assert h >= 0.0
    assert h >= 0.5 * trace_norm(rho - sigma) ** 2 - 1e-12


def test_negative_relative_entropy_is_a_domain_error():
    # sigma is no state (trace 4); it is rejected before any entropy is formed
    with pytest.raises(ValueError, match="unit trace"):
        relative_entropy(from_bloch([0.0, 0.0, 0.0]), 2.0 * np.eye(2))
    assert math.isinf(relative_entropy(from_bloch([0.0, 0.0, 1.0]),
                                       from_bloch([0.0, 0.0, -1.0])))
