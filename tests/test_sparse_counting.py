"""Sorted-key counting against the per-grid-cell oracles.

``render`` and ``box_count`` count occupied cells from one sort of the
points' cell keys.  Here they must match, byte for byte and count for
count, the dense routes in ``dense_oracle``, and the face projection by
comparisons must match the ``argmax`` one: random clouds, points on
cube edges and vertices, at u = +-1 and on dyadic cell edges, tight
clusters that only fine levels split, forced detector ties and clouds no
pixel of the view sees.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import argmax_face_coords, dense_render, unique_box_counts
from qmix.boxdim import MAX_LEVELS, _face_coords, box_count
from qmix.render import PROJECTIONS, RenderSpec, render

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _signed_permutations(v):
    """Every sign flip and axis permutation of ``v``."""
    out = set()
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for signs in np.ndindex(2, 2, 2):
            out.add(tuple((-1.0) ** s * v[p] for s, p in zip(signs, perm)))
    return sorted(out)


# cube edge midpoints, cube vertices and face centers, on the sphere
SPECIAL = np.array([_unit(p) for v in ((1, 1, 0), (1, 1, 1), (1, 0, 0))
                    for p in _signed_permutations(np.array(v, dtype=float))])


def _on_faces(rng, uv):
    """Points (+-1, u, v) with the +-1 on a random axis."""
    axis = rng.integers(0, 3, len(uv))
    rows = np.arange(len(uv))
    points = np.empty((len(uv), 3))
    points[rows, axis] = rng.choice([-1.0, 1.0], len(uv))
    points[rows, (axis + 1) % 3] = uv[:, 0]
    points[rows, (axis + 2) % 3] = uv[:, 1]
    return points


@st.composite
def clouds(draw):
    """Points on the unit sphere; some exactly on edges of the cell grids."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [_unit(rng.normal(size=(draw(st.integers(0, 300)), 3)))]
    if draw(st.booleans()):
        parts.append(SPECIAL[rng.integers(0, len(SPECIAL), draw(st.integers(1, 40)))])
    if draw(st.booleans()):
        # u, v on the cell edges of a level 0..10, u = +-1 included: exact
        # before the projection to the sphere, within an ulp after it
        k = draw(st.integers(0, 10))
        uv = rng.integers(-(1 << k), (1 << k) + 1, size=(draw(st.integers(1, 60)), 2))
        parts.append(_unit(_on_faces(rng, uv / (1 << k))))
    if draw(st.booleans()):
        # u, v = j 2^-20 with |j| <= 16 are exact face coordinates of points
        # within 2.4e-10 of the sphere, on the cell edges of levels 17..21
        uv = rng.integers(-16, 17, size=(draw(st.integers(1, 60)), 2))
        parts.append(_on_faces(rng, uv * 2.0 ** -20))
    if draw(st.booleans()):
        # a cluster that only levels near 10 ** scale cells split
        scale = draw(st.integers(1, 8))
        center = _unit(rng.normal(size=3))
        parts.append(_unit(center + 10.0 ** -scale * rng.normal(size=(draw(st.integers(1, 200)), 3))))
    points = np.concatenate(parts)
    if len(points) == 0:
        points = SPECIAL[:1]
    return points[rng.permutation(len(points))]


@st.composite
def labelled_clouds(draw):
    """A cloud and its labels 1..4.  Half the time every point comes twice,
    once under each label of a pair, so many pixels' top detectors tie."""
    points = draw(clouds())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pairs = rng.integers(1, 5, size=(len(points), 2))
        return np.repeat(points, 2, axis=0), pairs.reshape(-1)
    return points, rng.integers(1, 5, len(points))


@st.composite
def specs(draw, mode):
    projection = draw(st.sampled_from(PROJECTIONS))
    size = draw(st.sampled_from([64, 100, 128, 256, 800]))
    zoom = {}
    if projection != "net" and draw(st.booleans()):
        center = draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(
            lambda c: np.linalg.norm(c) > 0.1))
        zoom = dict(zoom_center=tuple(center),
                    zoom_radius=draw(st.floats(0.01, math.pi / 2)))
    return RenderSpec(projection=projection, size=size, mode=mode, **zoom)


@PROPERTY_SETTINGS
@given(points=clouds(), spec=specs("pgm"))
def test_pgm_render_matches_the_dense_oracle(points, spec):
    comments = ("config_hash: test",)
    assert render(points, spec, comments=comments) == dense_render(points, spec,
                                                                    comments=comments)


@PROPERTY_SETTINGS
@given(cloud=labelled_clouds(), spec=specs("ppm"))
def test_ppm_render_matches_the_dense_oracle(cloud, spec):
    points, detectors = cloud
    assert (render(points, spec, detectors=detectors)
            == dense_render(points, spec, detectors=detectors))


@PROPERTY_SETTINGS
@given(points=clouds())
def test_face_coords_match_the_argmax_projection(points):
    # cube edges and vertices tie two or three axes: the first one wins
    for got, expected in zip(_face_coords(points), argmax_face_coords(points)):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


@PROPERTY_SETTINGS
@given(points=clouds(), levels=st.integers(4, MAX_LEVELS))
def test_box_counts_match_one_unique_per_level(points, levels):
    np.testing.assert_array_equal(box_count(points, levels).counts,
                                  unique_box_counts(points, levels))


def test_box_counts_split_cells_at_the_finest_level():
    # exact face coordinates u = 0, 2^-27, 2^-26 and -2^-26: level 27 (the
    # finest at MAX_LEVELS) splits them into three cells, level 26 into two
    u = np.array([0.0, 2.0 ** -27, 2.0 ** -26, -2.0 ** -26])
    points = np.column_stack([np.ones(len(u)), u, np.zeros(len(u))])
    counts = box_count(points, MAX_LEVELS).counts
    np.testing.assert_array_equal(counts, unique_box_counts(points, MAX_LEVELS))
    assert counts[-2:].tolist() == [2.0, 3.0]


@pytest.mark.parametrize("mode", ["pgm", "ppm"])
@pytest.mark.parametrize("view", [
    dict(projection="+z"), dict(projection="-x"),
    dict(zoom_center=(0.0, 0.0, 1.0), zoom_radius=0.3)])
def test_a_cloud_the_view_cannot_see_renders_black(mode, view):
    points = _unit([[0.1, 0.2, -1.0], [0.3, -0.1, -0.9], [1.0, 0.0, -0.1]])
    points[:, 0] = np.abs(points[:, 0])  # hidden from -x as well as from +z
    spec = RenderSpec(size=100, mode=mode, **view)
    detectors = np.array([1, 2, 3])
    data = render(points, spec, detectors=detectors)
    assert data == dense_render(points, spec, detectors=detectors)
    assert not any(data[-100 * 100 * (3 if mode == "ppm" else 1):])
