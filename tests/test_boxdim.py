"""Box counting on the sphere: grids, scale law, dimension fits."""

import math

import numpy as np
import pytest

from qmix.boxdim import (
    BoxCountResult,
    box_count,
    default_levels,
    estimate_dimension,
    max_cell_diameter,
)
from qmix.lindblad import TETRA_DIRECTIONS
from qmix.pdp import chaos_game


def tilted_circle(n, axis_angle=0.5):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    return pts @ rot.T


class TestCounting:
    def test_single_point_occupies_one_cell_everywhere(self):
        result = box_count(np.array([[0.0, 0.0, 1.0]]), levels=6)
        np.testing.assert_array_equal(result.counts, np.ones(6))

    def test_four_vertices_occupy_four_cells(self):
        result = box_count(TETRA_DIRECTIONS, levels=8)
        np.testing.assert_array_equal(result.counts, np.full(8, 4.0))
        with pytest.raises(ValueError, match="more points"):
            estimate_dimension(result)

    def test_counts_never_decrease_with_depth(self):
        cloud = chaos_game(0.8, 50_000, seed=3)
        result = box_count(cloud, levels=9)
        assert np.all(np.diff(result.counts) >= 0)
        assert np.all(np.diff(result.eps) < 0)

    def test_subdivision_scale_law(self):
        cloud = chaos_game(0.8, 100_000, seed=4)
        result = box_count(cloud, levels=10)
        for k in range(1, 10):
            slack = 6 * 2 ** k
            assert result.counts[k] <= 4 * result.counts[k - 1] + slack

    def test_off_sphere_cloud_rejected(self):
        with pytest.raises(ValueError, match="off the unit sphere"):
            box_count(np.array([[0.0, 0.0, 1.1]]))

    def test_nan_cloud_rejected(self):
        with pytest.raises(ValueError, match="off the unit sphere"):
            box_count(np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]]))

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError, match="4 scale levels"):
            box_count(np.array([[0.0, 0.0, 1.0]]), levels=3)

    def test_max_cell_diameter_shrinks_by_half_asymptotically(self):
        assert max_cell_diameter(0) == pytest.approx(math.acos(-1.0 / 3.0))
        ratios = [max_cell_diameter(k) / max_cell_diameter(k + 1) for k in (6, 7, 8)]
        np.testing.assert_allclose(ratios, 2.0, atol=1e-3)

    def test_default_levels_tracks_cloud_size(self):
        assert default_levels(10 ** 6) == 7
        assert default_levels(10 ** 5) == 6
        assert default_levels(100) == 4
        assert default_levels(10 ** 12) == 12


class TestDimensionOracles:
    def test_great_circle_reads_as_one_dimensional(self):
        result = box_count(tilted_circle(100_000), levels=8)
        assert estimate_dimension(result) == pytest.approx(1.0, abs=0.1)

    def test_uniform_sphere_reads_as_two_dimensional(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(10 ** 6, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        result = box_count(pts, levels=8)
        # local slopes at fine, fully occupied levels pin the exponent
        local = (np.log(result.counts[6] / result.counts[5])
                 / np.log(result.eps[5] / result.eps[6]))
        assert local == pytest.approx(2.0, abs=0.05)
        assert 1.9 <= estimate_dimension(result) <= 2.3

    def test_rotation_robustness(self):
        cloud = chaos_game(0.75, 10 ** 6, seed=42)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        d0 = estimate_dimension(box_count(cloud))
        d1 = estimate_dimension(box_count(cloud @ q.T))
        assert abs(d0 - d1) <= 0.05

    def test_fit_metadata_reported(self):
        result = box_count(tilted_circle(20_000), levels=8)
        assert isinstance(result, BoxCountResult)
        lo, hi = result.fit_levels
        assert hi - lo >= 2
        assert result.residual >= 0.0
        assert 0.9 <= result.r_squared <= 1.0
