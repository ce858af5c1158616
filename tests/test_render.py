"""Detector-colored PPM rendering."""

import numpy as np
import pytest

from qmix.render import DETECTOR_COLORS, RenderSpec, _intensity, _pixel_coords, render


def reference_ppm_pixels(points, detectors, spec):
    """Pixel bytes from one hit count per (pixel, detector), the winner being
    the lowest detector among those with the most hits."""
    px, py, mask, width, height = _pixel_coords(points, spec)
    per = np.zeros((4, width * height), dtype=int)
    np.add.at(per, (detectors[mask] - 1, py * width + px), 1)
    winner = np.zeros(width * height, dtype=int)
    for d in (1, 2, 3):
        winner[per[d] > per[winner, np.arange(width * height)]] = d
    shade = _intensity(per.sum(axis=0)).astype(np.uint16)
    return (DETECTOR_COLORS[winner].astype(np.uint16) * shade[:, None] // 255).astype(np.uint8)


@pytest.mark.parametrize("projection", ["+z", "-x", "net"])
def test_ppm_pixels_take_the_lowest_detector_of_a_tie(projection):
    rng = np.random.default_rng(4)
    points = rng.normal(size=(400, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    points = np.repeat(points, 4, axis=0)  # a pixel per four labels: two tied pairs
    detectors = np.tile([3, 2, 2, 3, 4, 1, 1, 4], 200)
    detectors[::16] = rng.integers(1, 5, 100)  # some pixels hold no tie
    spec = RenderSpec(projection=projection, size=64, mode="ppm")
    data = render(points, spec, detectors=detectors)
    expected = reference_ppm_pixels(points, detectors, spec)
    assert data[-expected.size:] == expected.tobytes()


@pytest.mark.parametrize("label", [0, 5, -1])
def test_ppm_rejects_a_label_outside_one_to_four(label):
    points = np.eye(3)
    with pytest.raises(ValueError, match="1..4"):
        render(points, RenderSpec(size=64, mode="ppm"), detectors=np.array([1, label, 2]))


@pytest.mark.parametrize("labels", [[1, 2], [1, 2, 3, 4], [[1, 2, 3]]], ids=["short", "long", "2d"])
def test_ppm_needs_one_label_per_point(labels):
    with pytest.raises(ValueError, match="cloud length"):
        render(np.eye(3), RenderSpec(size=64, mode="ppm"), detectors=np.array(labels))
