"""Detector-colored PPM rendering, and render memory at the size cap."""

import os
import subprocess
import sys

import numpy as np
import pytest

import qmix
from qmix.cli import main
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


def _render_peak_rss(tmp_path, size, *args):
    """Peak RSS in bytes of ``qmix render --size size`` run as a fresh
    process on the small cloud in ``tmp_path``, and its output size."""
    out = tmp_path / f"out-{size}.pnm"
    src = os.path.dirname(os.path.dirname(qmix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmix.cli", "render", "--cloud", "cloud.csv",
         "--size", str(size), "--out", str(out), *args], cwd=tmp_path, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss * 1024, out.stat().st_size


@pytest.mark.parametrize("mode", ["pgm", "ppm"])
def test_render_at_the_size_cap_holds_little_beyond_its_output(tmp_path, mode):
    # rendering needs memory per point beyond the image; any per-pixel int64
    # count table (8 bytes a pixel, 32 for ppm's four detectors) breaks the
    # bound, whose output is 1 (pgm) or 3 (ppm) bytes a pixel
    assert main(["pdp", "--alpha", "0.75", "--n-points", "2000", "--seed", "1",
                 "--out", str(tmp_path / "cloud.csv"),
                 "--log", str(tmp_path / "path.jsonl")]) == 0
    args = ["--mode", mode, "--log", "path.jsonl"] if mode == "ppm" else []
    baseline, _ = _render_peak_rss(tmp_path, 64, *args)
    peak, output = _render_peak_rss(tmp_path, 8192, *args)
    assert output >= 8192 * 8192 * (3 if mode == "ppm" else 1)
    assert peak - baseline <= 3 * output
