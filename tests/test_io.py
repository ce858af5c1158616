"""Output file helpers."""

import os
import stat

import numpy as np
import pytest

from qmix.io import (atomic_write_bytes, canonical_json, config_hash, read_cloud_csv,
                     write_cloud_csv, write_jsonl)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["umask022", "umask077", "umask002"])
def test_atomic_write_respects_umask(tmp_path, umask, mode):
    path = tmp_path / "out.bin"
    previous = os.umask(umask)
    try:
        atomic_write_bytes(str(path), b"payload")
    finally:
        os.umask(previous)
    assert path.read_bytes() == b"payload"
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_cloud_csv_round_trips_every_bit(tmp_path):
    rng = np.random.default_rng(17)
    points = rng.normal(size=(400, 3)) * 10.0 ** rng.integers(-300, 300, size=(400, 3))
    points[:4] = [[0.0, -0.0, 1.0], [5e-324, 1.7976931348623157e308, -1.0],
                  [0.1, 0.2, 0.30000000000000004], [1e16, 123456789.0, -2.5e-8]]
    path = str(tmp_path / "cloud.csv")
    write_cloud_csv(path, points, {"n": 400})
    back = read_cloud_csv(path)
    assert back.dtype == np.float64 and back.shape == points.shape
    assert back.tobytes() == points.tobytes()


def test_jump_log_events_are_canonical_json(tmp_path):
    times = np.array([0.0, 1e16, 5e-324, 0.1, 3.0])
    detectors = np.array([1, 2, 3, 4, 1])
    states = np.array([[-0.0, 1.0, 0.0], [1e22, -1e-7, 0.30000000000000004],
                       [1.7976931348623157e308, 2.0 ** -1074, -1.5],
                       [1 / 3, -2 / 3, 123456789.125], [0.5, 0.25, -0.125]])
    path = str(tmp_path / "path.jsonl")
    write_jsonl(path, times, detectors, states, {"n": 5})
    lines = open(path).read().splitlines()
    assert lines[0] == canonical_json({"config": {"n": 5}, "config_hash": config_hash({"n": 5})})
    expected = [canonical_json({"time": t, "detector": d, "x": x, "y": y, "z": z})
                for t, d, (x, y, z) in zip(times.tolist(), detectors.tolist(), states.tolist())]
    assert lines[1:] == expected


def test_cloud_csv_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("# header\n1,0,0\n   # indented comment\n\n0,1,0\n \t\n0,0,1\n  \n")
    np.testing.assert_array_equal(read_cloud_csv(str(path)), np.eye(3))
