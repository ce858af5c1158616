"""Output file helpers."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmix import io
from qmix.io import (EVENT_LINES, LABEL_OFFSET, atomic_write_bytes, canonical_json, config_hash,
                     header_comments, read_cloud_csv, write_cloud_csv, write_csv, write_jsonl)


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


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # reading the umask means setting it, which races with other threads
    def umask(mask):
        raise AssertionError("atomic_write_bytes changed the process umask")

    monkeypatch.setattr(os, "umask", umask)
    path = tmp_path / "out.bin"
    atomic_write_bytes(str(path), b"payload")
    assert path.read_bytes() == b"payload"
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
    times = np.array([0.0, 1e16, 5e-324, 0.1, 1.7976931348623157e308])
    detectors = np.array([1, 2, 3, 4, 1])
    path = str(tmp_path / "path.jsonl")
    write_jsonl(path, times, detectors, {"n": 5})
    lines = open(path).read().splitlines()
    assert lines[0] == canonical_json({"config": {"n": 5}, "config_hash": config_hash({"n": 5})})
    expected = [canonical_json({"time": t, "detector": d})
                for t, d in zip(times.tolist(), detectors.tolist())]
    assert lines[1:] == expected
    assert EVENT_LINES.fullmatch(lines[0] + "\n") is None
    events = "".join(line + "\n" for line in lines[1:])
    assert EVENT_LINES.fullmatch(events) is not None
    assert [line[LABEL_OFFSET] for line in lines[1:]] == ["1", "2", "3", "4", "1"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(label=st.one_of(st.sampled_from("12345"), st.text("0123456789-", min_size=1, max_size=2)),
       number=st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.integers(-10 ** 20, 10 ** 20).map(str),
                        st.text("0123456789+-.eE", min_size=1, max_size=6)))
def test_event_line_matches_exactly_the_json_events(label, number):
    """A line of the writer's layout matches iff it is a JSON object whose
    detector is an integer in 1..4; its byte at LABEL_OFFSET is that label."""
    line = '{"detector":%s,"time":%s}' % (label, number)
    try:
        detector = json.loads(line)["detector"]
    except ValueError:
        detector = None
    match = EVENT_LINES.fullmatch(line + "\n")
    assert (match is not None) == (type(detector) is int and 1 <= detector <= 4)
    if match:
        assert int(line[LABEL_OFFSET]) == detector


def test_cloud_csv_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("# header\n1,0,0\n   # indented comment\n\n0,1,0\n \t\n0,0,1\n  \n")
    np.testing.assert_array_equal(read_cloud_csv(str(path)), np.eye(3))


def test_rows_across_encoding_blocks_match_a_per_row_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_BLOCK_ROWS", 4)  # 11 rows: blocks of 4, 4 and 3
    rng = np.random.default_rng(5)
    times, x = rng.normal(size=(2, 11)) * 10.0 ** rng.integers(-20, 20, size=(2, 11))
    detectors = rng.integers(1, 5, size=11)
    config = {"n": 11}
    write_csv(str(tmp_path / "rows.csv"), config, ("t", "x"), times, x, notes=("a note",))
    header = header_comments(config) + ["a note", "columns: t,x"]
    expected = "".join(f"# {line}\n" for line in header)
    expected += "".join("%.17g,%.17g\n" % row for row in zip(times.tolist(), x.tolist()))
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode()

    write_jsonl(str(tmp_path / "path.jsonl"), times, detectors, config)
    expected = canonical_json({"config": config, "config_hash": config_hash(config)}) + "\n"
    expected += "".join('{"detector":%d,"time":%r}\n' % row for row in
                        zip(detectors.tolist(), times.tolist()))
    assert (tmp_path / "path.jsonl").read_bytes() == expected.encode()
