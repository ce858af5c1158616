"""Output file helpers."""

import os
import stat

import pytest

from qmix.io import atomic_write_bytes


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
