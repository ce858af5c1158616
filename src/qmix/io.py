"""File output helpers shared by the command-line tools.

Every artifact embeds the resolved run configuration and its hash so any
recipe can be replayed byte for byte; writes go through a temp file and
rename so readers never observe partial output.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

FLOAT_FMT = "%.17g"  # 17 significant digits round-trips float64 exactly


def qmix_threads() -> int:
    """Worker-thread cap from QMIX_THREADS (default: cpu count)."""
    raw = os.environ.get("QMIX_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return max(1, os.cpu_count() or 1)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _umask() -> int:
    """The process umask; os.umask can only read it by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a renamed temp file.

    ``mkstemp`` creates the temp file with mode 0600 whatever the umask; the
    result gets the mode a plain ``open`` would give, 0666 minus the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qmix-tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            os.fchmod(handle.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def header_comments(config: dict) -> list[str]:
    return [
        f"config_hash: {config_hash(config)}",
        f"config: {canonical_json(config)}",
    ]


def write_cloud_csv(path: str, points: np.ndarray, config: dict) -> None:
    """Point cloud as x,y,z rows at 17 significant digits."""
    lines = [f"# {c}" for c in header_comments(config)]
    lines.append("# columns: x,y,z")
    fmt = ",".join([FLOAT_FMT] * 3)
    lines.extend(fmt % (p[0], p[1], p[2]) for p in points)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_cloud_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"no points found in {path}")
    return np.asarray(rows)


def write_jsonl(path: str, records, config: dict) -> None:
    """JSONL event log; the first record carries the run metadata."""
    lines = [canonical_json({"config": config, "config_hash": config_hash(config)})]
    lines.extend(canonical_json(rec) for rec in records)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict, config: dict) -> None:
    body = dict(payload)
    body["config"] = config
    body["config_hash"] = config_hash(config)
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")
