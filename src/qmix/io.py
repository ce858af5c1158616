"""File input and output helpers shared by the command-line tools.

Every artifact embeds the resolved run configuration and its hash so any
recipe can be replayed byte for byte; writes go through a temp file and
rename so readers never observe partial output.  Every CSV (clouds,
trajectories, densities) goes through one writer, and CSVs and jump logs
are written from whole columns, a block of rows per format pass; clouds
are read back with one bulk parse.  Only this module knows the jump log's
event layout: it writes the log and reads its detector labels back.  JSON
reports are strict: a non-finite number is written as null.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import warnings

import numpy as np

FLOAT_FMT = "%.17g"  # 17 significant digits round-trips float64 exactly


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a renamed temp file.

    The temp file is created with mode 0666 under a random ``.qmix-tmp-``
    name beside ``path``, so the kernel applies the umask and the result
    gets the mode a plain ``open`` would give.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".qmix-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def header_comments(config: dict) -> list[str]:
    return [
        f"config_hash: {config_hash(config)}",
        f"config: {canonical_json(config)}",
    ]


# rows per format pass; its Python objects are a text write's largest
# transient.  With the README chain run in one process, ru_maxrss after
# pdp --log reads 46 MB at 5e4 points and 152 MB at 1e6 (51 and 157 MB at
# 65536 rows, which wrote no faster); the fractal and the ppm and net
# renders that follow (--size 512 at 5e4 points, 1024 at 1e6) leave it there.
_BLOCK_ROWS = 8192


def _encode_rows(head: str, row_fmt: str, *columns: np.ndarray) -> bytearray:
    """``head`` and then one ``row_fmt`` line per row of the columns, encoded.

    Each block of rows is one ``%`` call: the block's columns are
    interleaved into one flat list, and ``row_fmt`` repeated once per row
    formats all of it.  Blocks are encoded and appended to one buffer, so
    the per-value Python objects never outnumber one block and the file is
    held in memory once.
    """
    data = bytearray(head.encode())
    n, k = len(columns[0]), len(columns)
    for start in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - start)
        flat = [None] * (k * rows)
        for j, column in enumerate(columns):
            flat[j::k] = column[start:start + rows].tolist()
        data += ((row_fmt * rows) % tuple(flat)).encode()
    return data


def write_csv(path: str, config: dict, columns, *data: np.ndarray, notes=()) -> None:
    """CSV of the ``data`` columns at 17 significant digits.

    The ``#`` header holds the config hash and config, then each note, then
    the ``columns`` names.
    """
    header = header_comments(config) + list(notes) + ["columns: " + ",".join(columns)]
    row_fmt = ",".join([FLOAT_FMT] * len(data)) + "\n"
    atomic_write_bytes(path, _encode_rows("".join(f"# {c}\n" for c in header),
                                          row_fmt, *data))


def write_cloud_csv(path: str, points: np.ndarray, config: dict) -> None:
    """Point cloud as x,y,z rows at 17 significant digits."""
    write_csv(path, config, ("x", "y", "z"), *np.asarray(points, dtype=float).T)


def read_cloud_csv(path: str) -> np.ndarray:
    """The ``(n, 3)`` cloud of a CSV of x,y,z rows; ``#`` starts a comment.

    Ragged rows, rows without exactly three columns, unparsable or
    non-finite values and an empty cloud raise ``ValueError`` naming the
    file.
    """
    def parse(rows):
        return np.loadtxt(rows, dtype=float, delimiter=",", comments="#", ndmin=2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input, rejected below
        try:
            points = parse(path)
        except ValueError:
            # numpy reads a blank or indented-comment line as a one-column
            # row; parse again without such lines
            with open(path) as handle:
                try:
                    points = parse(ln for ln in handle if ln.strip()[:1] not in ("", "#"))
                except ValueError as exc:
                    raise ValueError(f"{path} is not a cloud of x,y,z rows: {exc}") from None
    if points.size == 0:
        raise ValueError(f"no points found in {path}")
    if points.shape[1] != 3:
        raise ValueError(f"{path} has {points.shape[1]} columns per row, expected 3 (x,y,z)")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"{path} has a non-finite coordinate in data row {bad[0] + 1}")
    return points


# one jump event; keys in sorted order and the time as repr, as canonical_json
# writes them
_EVENT_FMT = '{"detector":%d,"time":%r}\n'
# JSON's number grammar; an optional part is written "(?:...|)", which the
# regex engine matches about a third faster than "(?:...)?"
_NUMBER = r"-?(?:[1-9][0-9]*|0)(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|)"
# a run of event lines as _EVENT_FMT writes them; every line it matches is a
# JSON object with an integer detector in 1..4, whose label is the line's
# byte LABEL_OFFSET (after '{"detector":')
EVENT_LINES = re.compile(r'(?:\{"detector":[1-4],"time":%s\}\n)*' % _NUMBER)
LABEL_OFFSET = len('{"detector":')
LOG_BLOCK_LINES = 4096  # jump log lines read per block


def write_jsonl(path: str, times: np.ndarray, detectors: np.ndarray, config: dict) -> None:
    """JSONL jump log: a metadata record, then one event per jump.

    Events are ``{"detector", "time"}`` objects in the bytes
    ``canonical_json`` gives for finite values.  Event i is the jump that
    led to row i of the cloud CSV written from the same path (the config's
    ``out``), so the post-jump state is not repeated here.
    """
    meta = canonical_json({"config": config, "config_hash": config_hash(config)}) + "\n"
    atomic_write_bytes(path, _encode_rows(meta, _EVENT_FMT, detectors, times))


def read_jsonl_detectors(path: str) -> np.ndarray:
    """Detector labels of a JSONL jump log in event order, read a block of lines at a time.

    The first line (the metadata record) is a block of its own.  A block of
    event lines as ``write_jsonl`` writes them passes one anchored
    ``EVENT_LINES`` match, and its labels are the bytes ``LABEL_OFFSET``
    after each line start, gathered by one numpy index.  Any other block (a
    last line without its newline, or events in another layout such as
    older logs that also held x, y, z) is decoded with ``json.loads``, and
    its records with a detector key are events.  Undecodable lines, lines
    that are not JSON objects and labels that are not integers in 1..4
    raise ``ValueError`` naming the file.
    """
    parts, decoded, first_line = [np.empty(0, dtype=np.uint8)], [], 1
    with open(path) as handle:  # text mode reads a CRLF line as one ending in LF
        block = list(itertools.islice(handle, 1))  # the metadata record
        while block:
            text = "".join(block)
            if EVENT_LINES.fullmatch(text):
                # every line, the first too, starts after a newline byte
                data = np.frombuffer(("\n" + text).encode(), dtype=np.uint8)
                starts = np.flatnonzero(data[:-1] == ord("\n")) + 1
                parts.append(data[starts + LABEL_OFFSET] - ord("0"))
            else:
                try:
                    records = json.loads("[" + ",".join(block) + "]")
                except json.JSONDecodeError as exc:  # the block's line k is line k of the text
                    raise ValueError(f"jump log {path}, line {first_line + exc.lineno - 1}: "
                                     f"{exc.msg}") from None
                if not all(isinstance(rec, dict) for rec in records):
                    raise ValueError(f"jump log {path} holds a line that is not a JSON object")
                labels = [rec["detector"] for rec in records if "detector" in rec]
                decoded.extend(labels)
                parts.append(labels)
            first_line += len(block)
            block = list(itertools.islice(handle, LOG_BLOCK_LINES))
    if not {type(label) for label in decoded} <= {int}:
        raise ValueError(f"jump log {path} holds a detector that is not an integer")
    if decoded and not 1 <= min(decoded) <= max(decoded) <= 4:
        raise ValueError(f"jump log {path} holds a detector label outside 1..4")
    # every label is now an integer in 1..4
    return np.concatenate([np.asarray(part, dtype=np.uint8) for part in parts]).astype(int)


def write_json(path: str, payload: dict, config: dict) -> None:
    """Indented report with the config and its hash; nan and inf become null."""
    # floats round-trip through their repr; NaN and +-Infinity parse as None
    body = json.loads(json.dumps(payload), parse_constant=lambda constant: None)
    body["config"] = config
    body["config_hash"] = config_hash(config)
    atomic_write_bytes(path, (json.dumps(body, indent=2, sort_keys=True) + "\n").encode())
