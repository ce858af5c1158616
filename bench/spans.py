"""In-memory span recorder for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the qmix modules listed
in ``MODULES`` and rebinds the wrapper at every module attribute that held
the original, including names re-bound by ``from ... import`` (for
example ``qmix.exponent.evolve`` or ``qmix.cli.read_cloud_csv``).  Each call
records a span (id, parent id, name, start, end); a span's parent is the
innermost open span of the same thread.  ``uninstall`` restores the
originals, so untraced passes in the same process run unwrapped code.

A span's self time is its duration minus the durations of its direct
children; children on one thread nest inside their parent, so that sum is
exactly the time the children cover.  Spans opened on worker threads (the
ensemble's chunk workers) start at the root of their thread.

Deterministic counts are taken from the arguments and results of a few
functions (``_COUNTERS``) at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("states", "lindblad", "exponent", "fitting", "pdp", "boxdim",
           "circle", "render", "io", "cli")

_IO_WRITES = ("io.write_cloud_csv", "io.write_jsonl", "io.write_json",
              "io.atomic_write_text", "io.atomic_write_bytes")


def pnm_size(data: bytes) -> tuple[int, int]:
    """(width, height) from the header of a binary PGM/PPM image."""
    for line in data.split(b"\n", 64)[1:]:
        if not line.startswith(b"#"):
            width, height = line.split()
            return int(width), int(height)
    raise ValueError("no size line in the image header")


# function -> counts to add from (bound arguments, result)
_COUNTERS = {
    "lindblad.evolve": lambda a, r: {"lindblad.rk4_steps": len(r.times) - 1},
    "exponent.lambda_q_numeric": lambda a, r: {"exponent.probes": len(a.arguments["probes"])},
    "fitting.decay_slope": lambda a, r: {"fitting.nominal_fits": int(r[2] is None)},
    "pdp.sample_path": lambda a, r: {"pdp.jumps": len(r.records)},
    "pdp.ensemble_bloch_mean": lambda a, r: {"pdp.ensemble_paths": a.arguments["n_paths"]},
    "io.atomic_write_bytes": lambda a, r: {"io.bytes_written": len(a.arguments["data"])},
    "io.read_cloud_csv": lambda a, r: {"io.bytes_read": os.path.getsize(a.arguments["path"])},
    "boxdim.box_count": lambda a, r: {
        "boxdim.points": r.n_points,
        "boxdim.levels": len(r.counts),
        "boxdim.fit_levels": 0 if r.fit_levels is None
        else r.fit_levels[1] - r.fit_levels[0] + 1},
    "render.render": lambda a, r: {"render.pixels": math.prod(pnm_size(r))},
    "circle.pf_apply": lambda a, r: {
        "circle.pieces": len(a.arguments["f"].coefs) if a.arguments["f"].has_pieces else 0},
}


class Tracer:
    """Records spans and counts around the qmix public functions."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counts_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; the benchmark also opens these around CLI calls."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                found = counter(signature.bind(*args, **kwargs), result)
                with self._counts_lock:
                    self.counts.update(found)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"qmix.{short}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "qmix" or name.startswith("qmix.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-function and per-module calls, self and total time, plus counts."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        names = {sid: name for sid, _, name, _, _ in self.spans}
        out: dict[str, float] = defaultdict(float)
        write_s = 0.0
        for sid, parent, name, start, end in self.spans:
            duration = end - start
            own = duration - child_time[sid]
            module = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name}.total_s"] += duration
            out[f"{module}.calls"] += 1
            out[f"{module}.self_s"] += own
            if name in _IO_WRITES and not names.get(parent, "").startswith("io."):
                write_s += duration
        out.update(self.counts)

        def rate(count: str, seconds: float, scale: float = 1.0) -> float:
            return out[count] / scale / seconds if seconds > 0 else 0.0

        out["lindblad.rk4_steps_per_s"] = rate(
            "lindblad.rk4_steps", out["lindblad.evolve.total_s"])
        out["pdp.jumps_per_s"] = rate("pdp.jumps", out["pdp.sample_path.total_s"])
        out["io.write_mb_per_s"] = rate("io.bytes_written", write_s, 1e6)
        out["io.read_mb_per_s"] = rate("io.bytes_read", out["io.read_cloud_csv.total_s"], 1e6)
        fits = out["fitting.decay_slope.calls"]
        out["fitting.nominal_window_ratio"] = out["fitting.nominal_fits"] / fits if fits else 0.0
        levels = out["boxdim.levels"]
        out["boxdim.fit_levels_ratio"] = out["boxdim.fit_levels"] / levels if levels else 0.0
        for command in ("pdp", "fractal", "render", "evolve", "exponent"):
            out[f"cli.{command}.wall_s"] = out[f"cli.{command}.total_s"]
        return dict(out)

    def deterministic_counts(self) -> dict[str, float]:
        """Call counts and recorded counts; identical for identical inputs."""
        metrics = self.layer_metrics()
        keys = [k for k in metrics if k.endswith(".calls")] + list(self.counts)
        return {k: metrics[k] for k in sorted(keys)}
