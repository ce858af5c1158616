"""qmix benchmark: one workload, one closed-loop client, one JSON result.

    python3 bench/run.py --workload attractor --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's inputs come from ``--seed``.  Set-up is timed
``SETUP_REPEATS`` times: a fresh interpreter importing ``qmix.cli`` plus the
workload's input generation.  One warm-up pass follows; then passes run
back to back until ``--seconds`` have elapsed (at least two).  Every pass,
the warm-up included, must produce byte-identical outputs and pass every
check.

Pass times are reported relative to a reference loop.  The host this
benchmark was written on changes speed by up to 1.8x over minutes (shared
physical CPUs), which moves every pass of a 30-second run alike.  A fixed
pure-Python loop (``_reference_s``) is timed between passes, and each pass's
wall and CPU time is divided by the mean of the reference times taken just
before and just after it.  ``wall_ref`` and ``cpu_ref`` are the medians of
those ratios; raw seconds are printed in the summary line.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json`` (medians over passes; peak RSS of this process).  With
``--trace 1`` untraced and traced passes alternate and the result carries
the per-layer metrics (medians over traced passes), the tracing overhead,
and the check margins; traced passes must reproduce the untraced outputs
and repeat their deterministic counts exactly.

The last line of stdout is the result object; the lines before it record
the run environment.  Exit code 0 when every operation and check passed,
1 when one failed, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REFERENCE_LOOPS = 200_000  # about 0.02 s per timing on 2 vCPUs
REFERENCE_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("attractor", "decay", "pushforward"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qmix.cli"], env=env, check=True)
    return time.perf_counter() - start


def _reference_s() -> float:
    """Median wall time of a fixed pure-Python loop: the host's current speed."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(REFERENCE_LOOPS):
            acc += (i % 7) * 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qmix").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "QMIX_THREADS": os.environ["QMIX_THREADS"],
    }


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    ref_s: float  # reference-loop time around the pass
    result: object  # workloads.PassResult
    layers: Optional[dict] = None  # per-layer metrics of a traced pass
    counts: Optional[dict] = None  # deterministic counts of a traced pass


def _closed_loop(workload, inputs, seconds: float, trace: bool) -> tuple[list[Pass], int]:
    """Passes back to back; returns them and the number of failed operations.

    Pass 0 warms caches and lazy imports: it is checked but left out of the
    medians.  With ``trace`` every even pass after it is traced.
    """
    from spans import Tracer
    from workloads import run_pass

    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    passes: list[Pass] = []
    try:
        deadline = None
        ref_before = _reference_s()
        while deadline is None or time.perf_counter() < deadline or len(passes) < 3:
            tracer = Tracer() if trace and passes and len(passes) % 2 == 0 else None
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = run_pass(workload, inputs, workdir, tracer)
            except Exception:  # a failed operation ends the run and is reported
                print(f"bench: pass {len(passes)} failed", file=sys.stderr)
                traceback.print_exc()
                return passes, 1
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            ref_after = _reference_s()
            done = Pass(tracer is not None, wall, cpu, 0.5 * (ref_before + ref_after), result)
            ref_before = ref_after
            if tracer is not None:
                done.layers = tracer.layer_metrics()
                done.counts = tracer.deterministic_counts()
            passes.append(done)
            if deadline is None:
                deadline = time.perf_counter() + seconds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return passes, 0


def _median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qmix" / "__init__.py").is_file():
        print(f"bench: no qmix sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    nproc = len(os.sched_getaffinity(0))
    os.environ["QMIX_THREADS"] = str(nproc)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import_s = [_import_seconds() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_s = []
    for imported in import_s:
        start = time.perf_counter()
        inputs = workload.prepare(args.seed)
        setup_s.append(imported + time.perf_counter() - start)

    passes, failed_ops = _closed_loop(workload, inputs, args.seconds, bool(args.trace))
    checks = [c for p in passes for c in p.result.checks]
    failed_checks = [c for c in checks if not c.passed]
    # one seed gives identical outputs on every pass, traced or not, and
    # identical deterministic counts on every traced pass
    repeats = {
        "outputs_repeat": len({p.result.digest for p in passes}) <= 1,
        "counts_repeat": len({json.dumps(p.counts, sort_keys=True)
                              for p in passes if p.traced}) <= 1,
    }
    failed_repeats = [name for name, ok in repeats.items() if not ok]
    attempted = sum(p.result.ops for p in passes) + failed_ops + len(checks) + len(repeats)
    failed = failed_ops + len(failed_checks) + len(failed_repeats)
    err_margin = max((c.ratio for c in checks), default=None)

    plain = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace:
        layers = {k: _median(p.layers[k] for p in traced) for k in traced[0].layers} if traced else {}
        walls = (_median(p.wall_s for p in traced), _median(p.wall_s for p in plain))
        layers["trace.overhead_s"] = walls[0] - walls[1] if None not in walls else None
        layers["check.err_margin"] = err_margin
        layers["check.failed_ratio"] = failed / attempted
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_ref": _median(p.wall_s / p.ref_s for p in plain),
            "cpu_ref": _median(p.cpu_s / p.ref_s for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": _median(setup_s),
        }

    env = _environment(nproc)
    env.update(loadavg_1m_start=load_start, loadavg_1m_end=os.getloadavg()[0])
    print(json.dumps({"environment": env}))
    print(json.dumps({"summary": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "traced_passes": len(traced),
        "wall_s": _median(p.wall_s for p in plain),
        "cpu_s": _median(p.cpu_s for p in plain),
        "reference_s": _median(p.ref_s for p in plain),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "pass_reference_s": [round(p.ref_s, 5) for p in passes],
        "err_margin": err_margin,
        "worst_check": max(checks, key=lambda c: c.ratio).name if checks else None,
        "failed_ratio": failed / attempted,
        "failed": [c.name for c in failed_checks] + failed_repeats,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
