"""The benchmark's own tests.

One seed must give the same outputs, check margins and deterministic
counts on every pass, traced or not.  The workloads run here at reduced
sizes so the suite stays fast; ``bench/run.py`` runs them at full size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import Attractor, Decay, Pushforward, run_pass  # noqa: E402

SMALL = {
    "attractor": Attractor(n_points=20_000, image_size=128),
    "decay": Decay(n_probes=1, t_end=0.5),
    "pushforward": Pushforward(n_paths=200_000, n_pieces=100),
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Per workload: one untraced pass and two traced passes on seed 5."""
    runs = {}
    for name, workload in SMALL.items():
        inputs = workload.prepare(5)
        workdir = str(tmp_path_factory.mktemp(name))
        plain = run_pass(workload, inputs, workdir)
        tracers = [Tracer(), Tracer()]
        traced = [run_pass(workload, inputs, workdir, t) for t in tracers]
        runs[name] = (plain, traced, tracers)
    return runs


@pytest.mark.parametrize("name", sorted(SMALL))
def test_outputs_margins_and_counts_repeat(traced_runs, name):
    plain, traced, tracers = traced_runs[name]
    assert {r.digest for r in traced} == {plain.digest}
    margins = [max(c.ratio for c in r.checks) for r in [plain, *traced]]
    assert len(set(margins)) == 1
    first, second = (t.deterministic_counts() for t in tracers)
    assert first == second and sum(first.values()) > 0


def test_tracing_restores_the_original_functions():
    from qmix import cli, exponent, io, lindblad

    originals = (lindblad.evolve, exponent.evolve, cli.read_cloud_csv, io.read_cloud_csv)
    tracer = Tracer()
    tracer.install()
    try:
        assert exponent.evolve is lindblad.evolve is not originals[0]
        assert cli.read_cloud_csv is io.read_cloud_csv is not originals[2]
    finally:
        tracer.uninstall()
    assert (lindblad.evolve, exponent.evolve, cli.read_cloud_csv,
            io.read_cloud_csv) == originals


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [(1, 0, "a.f", 0.0, 10.0), (2, 1, "b.g", 2.0, 5.0),
                       (3, 2, "a.h", 3.0, 4.0), (4, 1, "b.g", 6.0, 7.0)]
    metrics = tracer.layer_metrics()
    assert metrics["a.f.self_s"] == 6.0
    assert metrics["b.g.self_s"] == 3.0 and metrics["b.g.calls"] == 2
    assert metrics["a.self_s"] == 7.0 and metrics["a.calls"] == 2


def test_every_layer_metric_is_measured_on_some_workload(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = {}
    for _, _, tracers in traced_runs.values():
        for key, value in tracers[0].layer_metrics().items():
            measured[key] = max(measured.get(key, 0.0), value)
    missing = [m["name"] for m in spec["per_layer"]
               if not m["name"].startswith(("trace.", "check."))
               and not measured.get(m["name"], 0.0) > 0]
    assert missing == []


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decay", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
