"""Command-line interface: schemas, outputs, exit codes, determinism."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmix
from qmix import cli, io, pdp
from qmix.acceptance import cli_recipes
from qmix.cli import main
from qmix.io import canonical_json, read_cloud_csv


def run(args):
    return main([str(a) for a in args])


def read_csv_rows(path):
    rows = []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            rows.append([float(tok) for tok in line.strip().split(",")])
    return np.array(rows)


class TestEvolveCommand:
    def test_decay_column_matches_exponential(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["evolve", "--preset", "tetrahedron", "--kappa", 1, "--alpha", 1,
                    "--omega", 0, "--bloch0", "[0,0,1]", "--t-end", 1, "--out", out])
        assert code == 0
        rows = read_csv_rows(out)
        t_final, dist_final = rows[-1, 0], rows[-1, 4]
        assert t_final == pytest.approx(1.0)
        assert dist_final == pytest.approx(math.exp(-4.0 / 3.0), abs=1e-6)
        header = open(out).read().splitlines()[0]
        assert header.startswith("# config_hash: ")

    def test_distance_does_not_underflow(self, tmp_path):
        # by t = 280, x3 is about 7e-163, whose square underflows to 0
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--preset", "tetrahedron", "--kappa", 1, "--alpha", 1,
                    "--omega", 0, "--bloch0", "[0,0,1]", "--t-end", 300, "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",")
        t, x1, x2, x3, dist = rows[np.flatnonzero(rows[:, 0] == 280.0)[0]]
        assert 0.0 < dist == np.hypot(np.hypot(x1, x2), x3)

    def test_zero_horizon_emits_single_row(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--preset", "zeno", "--kappa", 1, "--omega", 1,
                    "--bloch0", "[0.3,0,0.4]", "--t-end", 0, "--out", out]) == 0
        rows = read_csv_rows(out)
        assert rows.shape[0] == 1
        np.testing.assert_allclose(rows[0, 1:4], [0.3, 0, 0.4], atol=1e-12)

    def test_fluorescence_run_reaches_stationary_state(self, tmp_path):
        out = tmp_path / "fluo.csv"
        assert run(["evolve", "--preset", "fluorescence", "--rabi", 1, "--gamma", 1,
                    "--bloch0", "[0,0,1]", "--t-end", 40, "--out", out]) == 0
        rows = read_csv_rows(out)
        assert rows[-1, 4] <= 1e-6

    def test_rotation_step_past_explicit_stability_limit_stays_in_the_ball(self, tmp_path):
        # omega dt = 2 sqrt 2 + 2e-7 lies past the stability limit of an
        # explicit fourth-order step; the exponential step is a rotation at
        # any dt
        dt = math.sqrt(2.0) + 1e-7
        out = tmp_path / "r.csv"
        assert run(["evolve", "--preset", "zeno", "--kappa", 0, "--omega", 2,
                    "--bloch0", "[1,0,0]", "--t-end", 100 * dt, "--dt", dt, "--out", out]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 101
        assert np.linalg.norm(rows[:, 1:4], axis=1).max() <= 1.0 + 1e-12

    def test_non_finite_rows_abort_with_exit_3(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            assert run(["evolve", "--preset", "fluorescence", "--rabi", 1e300, "--gamma", 1,
                        "--t-end", 1, "--dt", 0.5, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite state") and "t=0.5" in err
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_stationary_state_noted(self, tmp_path):
        out = tmp_path / "sx.csv"
        assert run(["evolve", "--preset", "sigma_x_conjugation", "--bloch0", "[0.5,0,0.5]",
                    "--t-end", 1, "--out", out]) == 0
        text = open(out).read()
        assert "# stationary:" in text
        assert math.isnan(read_csv_rows(out)[-1, 4])


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "zeno", "kapa": 1.0,
                                   "out": str(tmp_path / "x.csv")}))
        assert run(["evolve", "--config", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_retired_rate_convention_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        assert run(["pdp", "--alpha", 0.5, "--n-points", 10, "--rate-convention", "eeqt",
                    "--out", out]) == 2
        assert "unrecognized arguments: --rate-convention" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5, "n_points": 10, "rate_convention": "eeqt",
                                   "out": str(out)}))
        assert run(["pdp", "--config", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_rejected(self, capsys):
        assert run(["evolve", "--preset", "zeno"]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_flags_override_config_document(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "a.csv"
        cfg.write_text(json.dumps({"preset": "tetrahedron", "kappa": 1.0, "alpha": 1.0,
                                   "t_end": 1.0, "out": str(out)}))
        assert run(["evolve", "--config", cfg, "--t-end", 0]) == 0
        assert read_csv_rows(out).shape[0] == 1

    def test_bad_choice_rejected(self, tmp_path):
        assert run(["evolve", "--preset", "nonsense",
                    "--out", tmp_path / "x.csv"]) != 0

    @pytest.mark.parametrize("args", [
        ["pdp", "--alpha", 0.5, "--kappa", 0],
        ["pdp", "--alpha", 1.5],
        ["evolve", "--preset", "tetrahedron", "--kappa", -1],
        ["evolve", "--preset", "zeno", "--t-end", 1e9],
        ["evolve", "--preset", "zeno", "--bloch0", "[1,1,1]"],
        ["exponent", "--preset", "fluorescence", "--gamma", -1],
        ["classical", "--r", 1],
        ["classical", "--probe-ks", "[0]"],
        ["classical", "--grid-size", 4],
        ["classical", "--n-max", 3],
        ["classical", "--probe-ks", "[[1]]"],
        ["classical", "--probe-ks", "[2.5]"],
        ["classical", "--probe-ks", "[true]"],
        ["exponent", "--preset", "tetrahedron", "--kappa-sweep", "[true]"],
        ["evolve", "--preset", "zeno", "--bloch0", "[true,0,0]"],
        ["pdp", "--alpha", 0.5, "--n-points", 10, "--r0", "[true,0,0]"],
        ["pdp", "--alpha", 0.5, "--n-points", 10, "--r0", "[NaN,0,0]"],
        ["pdp", "--alpha", 0.5, "--n-points", 10, "--omega", "nan"],
        ["exponent", "--preset", "zeno", "--tol", "nan"],
        ["render", "--cloud", "cloud.csv", "--zoom-center", "[NaN,0,1]", "--zoom-radius", 0.4],
        ["render", "--cloud", "cloud.csv", "--zoom-center", "[0,0,0]", "--zoom-radius", 0.4],
        ["render", "--cloud", "cloud.csv", "--zoom-center", "[1,0]", "--zoom-radius", 0.4],
        ["render", "--cloud", "cloud.csv", "--zoom-center", '["a","b","c"]',
         "--zoom-radius", 0.4],
        ["evolve", "--preset", "zeno", "--omega", "nan"],
        ["exponent", "--preset", "fluorescence", "--rabi", "nan"],
        ["exponent", "--preset", "zeno", "--t-max", "inf"],
        ["repro", "--criteria", "[11]"],
        ["repro", "--criteria", '["x"]'],
        ["exponent", "--preset", "zeno", "--kappa-sweep", "[1" + "0" * 400 + "]"],
        ["pdp", "--alpha", 0.5, "--n-points", 10 ** 9],
        ["pdp", "--alpha", 0.5, "--n-points", 10, "--burn-in", -5],
        ["pdp", "--alpha", 0.5, "--n-points", 0],
        ["fractal", "--cloud", "cloud.csv", "--levels", 29],
        ["classical", "--grid-size", 2 ** 20 + 1],
        ["classical", "--n-max", 1001],
        ["classical", "--r", 1025],
        ["exponent", "--preset", "zeno", "--omega", 1, "--t-max", -5],
        ["exponent", "--preset", "zeno", "--omega", 1, "--kappa-sweep", "[1,2]", "--t-max", -5],
        ["exponent", "--preset", "zeno", "--omega", 1,
         "--kappa-sweep", json.dumps([1.0] * (cli.MAX_SWEEP_POINTS + 1))],
        ["classical", "--probe-ks", json.dumps([1] * (cli.MAX_PROBE_KS + 1))],
        ["exponent", "--preset", "zeno", "--omega", 1, "--probe-seed", -1],
        ["exponent", "--preset", "zeno", "--omega", 1, "--probe-seed", 2 ** 64],
        ["pdp", "--alpha", 0.5, "--n-points", 10, "--seed", -1],
        ["pdp", "--alpha", 0.5, "--n-points", 10, "--seed", 2 ** 64],
        ["pdp", "--alpha", 0.5, "--n-points", 10, "--log", "/nonexistent/l.jsonl"],
        ["classical", "--density-out", "/nonexistent/d.csv"],
        ["classical", "--probe-ks", json.dumps([1, cli.MAX_PROBE_K + 1])],
        ["evolve", "--preset", "zeno", "--kappa", 0, "--omega", 1,
         "--bloch0", "[0,0,1.0000000005]", "--t-end", 1, "--dt", 0.5],
        ["exponent", "--preset", "tetrahedron", "--kappa", 1e-300, "--alpha", 1],
        ["exponent", "--preset", "fluorescence", "--rabi", 2, "--gamma", 1, "--tol", -1],
        ["exponent", "--preset", "fluorescence", "--rabi", 2, "--gamma", 1, "--tol", 0],
    ], ids=["pdp-kappa-0", "pdp-alpha-1.5", "evolve-kappa-neg", "evolve-t-end-1e9",
            "evolve-bloch0-outside", "exponent-gamma-neg", "classical-r-1",
            "classical-probe-k-0", "classical-grid-4", "classical-n-max-3",
            "classical-probe-k-list", "classical-probe-k-2.5", "classical-probe-k-bool",
            "exponent-kappa-sweep-bool", "evolve-bloch0-bool", "pdp-r0-bool", "pdp-r0-nan",
            "pdp-omega-nan", "exponent-tol-nan", "render-zoom-nan", "render-zoom-zero",
            "render-zoom-two-entries", "render-zoom-strings", "evolve-omega-nan",
            "exponent-rabi-nan", "exponent-t-max-inf", "repro-criterion-11",
            "repro-criterion-string", "exponent-kappa-sweep-past-float-range",
            "pdp-n-points-past-jump-cap", "pdp-burn-in-neg", "pdp-n-points-0",
            "fractal-levels-past-cap", "classical-grid-past-cap", "classical-n-max-past-cap",
            "classical-r-past-cap", "exponent-t-max-neg", "exponent-sweep-t-max-neg",
            "exponent-kappa-sweep-past-cap", "classical-probe-ks-past-cap",
            "exponent-probe-seed-neg", "exponent-probe-seed-2^64", "pdp-seed-neg",
            "pdp-seed-2^64", "pdp-log-missing-dir", "classical-density-out-missing-dir",
            "classical-probe-k-past-cap", "evolve-bloch0-past-the-ball",
            "exponent-horizon-past-cap", "exponent-tol-neg", "exponent-tol-0"])
    def test_bad_parameters_are_config_errors(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cloud.csv").write_text("1,0,0\n0,1,0\n0,0,1\n")
        start = time.perf_counter()
        assert run(args + ["--out", tmp_path / "x.out"]) == 2
        assert time.perf_counter() - start < 1.0  # rejected before any real work
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("args", [
        ["pdp", "--alpha", 0.5, "--n-points", 200_000],
        ["evolve", "--preset", "zeno"],
        ["classical"],
        ["repro", "--criteria", "[8]"],
    ], ids=["pdp", "evolve", "classical", "repro"])
    def test_output_in_a_missing_directory_is_a_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "missing" / "out.csv"
        start = time.perf_counter()
        assert run(args + ["--out", out]) == 2
        assert time.perf_counter() - start < 1.0  # rejected before any real work
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(out) in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("args, field", [
        (["evolve", "--preset", "zeno", "--out", "{dir}"], "out"),
        (["pdp", "--alpha", 0.5, "--n-points", 200_000, "--out", "c.csv", "--log", "{dir}"],
         "log"),
        (["classical", "--out", "c.json", "--density-out", "{dir}"], "density_out"),
    ], ids=["evolve-out", "pdp-log", "classical-density-out"])
    def test_output_that_names_a_directory_is_a_config_error(self, tmp_path, capsys,
                                                             monkeypatch, args, field):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "existing"
        target.mkdir()
        start = time.perf_counter()
        assert run([str(a).format(dir=target) for a in args]) == 2
        assert time.perf_counter() - start < 1.0  # rejected before any real work
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{field}'" in err and str(target) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("doc, message", [
        (None, "cannot read config"),
        ("{not json", "cannot read config"),
        ("[1, 2]", "must be a JSON object"),
        ('{"preset": "nonsense"}', "field 'preset' must be one of"),
    ], ids=["missing-file", "invalid-json", "not-an-object", "bad-choice"])
    def test_bad_config_document_is_a_config_error(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        if doc is not None:
            cfg.write_text(doc)
        out = tmp_path / "x.csv"
        assert run(["evolve", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("probe_ks", ["[100000000000]", "[5000000]"])
    def test_classical_settings_that_leave_no_probe_to_fit_are_a_config_error(
            self, tmp_path, capsys, probe_ks):
        # at r = 1024 the sawtooth's distance 0.5/k 1024^-n falls below the
        # 1e-13 floor before any window of three iterates
        out = tmp_path / "c.json"
        assert run(["classical", "--r", 1024, "--probe-ks", probe_ks, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "'probe_ks'" in err and "r = 1024" in err
        assert not out.exists()
        # one fittable probe keeps the run, and the other is excluded in a note
        assert run(["classical", "--r", 1024, "--probe-ks", "[1,100000000000]",
                    "--out", out]) == 0
        assert "probe 1 excluded" in " ".join(json.loads(out.read_text())["notes"])

    def test_probe_k_is_capped_where_the_sawtooth_is_told_from_uniform(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["classical", "--probe-ks", "[1e300]", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "'probe_ks'" in err and f"cap of {cli.MAX_PROBE_K}" in err
        # at the cap the sawtooth is still 5e-12 from the uniform density
        assert run(["classical", "--probe-ks", json.dumps([1, cli.MAX_PROBE_K]), "--out", out]) == 0

    def test_abbreviated_flag_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "cloud.csv").write_text("1,0,0\n0,1,0\n0,0,1\n")
        out = tmp_path / "zoom.pgm"
        assert run(["render", "--cloud", tmp_path / "cloud.csv", "--zoom-center", "[1,0,0]",
                    "--zoom-radiu", 0.35, "--out", out]) == 2
        assert "unrecognized arguments: --zoom-radiu" in capsys.readouterr().err
        assert not out.exists()

    def test_schema_checks_every_list_entry_and_finiteness(self):
        for schema in cli._COMMANDS.values():
            for name, field in schema.items():
                if field.type is list:
                    assert field.item is not None, name
                    field = field.item
                if field.type is float:
                    for bad in (math.nan, math.inf, -math.inf, -10**400):
                        with pytest.raises(cli.ConfigError, match="finite"):
                            cli._coerce(name, field, bad)

    @pytest.mark.parametrize("command", ["fractal", "render"])
    @pytest.mark.parametrize("text", [
        "1,0,0\n0,1\n0,0,1\n",
        "1,0\n0,1\n",
        "1,0,0,0\n0,1,0,0\n",
        "1,0,0\n0,nan,1\n",
        "1,0,0\ninf,0,0\n",
        "1,0,0\n0,x,1\n",
        "# header only\n",
        "",
        None,
    ], ids=["ragged", "two-columns", "four-columns", "nan", "inf", "unparsable",
            "comments-only", "empty", "missing"])
    def test_malformed_cloud_is_a_config_error(self, tmp_path, capsys, command, text):
        cloud = tmp_path / "bad.csv"
        if text is not None:
            cloud.write_text(text)
        out = tmp_path / "x.out"
        assert run([command, "--cloud", cloud, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(cloud) in err
        assert not out.exists()

    def test_missing_jump_log_is_a_config_error(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("1,0,0\n0,1,0\n")
        log = tmp_path / "nope.jsonl"
        out = tmp_path / "x.ppm"
        assert run(["render", "--mode", "ppm", "--cloud", cloud, "--log", log,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(log) in err
        assert not out.exists()

    def test_jump_log_of_non_objects_is_a_config_error(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("1,0,0\n0,1,0\n")
        log = tmp_path / "numbers.jsonl"
        log.write_text("5\n6\n")
        out = tmp_path / "x.ppm"
        assert run(["render", "--mode", "ppm", "--cloud", cloud, "--log", log,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(log) in err
        assert not out.exists()

    @pytest.mark.parametrize("lines,message", [
        (['{"detector": [1]}', '{"detector": 2}'], "not an integer"),
        (['{"detector": 1}', '{"detector": 2]'] + ['{"detector": 3}'] * 8, "line 2:"),
        (['{"detector": 1}'] * 9 + ['{"detector" 2}'], "line 10:"),
        (['{"detector": 7}', '{"detector": 7}'], "outside 1..4"),
        (['{"config": {}}', '{"detector": 1}'], "holds 1 events but the cloud has 2 points"),
    ], ids=["detector-not-a-number", "invalid-json", "invalid-json-in-a-later-block",
            "detector-label-7", "fewer-events-than-points"])
    def test_undecodable_jump_log_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                    lines, message):
        monkeypatch.setattr(io, "LOG_BLOCK_LINES", 4)
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("1,0,0\n" * len(lines))
        log = tmp_path / "bad.jsonl"
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.ppm"
        assert run(["render", "--mode", "ppm", "--cloud", cloud, "--log", log,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(log) in err and message in err
        assert not out.exists()

    def test_integral_float_probe_k_is_accepted(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["classical", "--probe-ks", "[2.0]", "--grid-size", 64, "--n-max", 6,
                    "--out", out]) == 0
        assert len(json.loads(out.read_text())["per_probe_slopes"]) == 1

    def test_too_few_box_levels_is_a_config_error(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("1,0,0\n0,1,0\n0,0,1\n")
        out = tmp_path / "d.json"
        assert run(["fractal", "--cloud", cloud, "--levels", 2, "--out", out]) == 2
        assert "at least 4 scale levels" in capsys.readouterr().err
        assert not out.exists()

    def test_runner_is_looked_up_when_main_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_fractal", lambda cfg: calls.append(cfg["cloud"]))
        assert run(["fractal", "--cloud", "c.csv", "--out", "d.json"]) == 0
        assert calls == ["c.csv"]

    def test_numerical_failure_exit_code(self, tmp_path):
        cloud = tmp_path / "tiny.csv"
        cloud.write_text("1,0,0\n0,1,0\n0,0,1\n")
        assert run(["fractal", "--cloud", cloud, "--out", tmp_path / "d.json"]) == 3

    def test_readme_commands_parse(self):
        """Every ``qmix`` command of the README's sh blocks parses, so a renamed
        or removed flag fails here rather than in a reader's shell."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        lines = "".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines
                    if line.startswith("qmix ")]
        assert len(commands) >= 10
        parser = cli.build_parser()
        rejected = []
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                rejected.append(" ".join(argv))
        assert rejected == []


class TestParser:
    """main builds only the named command's flags; help and usage errors stay."""

    def test_top_level_help_lists_every_command(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for command in cli._COMMANDS:
            assert command in out
        assert len(cli._COMMANDS) == 7

    def test_command_help_lists_its_flags(self, capsys):
        assert run(["exponent", "--help"]) == 0
        out = capsys.readouterr().out
        for name in ["config", *cli.EXPONENT_SCHEMA]:
            assert "--" + name.replace("_", "-") in out

    @pytest.mark.parametrize("argv", [
        ["nonsense", "--out", "x.json"],
        [],
        ["exponent", "--pres", "zeno", "--out", "x.json"],
        ["exponent", "--preset", "zeno", "--cloud", "c.csv", "--out", "x.json"],
    ], ids=["unknown-command", "no-command", "abbreviated-flag", "other-command-flag"])
    def test_usage_errors_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert "usage: qmix" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_one_command_parser_reads_like_the_full_one(self):
        full = cli.build_parser()
        recipes = cli_recipes("out") + [
            ["exponent", "--preset", "zeno", "--kappa-sweep", "[1,2]", "--out", "s.json"],
            ["repro", "--criteria", "[1,5]"]]
        assert {argv[0] for argv in recipes} == set(cli._COMMANDS)
        for argv in recipes:
            assert cli.build_parser(argv[0]).parse_args(argv) == full.parse_args(argv)


class TestPdpAndFractal:
    def test_cloud_and_log_round_trip(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        log = tmp_path / "path.jsonl"
        assert run(["pdp", "--alpha", 0.7, "--n-points", 500, "--seed", 42,
                    "--out", cloud, "--log", log]) == 0
        points = read_cloud_csv(cloud)
        assert points.shape == (500, 3)
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
        lines = open(log).read().splitlines()
        meta = json.loads(lines[0])
        assert "config_hash" in meta
        events = [json.loads(line) for line in lines[1:]]
        assert len(events) == 500
        assert {e["detector"] for e in events} <= {1, 2, 3, 4}
        times = [e["time"] for e in events]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_fractal_pipeline(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        report = tmp_path / "dim.json"
        assert run(["pdp", "--alpha", 0.75, "--n-points", 200000, "--seed", 1,
                    "--out", cloud]) == 0
        assert run(["fractal", "--cloud", cloud, "--out", report]) == 0
        payload = json.load(open(report))
        assert 0.5 < payload["dimension"] < 2.2
        assert payload["config_hash"]
        assert len(payload["counts"]) == len(payload["eps"])

    def test_exponent_command_reports_both_routes(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run(["exponent", "--preset", "fluorescence", "--rabi", 1, "--gamma", 2,
                    "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["analytic"] == pytest.approx(1.0)
        assert payload["numeric"]["exponent"] == pytest.approx(1.0, rel=0.01)
        assert payload["classification"] == {"completely_mixing": True, "exact": False}

    def test_exponent_command_flags_frozen_axis(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run(["exponent", "--preset", "sigma_x_conjugation", "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["analytic"] is None
        assert payload["numeric"]["exponent"] is None
        assert not payload["classification"]["completely_mixing"]

    def test_classical_command(self, tmp_path):
        out = tmp_path / "classical.json"
        density_out = tmp_path / "density.csv"
        assert run(["classical", "--r", 2, "--out", out,
                    "--density-out", density_out]) == 0
        payload = json.load(open(out))
        assert payload["exponent"] == pytest.approx(math.log(2.0), rel=0.02)
        # every sawtooth keeps its jump: the exact rate sits next to the fit
        assert payload["exact_rates"] == [math.log(2.0)] * 5
        assert payload["uniform_at"] == [None] * 5
        decay = payload["ramp_l1_decay"]
        assert decay[3] == pytest.approx(1.0 / 16.0, rel=1e-12)
        xs, fs = np.loadtxt(density_out, delimiter=",", unpack=True)
        assert len(xs) == 1024 and xs[1] == pytest.approx(2.0 * math.pi / 1024, rel=1e-15)
        np.testing.assert_allclose(fs, 1.0, atol=1e-3)

    def test_classical_ramp_decay_is_exact_at_the_largest_radix(self, tmp_path):
        # ||P^n ramp - 1||_1 = 1 / (2 r^n) holds bit for bit at r = 1024, past
        # the 1e-13 floor (n = 5) as well
        out = tmp_path / "classical.json"
        assert run(["classical", "--r", 1024, "--n-max", 12, "--out", out]) == 0
        decay = json.loads(out.read_text())["ramp_l1_decay"]
        assert decay == [1.0 / (2.0 * 1024.0 ** n) for n in range(13)]

    def test_classical_report_does_not_depend_on_grid_size(self, tmp_path):
        # --grid-size sets only the number of --density-out samples
        reports = []
        for m in (64, 4096):
            out = tmp_path / f"classical-{m}.json"
            assert run(["classical", "--grid-size", m, "--out", out]) == 0
            payload = json.loads(out.read_text())
            del payload["config"], payload["config_hash"]
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_exponent_sweep_traces_the_frequency_curve(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["exponent", "--preset", "zeno", "--omega", 1,
                    "--kappa-sweep", "[1,2,4,8,16]", "--out", out]) == 0
        table = json.load(open(out))["sweep"]
        assert [row["kappa"] for row in table] == [1, 2, 4, 8, 16]
        for row in table:
            assert row["numeric"]["exponent"] == pytest.approx(row["analytic"], rel=0.02)
        peaks = [row["numeric"]["exponent"] for row in table]
        assert max(peaks) == peaks[2]  # kappa = 4 omega is the optimum

    def test_zeno_without_precession_reports_no_mixing(self, tmp_path):
        # omega = 0 has no closed form; the horizon falls back to the jump rate
        out = tmp_path / "exp.json"
        assert run(["exponent", "--preset", "zeno", "--omega", 0, "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["analytic"] is None
        assert payload["numeric"]["exponent"] is None
        assert payload["numeric"]["fit_window"] == [60.0, 120.0]
        assert payload["numeric"]["notes"][-1].startswith("not completely mixing")
        assert not payload["classification"]["completely_mixing"]

    @pytest.mark.parametrize("args", [
        ["--preset", "zeno", "--omega", 1000, "--kappa", 0, "--t-max", 1e6],
        ["--preset", "zeno", "--omega", 1, "--kappa", 0, "--t-max", 1e8],
        ["--preset", "tetrahedron", "--kappa", 0, "--alpha", 1, "--omega", 5, "--t-max", 1e8],
    ], ids=["zeno-omega-1000", "zeno-omega-1", "tetrahedron"])
    def test_long_unitary_horizon_reports_no_mixing(self, tmp_path, args):
        # the propagator's rounding carries pure probes to |x| = 1 + 3e-9 or
        # more at the horizon: drift the classification clamps, as evolve does
        out = tmp_path / "exp.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["exponent", *args, "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["numeric"]["notes"][-1].startswith("not completely mixing")
        assert not payload["classification"]["completely_mixing"]

    def test_overflowing_propagator_is_named(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            assert run(["exponent", "--preset", "fluorescence", "--rabi", 1e160,
                        "--gamma", 1, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == "error: the propagator exp(M t) overflowed before t_max = 240\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, kind, rate, horizon", [
        (["tetrahedron", "--kappa", 1e-320, "--alpha", 1], "slowest decay rate", "1.33348e-320",
         "inf"),
        (["tetrahedron", "--kappa", 1e-300, "--alpha", 1], "slowest decay rate", "1.33333e-300",
         "9e+301"),
        (["zeno", "--omega", 0, "--kappa", 1e-320], "largest jump rate", "9.99989e-321", "inf"),
        (["fluorescence", "--rabi", 0, "--gamma", 1e-320], "slowest decay rate", "4.99994e-321",
         "inf"),
    ], ids=["tetrahedron-subnormal", "tetrahedron-1e-300", "zeno-subnormal",
            "fluorescence-subnormal"])
    def test_default_horizon_past_the_cap_names_the_rate(self, tmp_path, capsys, args, kind,
                                                         rate, horizon):
        out = tmp_path / "exp.json"
        assert run(["exponent", "--preset", *args, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"config error: the default horizon 120 / ({kind} {rate}) = {horizon} exceeds "
            "the MAX_HORIZON cap of 1e+150; give t_max (--t-max) explicitly\n")
        assert not out.exists()

    def test_decoupled_detectors_report_no_mixing(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run(["exponent", "--preset", "tetrahedron", "--alpha", 0, "--kappa", 1,
                    "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["analytic"] == 0.0
        assert payload["numeric"]["exponent"] is None
        assert not payload["classification"]["completely_mixing"]


class TestRenderCommand:
    def _cloud(self, tmp_path, alpha, n=1500):
        cloud = tmp_path / "cloud.csv"
        log = tmp_path / "path.jsonl"
        run(["pdp", "--alpha", alpha, "--n-points", n, "--seed", 7,
             "--out", cloud, "--log", log])
        return cloud, log

    def test_projective_cloud_lights_exactly_four_spots(self, tmp_path):
        cloud, _ = self._cloud(tmp_path, 1.0)
        img = tmp_path / "img.pgm"
        assert run(["render", "--cloud", cloud, "--projection", "net",
                    "--size", 256, "--out", img]) == 0
        data = open(img, "rb").read()
        header, pixels = data.split(b"255\n", 1)
        assert data.startswith(b"P5")
        assert sum(1 for b in pixels if b > 0) == 4

    def test_ppm_uses_detector_colors(self, tmp_path):
        cloud, log = self._cloud(tmp_path, 1.0)
        img = tmp_path / "img.ppm"
        assert run(["render", "--cloud", cloud, "--log", log, "--mode", "ppm",
                    "--projection", "net", "--size", 256, "--out", img]) == 0
        data = open(img, "rb").read()
        assert data.startswith(b"P6")

    def test_zoom_renders_nonzero_spread(self, tmp_path):
        cloud, _ = self._cloud(tmp_path, 0.7, n=20000)
        full = tmp_path / "full.pgm"
        zoom = tmp_path / "zoom.pgm"
        assert run(["render", "--cloud", cloud, "--projection", "+x",
                    "--size", 128, "--out", full]) == 0
        assert run(["render", "--cloud", cloud, "--size", 128,
                    "--zoom-center", "[1,0,0]", "--zoom-radius", 0.4,
                    "--out", zoom]) == 0
        for path in (full, zoom):
            _, pixels = open(path, "rb").read().split(b"255\n", 1)
            assert sum(1 for b in pixels if b > 0) > 50

    def test_detector_labels_are_read_across_log_blocks(self, tmp_path, monkeypatch):
        _, log = self._cloud(tmp_path, 0.7, n=1000)
        expected = [json.loads(line)["detector"] for line in open(log).read().splitlines()[1:]]
        monkeypatch.setattr(io, "LOG_BLOCK_LINES", 64)  # 15 full blocks and a partial one
        np.testing.assert_array_equal(io.read_jsonl_detectors(str(log)), expected)

    def test_a_block_the_event_pattern_misses_is_decoded_as_json(self, tmp_path, monkeypatch):
        cloud, log = self._cloud(tmp_path, 0.7, n=1000)
        lines = log.read_text().splitlines()
        expected = [json.loads(line)["detector"] for line in lines[1:]]
        respaced = list(lines)
        respaced[300] = json.dumps(json.loads(lines[300]))  # spaces after ':' and ','
        # the older layout, whose events repeated the post-jump state (cloud row i)
        five_keys = lines[:1] + [canonical_json(dict(json.loads(line), x=x, y=y, z=z))
                                 for line, (x, y, z) in zip(lines[1:],
                                                            read_cloud_csv(cloud).tolist())]
        written = "\n".join(lines) + "\n"
        for text, block_lines in [
            ("\n".join(respaced) + "\n", 64),
            ("\n".join(five_keys) + "\n", 64),
            (written.replace("\n", "\r\n"), 64),  # CRLF line endings
            (written[:-1], 64),  # no newline after the last event
            (written, 1),  # the metadata line is a block of its own
        ]:
            monkeypatch.setattr(io, "LOG_BLOCK_LINES", block_lines)
            log.write_bytes(text.encode())
            np.testing.assert_array_equal(io.read_jsonl_detectors(str(log)), expected)

    def test_ppm_needs_log(self, tmp_path):
        cloud, _ = self._cloud(tmp_path, 0.7)
        assert run(["render", "--cloud", cloud, "--mode", "ppm",
                    "--out", tmp_path / "x.ppm"]) == 2

    @pytest.mark.parametrize("args, field", [
        (["--size", 10], "size"),
        (["--projection", "+w"], "projection"),
        (["--zoom-center", "[1,0,0]", "--zoom-radius", 2], "zoom radius"),
        (["--mode", "ppm"], "'log'"),
        (["--zoom-center", "[1,0,0]"], "zoom needs both"),
    ], ids=["size", "projection", "zoom-radius", "ppm-without-log", "zoom-center-alone"])
    def test_bad_render_settings_fail_before_the_cloud_is_read(self, tmp_path, capsys,
                                                               monkeypatch, args, field):
        def unread(path):
            raise AssertionError(f"read {path} before the render settings were checked")

        monkeypatch.setattr(cli, "read_cloud_csv", unread)
        out = tmp_path / "x.pnm"
        assert run(["render", "--cloud", tmp_path / "cloud.csv", *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err
        assert not out.exists()


class TestDeterminism:
    def test_pdp_recipe_is_byte_stable(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        log = tmp_path / "path.jsonl"
        recipe = ["pdp", "--alpha", 0.7, "--n-points", 1000, "--seed", 42,
                  "--out", cloud, "--log", log]
        blobs = []
        for _ in range(2):
            assert run(recipe) == 0
            blobs.append(open(cloud, "rb").read() + open(log, "rb").read())
        assert blobs[0] == blobs[1]

    def test_different_seeds_differ(self, tmp_path):
        outs = []
        for seed in (1, 2):
            cloud = tmp_path / f"s{seed}.csv"
            assert run(["pdp", "--alpha", 0.7, "--n-points", 200, "--seed", seed,
                        "--out", cloud]) == 0
            outs.append(open(cloud, "rb").read())
        assert outs[0] != outs[1]

    def test_reports_are_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        recipes = cli_recipes(str(tmp_path))
        collapse = str(tmp_path / "collapse.json")
        # probe k = 1e9 sinks below the 1e-13 floor after three steps
        recipes.append(["classical", "--r", "10", "--probe-ks", "[1, 1000000000]",
                        "--out", collapse])
        for recipe in recipes:
            assert main(recipe) == 0
        reports = [arg for recipe in recipes for arg in recipe if arg.endswith(".json")]
        assert len(reports) == 4
        for path in reports:
            json.loads(open(path).read(), parse_constant=reject)
        payload = json.load(open(collapse))
        assert payload["per_probe_slopes"][1] is None
        assert payload["notes"] == ["probe 1 excluded: no fit window holds three "
                                    "distances above the floor 1e-13"]

    def test_repro_subcommand_runs_selected_criteria(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        # criterion 4's verdict comes from numpy comparisons
        assert run(["repro", "--criteria", "[4,6]", "--out", report]) == 0
        text = capsys.readouterr().out
        assert "C4" in text and "C6" in text and "FAIL" not in text
        payload = json.load(open(report))
        assert [c["passed"] for c in payload["criteria"]] == [True, True]


def _fresh_python(code):
    """stdout of ``code`` run by a new interpreter that imports qmix from this tree."""
    env = dict(os.environ)
    src = str(Path(qmix.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def test_startup_imports_no_scipy():
    # scipy is a test dependency only; importing it would add about 0.3 s and
    # 20 MB to every qmix process.  The package loads no module of its own,
    # and qmix.cli only what every command needs: not the sampler, whose
    # burn-in default and generator live in qmix.states.  logging and
    # concurrent.futures come only with lindblad and with the ensemble
    loaded = _fresh_python(
        "import json, sys; before = set(sys.modules); import qmix; "
        "package = sorted(set(sys.modules) - before); import qmix.cli; "
        "print(json.dumps([package, sorted(set(sys.modules) - before)]))")
    package, cli_modules = loaded
    assert [m for m in package if m.startswith("qmix")] == ["qmix"]
    assert [m for m in cli_modules if m.startswith("qmix")] == [
        "qmix", "qmix.cli", "qmix.io", "qmix.states"]
    assert not {"logging", "concurrent.futures"} & set(cli_modules)
    assert [m for m in cli_modules if m.split(".")[0] == "scipy"] == []


def test_fractal_command_loads_no_dynamics(tmp_path):
    cloud = tmp_path / "cloud.csv"
    io.write_cloud_csv(str(cloud), pdp.chaos_game(0.7, 5000, seed=3), {"alpha": 0.7})
    loaded = _fresh_python(
        "import json, sys; from qmix import cli; "
        f"code = cli.main(['fractal', '--cloud', {str(cloud)!r}, "
        f"'--out', {str(tmp_path / 'dim.json')!r}]); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('qmix'))]))")
    code, modules = loaded
    assert code == 0
    assert "qmix.boxdim" in modules
    assert not {"qmix.lindblad", "qmix.exponent", "qmix.circle"} & set(modules)
