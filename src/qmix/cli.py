"""Command-line front end.

Subcommands: evolve, exponent, pdp, fractal, classical, render, repro.
Each takes an optional JSON config document (--config) whose keys are
schema-checked (unknown keys are rejected) plus per-field flags that
override the file.  The fully resolved configuration and its hash are
embedded in every output file, and rerunning any recipe with the same
seed reproduces the outputs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Importing this module loads only the standard library and :mod:`qmix.io`,
through which every command writes, so argument parsing, schema checks and
the output-path checks run before numpy is imported: 0.059 s, the median
of 20 fresh ``import qmix.cli`` on a 2-vCPU host, against 0.118 s with
numpy loaded at import.  Each ``cmd_*`` imports the compute modules it
runs, and with them numpy, so ``qmix render`` never loads the sampler,
the master-equation or the circle-map code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
from typing import Any, Optional

from . import DEFAULT_BURN_IN
from .io import (
    atomic_write_bytes,
    header_comments,
    read_cloud_csv,
    read_jsonl_detectors,
    write_cloud_csv,
    write_csv,
    write_json,
    write_jsonl,
)

# CLI name -> preset class of qmix.lindblad
PRESETS = {"tetrahedron": "Tetrahedron", "zeno": "Zeno", "fluorescence": "Fluorescence",
           "sigma_x_conjugation": "SigmaXConjugation"}


class ConfigError(ValueError):
    """Bad or unknown configuration; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class Field:
    """One config value: its type, and for a list the rule of every entry."""
    type: type
    default: Any = None
    required: bool = False
    choices: Optional[tuple] = None
    item: Optional[Field] = None
    length: Optional[int] = None
    max_length: Optional[int] = None
    nonempty: Optional[str] = None  # a list that may not be empty: what one entry is
    output: bool = False  # a nonempty path to write, in a directory that must exist


def _coerce(name: str, field: Field, value):
    """Check ``value`` against ``field``; a list comes back as given, unconverted."""
    if field.type is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not abs(value) <= sys.float_info.max:  # nan, inf or an int past float range
            raise ConfigError(f"field '{name}' must be finite, got {value!r}")
        value = float(value)
    if field.type is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, field.type) or (field.type is int and isinstance(value, bool)):
        raise ConfigError(f"field '{name}' expects {field.type.__name__}, got {value!r}")
    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"field '{name}' must be one of {field.choices}, got {value!r}")
    if field.type is list:
        if field.length is not None and len(value) != field.length:
            raise ConfigError(f"field '{name}' must hold {field.length} entries, got {value!r}")
        if field.max_length is not None and len(value) > field.max_length:
            raise ConfigError(f"field '{name}' holds {len(value)} entries, past the cap of "
                              f"{field.max_length}")
        if field.nonempty and not value:  # an empty list does not mean the default
            raise ConfigError(f"field '{name}' must hold at least one {field.nonempty}")
        for i, entry in enumerate(value):
            _coerce(f"{name}[{i}]", field.item, entry)
    return value


def resolve_config(schema: dict[str, Field], config_path: Optional[str],
                   overrides: dict[str, Any]) -> dict[str, Any]:
    """Merge defaults, config file, and flag overrides against a schema."""
    resolved = {k: f.default for k, f in schema.items()}
    if config_path:
        try:
            with open(config_path) as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = sorted(set(doc) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        for key, value in doc.items():
            resolved[key] = _coerce(key, schema[key], value)
    for key, value in overrides.items():
        if value is None:
            continue
        resolved[key] = _coerce(key, schema[key], value)
    missing = [k for k, f in schema.items() if f.required and resolved[k] is None]
    if missing:
        raise ConfigError(f"missing required field(s): {', '.join(missing)}")
    for key, field in schema.items():  # no run may end by failing to write
        path = resolved[key] if field.output else None
        if path == "":
            raise ConfigError(f"field '{key}' is an empty path")
        if not path:
            continue
        try:  # follows symlinks: what a write would replace or fill
            mode = os.stat(path).st_mode
        except OSError:  # a new file; its directory is checked below
            mode = stat.S_IFREG
        if stat.S_ISDIR(mode):
            raise ConfigError(f"field '{key}': {path} is a directory, not a file")
        if not stat.S_ISREG(mode):
            # the output is renamed over its path, and would replace a device or a pipe
            raise ConfigError(f"field '{key}': {path} exists and is not a regular file")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"field '{key}': the directory of {path} does not exist")
    return resolved


def _preset(cfg: dict):
    from . import lindblad
    cls = getattr(lindblad, PRESETS[cfg["preset"]])
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})


# Entries of `exponent --kappa-sweep`: each is one full exponent report, about
# 1 ms at the default horizon and probe set (a sweep at the cap takes 0.10-0.15
# s in-process, median 0.11 s, on Zeno and the tetrahedron at omega = 1 on a
# 2-vCPU host).
MAX_SWEEP_POINTS = 100
# Entries of `classical --probe-ks`: run time and memory are linear in the
# probe count, but small (`qmix classical` takes about 0.25 s at the cap with
# its other defaults, about what the defaults take).
MAX_PROBE_KS = 100
# Largest `classical --probe-ks` k: the sawtooth's distance 0.5/k to the uniform
# density (5e-12) must exceed the 1e-12 at which lambda_classical calls them equal.
MAX_PROBE_K = 10 ** 11

_BLOCH = Field(list, [0.0, 0.0, 1.0], item=Field(float), length=3)

_PRESET_FIELDS = {
    "preset": Field(str, required=True, choices=tuple(PRESETS)),
    "kappa": Field(float, 1.0),
    "alpha": Field(float, 1.0),
    "omega": Field(float, 0.0),
    "rabi": Field(float, 1.0),
    "gamma": Field(float, 1.0),
}

EVOLVE_SCHEMA = {
    **_PRESET_FIELDS,
    "bloch0": _BLOCH,
    "t_end": Field(float, 5.0),
    "dt": Field(float),
    "out": Field(str, required=True, output=True),
}

EXPONENT_SCHEMA = {
    **_PRESET_FIELDS,
    "t_max": Field(float),
    "probe_seed": Field(int, 7),
    "tol": Field(float, 1e-4),
    "kappa_sweep": Field(list, item=Field(float), max_length=MAX_SWEEP_POINTS, nonempty="kappa"),
    "out": Field(str, required=True, output=True),
}

PDP_SCHEMA = {
    "alpha": Field(float, required=True),
    "kappa": Field(float, 1.0),
    "omega": Field(float, 0.0),
    "n_points": Field(int, 100000),
    "burn_in": Field(int, DEFAULT_BURN_IN),
    "seed": Field(int, 0),
    "r0": _BLOCH,
    "out": Field(str, required=True, output=True),
    "log": Field(str, output=True),
}

FRACTAL_SCHEMA = {
    "cloud": Field(str, required=True),
    "levels": Field(int),
    "out": Field(str, required=True, output=True),
}

CLASSICAL_SCHEMA = {
    "r": Field(int, 2),
    "n_max": Field(int, 12),
    "probe_ks": Field(list, [1, 2, 3, 4, 5], item=Field(int), max_length=MAX_PROBE_KS),
    "grid_size": Field(int, 1024),
    "out": Field(str, required=True, output=True),
    "density_out": Field(str, output=True),
}

RENDER_SCHEMA = {
    "cloud": Field(str, required=True),
    "log": Field(str),
    "projection": Field(str, "+z"),  # checked by render.RenderSpec
    "size": Field(int, 800),
    "mode": Field(str, "pgm", choices=("pgm", "ppm")),
    "zoom_center": Field(list, item=Field(float), length=3),
    "zoom_radius": Field(float),
    "out": Field(str, required=True, output=True),
}

REPRO_SCHEMA = {
    "criteria": Field(list, item=Field(int), nonempty="criterion"),
    "out": Field(str, output=True),
}


def _checked(fn, *args, **kwargs):
    """Call ``fn``; a ValueError or an unreadable input file becomes a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_evolve(cfg: dict) -> None:
    from .lindblad import NonUniqueStationaryError, build_model, evolve, stationary_state
    from .states import bloch_distance

    model = _checked(build_model, _preset(cfg))
    traj = _checked(evolve, model, cfg["bloch0"], cfg["t_end"], dt=cfg["dt"])
    notes = ()
    try:
        x_stat = stationary_state(model)
    except NonUniqueStationaryError as exc:
        x_stat = [math.nan] * 3
        notes = [f"stationary: {exc}"]
    dists = bloch_distance(traj.blochs - x_stat)
    write_csv(cfg["out"], cfg, ("t", "x1", "x2", "x3", "dist_to_stationary"),
              traj.times, *traj.blochs.T, dists, notes=notes)


def _exponent_payload(cfg: dict, preset) -> dict:
    from .exponent import (classify_mixing, default_horizon, default_probe_set,
                           lambda_q_analytic, lambda_q_numeric)
    from .lindblad import NonUniqueStationaryError, build_model, stationary_state

    model = _checked(build_model, preset)
    try:
        analytic = lambda_q_analytic(preset)
    except ValueError:
        analytic = None
    t_max = cfg["t_max"] if cfg["t_max"] is not None else _checked(default_horizon, model)
    try:
        x_ref = stationary_state(model)
    except NonUniqueStationaryError:
        x_ref = [0.0, 0.0, 0.0]
    probes = _checked(default_probe_set, x_ref, seed=cfg["probe_seed"])
    estimate = _checked(lambda_q_numeric, model, x_ref, probes, t_max)
    report = _checked(classify_mixing, model, probes, t_max, tol=cfg["tol"])
    return {"analytic": analytic, "numeric": dataclasses.asdict(estimate),
            "classification": dataclasses.asdict(report)}


def cmd_exponent(cfg: dict) -> None:
    if cfg["kappa_sweep"]:
        table = []
        for kappa in cfg["kappa_sweep"]:
            point_cfg = dict(cfg, kappa=float(kappa))
            entry = _exponent_payload(point_cfg, _preset(point_cfg))
            entry["kappa"] = float(kappa)
            table.append(entry)
        write_json(cfg["out"], {"sweep": table}, cfg)
        return
    write_json(cfg["out"], _exponent_payload(cfg, _preset(cfg)), cfg)


def cmd_pdp(cfg: dict) -> None:
    from . import pdp

    path = _checked(
        pdp.sample_path, omega=cfg["omega"], kappa=cfg["kappa"], alpha=cfg["alpha"],
        r0=cfg["r0"], n_jumps=cfg["n_points"], seed=cfg["seed"],
        burn_in=cfg["burn_in"])
    write_cloud_csv(cfg["out"], path.states, cfg)
    if cfg["log"]:
        write_jsonl(cfg["log"], path.times, path.detectors, cfg)


def cmd_fractal(cfg: dict) -> None:
    from . import boxdim

    points = _checked(read_cloud_csv, cfg["cloud"])
    result = _checked(boxdim.box_count, points, levels=cfg["levels"])
    dimension = boxdim.estimate_dimension(result)
    payload = {
        "n_points": result.n_points,
        "eps": result.eps.tolist(),
        "counts": result.counts.tolist(),
        "dimension": dimension,
        "fit_levels": list(result.fit_levels),
        "residual": result.residual,
        "r_squared": result.r_squared,
    }
    write_json(cfg["out"], payload, cfg)


def cmd_classical(cfg: dict) -> None:
    from . import circle
    from .fitting import FitWindowError

    r = cfg["r"]
    if any(k > MAX_PROBE_K for k in cfg["probe_ks"]):
        raise ConfigError(f"field 'probe_ks' holds a k past the cap of {MAX_PROBE_K}")
    xs = _checked(circle.grid_points, cfg["grid_size"])  # the --density-out samples
    f0 = circle.CircleDensity.uniform()
    probes = [_checked(circle.sawtooth_density, int(k)) for k in cfg["probe_ks"]]
    try:
        estimate = _checked(circle.lambda_classical, f0, probes, r, n_max=cfg["n_max"])
    except FitWindowError as exc:  # the settings alone leave no probe to fit
        raise ConfigError(f"fields 'probe_ks' and 'r': no k of {cfg['probe_ks']} can be "
                          f"fitted at r = {r} ({exc})") from exc
    ramp = circle.linear_ramp_density()
    ramp_dists, _, _ = circle.distance_table(f0, [ramp], r, cfg["n_max"])
    payload = {
        "exponent": estimate.exponent,
        "log_r": math.log(r),
        "per_probe_slopes": estimate.per_probe_slopes,
        "exact_rates": estimate.exact_rates,
        "uniform_at": estimate.uniform_at,
        "fit_window": list(estimate.fit_window),
        "max_residual": estimate.max_residual,
        "notes": estimate.notes,
        "ramp_l1_decay": ramp_dists[0].tolist(),
    }
    write_json(cfg["out"], payload, cfg)
    if cfg["density_out"]:
        g = circle.pf_power(ramp, r, cfg["n_max"])
        write_csv(cfg["density_out"], cfg, ("x", "f"), xs, g.evaluate(xs))


def cmd_render(cfg: dict) -> None:
    from . import render

    # every check that needs no input file runs before the cloud is read
    zoom_center = tuple(cfg["zoom_center"]) if cfg["zoom_center"] else None
    spec = _checked(render.RenderSpec, projection=cfg["projection"], size=cfg["size"],
                    mode=cfg["mode"], zoom_center=zoom_center,
                    zoom_radius=cfg["zoom_radius"])
    if cfg["mode"] == "ppm" and not cfg["log"]:
        raise ConfigError("ppm mode needs the jump log ('log') for detector labels")
    points = _checked(read_cloud_csv, cfg["cloud"])
    detectors = None
    if cfg["mode"] == "ppm":
        detectors = _checked(read_jsonl_detectors, cfg["log"])
        if len(detectors) != len(points):
            raise ConfigError(f"jump log {cfg['log']} holds {len(detectors)} events but the "
                              f"cloud has {len(points)} points")
    data = render.render(points, spec, detectors=detectors,
                         comments=tuple(header_comments(cfg)))
    atomic_write_bytes(cfg["out"], data)


def cmd_repro(cfg: dict) -> int:
    from .acceptance import run_all
    results = _checked(run_all, [int(c) for c in cfg["criteria"]] if cfg["criteria"] else None)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  C{res.cid} {res.description} [{res.elapsed:.1f}s] {res.detail}")
    all_passed = all(r.passed for r in results)
    print(f"{'PASS' if all_passed else 'FAIL'}  {sum(r.passed for r in results)}"
          f"/{len(results)} criteria")
    if cfg["out"]:
        payload = {"criteria": [
            {"id": r.cid, "description": r.description, "passed": r.passed,
             "detail": r.detail, "elapsed_seconds": r.elapsed}
            for r in results]}
        write_json(cfg["out"], payload, cfg)
    return 0 if all_passed else 3


# main looks ``cmd_<name>`` up at call time, so a rebound runner is the one run
_COMMANDS = {
    "evolve": EVOLVE_SCHEMA,
    "exponent": EXPONENT_SCHEMA,
    "pdp": PDP_SCHEMA,
    "fractal": FRACTAL_SCHEMA,
    "classical": CLASSICAL_SCHEMA,
    "render": RENDER_SCHEMA,
    "repro": REPRO_SCHEMA,
}


def _add_flags(parser: argparse.ArgumentParser, schema: dict[str, Field]) -> None:
    parser.add_argument("--config", help="JSON config document")
    for name, field in schema.items():
        flag = "--" + name.replace("_", "-")
        if field.type is list:
            parser.add_argument(flag, type=json.loads, default=None,
                                help="JSON list literal")
        else:
            parser.add_argument(flag, type=field.type, default=None,
                                choices=field.choices)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``qmix`` parser: every command's flags, or only ``command``'s when it
    names one (``main`` parses one command line and needs no other)."""
    parser = argparse.ArgumentParser(
        prog="qmix", allow_abbrev=False,
        description="dissipative-qubit mixing diagnostics and fractal tools")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        _add_flags(sub.add_parser(name, allow_abbrev=False), _COMMANDS[name])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:  # argparse usage errors map to the config exit code
        return 0 if exc.code in (0, None) else 2
    schema = _COMMANDS[args.command]
    overrides = {k: getattr(args, k) for k in schema}
    try:
        cfg = resolve_config(schema, args.config, overrides)
        code = globals()[f"cmd_{args.command}"](cfg)
        return int(code) if code is not None else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical or IO failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
