"""Executable acceptance recipes.

Each criterion function runs one end-to-end check at its stated tolerance
and returns a CriterionResult; ``run_all`` drives the full list.  The
pytest suite asserts on these results and the ``qmix repro`` subcommand
prints them, so the claims stay executable from both entry points.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import boxdim, circle, pdp
from .cli import main as cli_main
from .exponent import (
    classify_mixing,
    default_probe_set,
    lambda_q_analytic,
    lambda_q_numeric,
)
from .lindblad import (
    Fluorescence,
    SigmaXConjugation,
    Tetrahedron,
    Zeno,
    analytic_bloch_paths,
    build_model,
    evolve,
    generator_apply,
    stationary_state,
)
from .states import (
    _random_bloch,
    bloch_relative_entropy,
    from_bloch,
    trace_norm,
)


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    detail: str
    elapsed: float


def _result(cid: int, description: str, fn: Callable[[], tuple[bool, str]]) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed recipe is a failed criterion
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    # a numpy bool would not serialize in the repro report
    return CriterionResult(cid, description, bool(passed), detail, time.perf_counter() - start)


def criterion_1() -> CriterionResult:
    """Tetrahedron exponent (4/3) kappa alpha^2 from the decay fit, 1%."""

    def run():
        details = []
        ok = True
        for kappa, alpha in ((1.0, 1.0), (1.0, 0.5), (2.0, 0.8)):
            t0 = time.perf_counter()
            preset = Tetrahedron(kappa=kappa, alpha=alpha, omega=0.0)
            model = build_model(preset)
            expected = lambda_q_analytic(preset)
            ref = stationary_state(model)
            est = lambda_q_numeric(model, ref, default_probe_set(ref), 20.0 / expected)
            dt = time.perf_counter() - t0
            rel = abs(est.exponent - expected) / expected
            ok &= rel <= 0.01 and dt < 10.0
            details.append(f"k={kappa} a={alpha}: {est.exponent:.5f} vs {expected:.5f} "
                           f"({100 * rel:.3f}%, {dt:.1f}s)")
        return ok, "; ".join(details)

    return _result(1, "tetrahedron exponent within 1%", run)


def criterion_2() -> CriterionResult:
    """evolve's trace distance to I/2 matches exp(-(4/3)t) within 1e-6 on [0, 5]."""

    def run():
        worst = 0.0
        for omega in (0.0, 1.0):
            model = build_model(Tetrahedron(kappa=1.0, alpha=1.0, omega=omega))
            traj = evolve(model, [0.0, 0.0, 1.0], 5.0)
            radius = np.linalg.norm(traj.blochs, axis=1)  # trace distance to I/2
            err = np.abs(radius - np.exp(-4.0 * traj.times / 3.0))
            worst = max(worst, float(err.max()))
        return worst <= 1e-6, f"max |deviation| = {worst:.2e}"

    return _result(2, "tetrahedron decay law within 1e-6", run)


def criterion_3() -> CriterionResult:
    """Zeno exponent curve at alpha in {1/4, 1/2, 1, 2, 4}, 2% each."""

    def run():
        t0 = time.perf_counter()
        details = []
        ok = True
        for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
            preset = Zeno(kappa=4.0 * alpha, omega=1.0)
            model = build_model(preset)
            expected = lambda_q_analytic(preset)
            ref = stationary_state(model)
            est = lambda_q_numeric(model, ref, default_probe_set(ref), 120.0 / expected)
            rel = abs(est.exponent - expected) / expected
            ok &= rel <= 0.02
            details.append(f"a={alpha}: {est.exponent:.5f}/{expected:.5f} ({100 * rel:.2f}%)")
        total = time.perf_counter() - t0
        ok &= total < 60.0
        return ok, "; ".join(details) + f"; total {total:.1f}s"

    return _result(3, "measurement-frequency exponent curve within 2%", run)


def criterion_4() -> CriterionResult:
    """Driven-emitter exponent gamma/2 within 1%; stationary residual 1e-12."""

    def run():
        details = []
        ok = True
        for rabi, gamma in ((1.0, 1.0), (2.0, 1.0), (1.0, 4.0)):
            preset = Fluorescence(rabi=rabi, gamma=gamma)
            model = build_model(preset)
            expected = lambda_q_analytic(preset)
            x = stationary_state(model)
            residual = trace_norm(generator_apply(model, from_bloch(x)))
            est = lambda_q_numeric(model, x, default_probe_set(x), 40.0 / gamma)
            rel = abs(est.exponent - expected) / expected
            ok &= rel <= 0.01 and residual <= 1e-12
            d2 = 2.0 * rabi ** 2 + gamma ** 2
            d4 = 4.0 * rabi ** 2 + gamma ** 2
            printed_asis = (2.0 * rabi * gamma / d4, -gamma ** 2 / d4)
            halved = (2.0 * rabi * gamma / d2, gamma ** 2 / d2)
            match = ("2R^2+g^2 denominator with basis-adjusted signs"
                     if abs(x[1] - halved[0]) < 1e-9 and abs(x[2] - halved[1]) < 1e-9
                     else "neither closed-form reading")
            details.append(
                f"R={rabi} g={gamma}: L={est.exponent:.5f}/{expected:.5f} ({100 * rel:.2f}%) "
                f"res={residual:.1e}; kernel n=({x[1]:.6f},{x[2]:.6f}) vs "
                f"as-printed ({printed_asis[0]:.6f},{printed_asis[1]:.6f}) -> {match}")
        return ok, "; ".join(details)

    return _result(4, "driven-emitter exponent and stationary state", run)


def criterion_5() -> CriterionResult:
    """Frozen-axis counterexample: entropy limit -log cos(2 phi) at t=20."""

    def run():
        preset = SigmaXConjugation()
        model = build_model(preset)
        phis = np.array([math.pi / 16, math.pi / 8, 3 * math.pi / 16])
        # e1 = |0><0| against e2 = cos(phi)|0> + sin(phi)|1>, as Bloch vectors
        e2 = np.column_stack([np.sin(2 * phis), np.zeros(3), np.cos(2 * phis)])
        at_20 = np.array([20.0])
        x1 = analytic_bloch_paths(preset, [0.0, 0.0, 1.0], at_20)[0, 0]
        x2 = analytic_bloch_paths(preset, e2, at_20)[:, 0]
        values = bloch_relative_entropy(x1, x2)
        worst = float(np.max(np.abs(values + np.log(np.cos(2 * phis)))))
        report = classify_mixing(model, default_probe_set(np.zeros(3)), 20.0)
        ok = worst <= 1e-6 and not report.completely_mixing and not report.exact
        return ok, (f"max |H - limit| = {worst:.2e}; "
                    f"classified mixing={report.completely_mixing} exact={report.exact}")

    return _result(5, "non-mixing counterexample entropy limit", run)


def criterion_6() -> CriterionResult:
    """Pinsker bound H(rho|sigma) >= ||rho - sigma||_1^2 / 2 on 1e4 pairs."""

    def run():
        rng = pdp.make_rng(6)
        pairs = [(_random_bloch(rng, pure=(i % 5 == 0)),
                  _random_bloch(rng, pure=(i % 7 == 0))) for i in range(10_000)]
        x, y = np.array(pairs).transpose(1, 0, 2)
        # an infinite entropy (support violation) meets the bound trivially
        gap = bloch_relative_entropy(x, y) - 0.5 * np.linalg.norm(x - y, axis=1) ** 2
        bad = gap[gap < -1e-12]
        violations, worst = len(bad), float(np.min(bad, initial=0.0))
        return violations == 0, f"violations={violations}, worst gap={worst:.2e}"

    return _result(6, "Pinsker inequality on 10^4 random pairs", run)


def criterion_7() -> CriterionResult:
    """Jump-process ensemble reproduces the master equation within 0.01."""

    def run():
        t0 = time.perf_counter()
        r0 = np.array([0.6, 0.0, 0.8])
        target = analytic_bloch_paths(
            Tetrahedron(kappa=1.0, alpha=0.8, omega=1.0), r0[None, :],
            np.array([1.0]))[0, 0]
        mean = pdp.ensemble_bloch_mean(omega=1.0, kappa=1.0, alpha=0.8, r0=r0,
                                       n_paths=100_000, t_end=1.0, seed=7)
        err = float(np.max(np.abs(mean - target)))
        elapsed = time.perf_counter() - t0
        ok = err <= 0.01 and elapsed < 120.0
        return ok, f"max err {err:.4f} at rate kappa (1 + alpha^2); {elapsed:.1f}s"

    return _result(7, "ensemble consistency at 1e5 paths", run)


def criterion_8() -> CriterionResult:
    """Attractor dimensions 1.44 +/- 0.15 (a=0.75), 0.49 +/- 0.15 (a=0.95),
    non-increasing across the sweep, under 5 minutes."""

    def run():
        t0 = time.perf_counter()
        dims = {}
        for alpha in (0.75, 0.80, 0.85, 0.90, 0.95):
            cloud = pdp.chaos_game(alpha, 10 ** 6, seed=42)
            dims[alpha] = boxdim.estimate_dimension(boxdim.box_count(cloud))
        elapsed = time.perf_counter() - t0
        values = [dims[a] for a in (0.75, 0.80, 0.85, 0.90, 0.95)]
        monotone = all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        ok = (abs(dims[0.75] - 1.44) <= 0.15 and abs(dims[0.95] - 0.49) <= 0.15
              and monotone and elapsed < 300.0)
        return ok, (", ".join(f"a={a}: {d:.3f}" for a, d in dims.items())
                    + f"; monotone={monotone}; {elapsed:.1f}s")

    return _result(8, "attractor box-counting dimensions", run)


def criterion_9() -> CriterionResult:
    """Transfer operator: exact 1/(2 r^n) decay, log r exponent, and the
    Fourier rule (P^n f)^(k) = f^(k r^n) on random piecewise-affine probes,
    each side an exact coefficient of a piece table."""

    def run():
        details = []
        # exact decay of the ramp density under doubling
        f = circle.linear_ramp_density()
        one = circle.CircleDensity.uniform()
        worst = 0.0
        g = f
        for n in range(1, 11):
            g = circle.pf_apply(g, 2)
            worst = max(worst, abs(circle.l1_distance(g, one) - 1.0 / (2.0 * 2.0 ** n)))
        ok = worst <= 1e-12
        details.append(f"ramp decay err {worst:.1e}")
        # exponent log r for r = 2, 3
        for r in (2, 3):
            probes = [circle.sawtooth_density(k) for k in range(1, 6)]
            est = circle.lambda_classical(circle.CircleDensity.uniform(), probes, r)
            rel = abs(est.exponent - math.log(r)) / math.log(r)
            ok &= rel <= 0.02
            details.append(f"r={r}: {est.exponent:.5f}/{math.log(r):.5f} ({100 * rel:.2f}%)")
        # Fourier rule (P^n f)^(k) = f^(k r^n) on piecewise-affine probes,
        # both sides in closed form, the left through pf_power's jump and
        # kink decomposition: an independent check of that closed form
        rng = pdp.make_rng(9)
        worst_f = 0.0
        for _ in range(5):
            n_pieces = int(rng.integers(2, 12))
            widths = rng.uniform(0.5, 1.5, n_pieces)
            edges = np.concatenate([[0.0], np.cumsum(widths) * (circle.TWO_PI / widths.sum())])
            edges[-1] = circle.TWO_PI
            lo, hi = rng.uniform(0.1, 2.0, (2, n_pieces))  # end values of each piece
            s = (hi - lo) / np.diff(edges)
            mass = float(np.sum(0.5 * (lo + hi) * np.diff(edges))) / circle.TWO_PI
            probe = circle.CircleDensity.from_pieces(np.column_stack(
                [edges[:-1], edges[1:], (lo - s * edges[:-1]) / mass, s / mass]))
            for r in (2, 3):
                for k, n in ((1, 1), (1, 2), (2, 2), (1, 3), (3, 3)):
                    lhs, rhs = circle.fourier_check(probe, r, k, n)
                    worst_f = max(worst_f, abs(lhs - rhs))
        ok &= worst_f <= 1e-10
        details.append(f"fourier err {worst_f:.1e}")
        return ok, "; ".join(details)

    return _result(9, "circle-map transfer operator checks", run)


def cli_recipes(directory: str) -> list[list[str]]:
    """Criterion 10's CLI recipes, writing every output into ``directory``."""
    def path(name):
        return os.path.join(directory, name)

    return [
        ["pdp", "--alpha", "0.7", "--n-points", "2000", "--seed", "42",
         "--out", path("cloud.csv"), "--log", path("path.jsonl")],
        ["evolve", "--preset", "tetrahedron", "--kappa", "1", "--alpha", "1",
         "--omega", "0", "--bloch0", "[0,0,1]", "--t-end", "1",
         "--out", path("traj.csv")],
        ["exponent", "--preset", "fluorescence", "--rabi", "1", "--gamma", "2",
         "--out", path("exp.json")],
        ["fractal", "--cloud", path("cloud.csv"), "--out", path("dim.json")],
        ["classical", "--r", "2", "--out", path("classical.json")],
        ["render", "--cloud", path("cloud.csv"), "--projection", "net",
         "--size", "256", "--out", path("cloud.pgm")],
        ["render", "--cloud", path("cloud.csv"), "--log", path("path.jsonl"),
         "--mode", "ppm", "--size", "256", "--out", path("cloud.ppm")],
    ]


def criterion_10() -> CriterionResult:
    """CLI recipes rerun with the same seed are byte-identical."""

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            recipes = cli_recipes(tmp)
            outputs = [arg for recipe in recipes for flag, arg in zip(recipe, recipe[1:])
                       if flag in ("--out", "--log")]

            def run_all_recipes():
                for recipe in recipes:
                    code = cli_main(recipe)
                    if code != 0:
                        raise RuntimeError(f"recipe {recipe[0]} exited {code}")
                return {p: open(p, "rb").read() for p in outputs}

            first = run_all_recipes()
            second = run_all_recipes()
            diffs = [os.path.basename(p) for p in outputs if first[p] != second[p]]
            return not diffs, ("all outputs byte-identical" if not diffs
                               else f"differing files: {diffs}")

    return _result(10, "CLI determinism", run)


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_all(which: Optional[list[int]] = None) -> list[CriterionResult]:
    ids = sorted(_CRITERIA) if which is None else sorted(which)
    unknown = sorted(set(ids) - set(_CRITERIA))
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; known: 1..{len(_CRITERIA)}")
    return [_CRITERIA[i]() for i in ids]
