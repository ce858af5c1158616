"""End-to-end acceptance criteria at their stated tolerances.

Each test drives one criterion from qmix.acceptance and prints its
pass/fail line; the same list backs the ``qmix repro`` subcommand.
"""

import re

import numpy as np

from qmix import acceptance, circle


def _check(result):
    print(f"{'PASS' if result.passed else 'FAIL'}  C{result.cid} "
          f"{result.description} [{result.elapsed:.1f}s] {result.detail}")
    assert result.passed, f"C{result.cid} {result.description}: {result.detail}"


def test_criterion_01_tetrahedron_exponent():
    _check(acceptance.criterion_1())


def test_criterion_02_tetrahedron_decay_law():
    _check(acceptance.criterion_2())


def test_criterion_03_measurement_frequency_curve():
    _check(acceptance.criterion_3())


def test_criterion_04_driven_emitter():
    _check(acceptance.criterion_4())


def test_criterion_05_nonmixing_counterexample():
    _check(acceptance.criterion_5())


def test_criterion_06_pinsker_bound():
    _check(acceptance.criterion_6())


def test_criterion_07_ensemble_consistency():
    _check(acceptance.criterion_7())


def test_criterion_08_attractor_dimensions():
    _check(acceptance.criterion_8())


def test_criterion_09_transfer_operator():
    _check(acceptance.criterion_9())


def test_criterion_09_fails_on_the_pull_back(monkeypatch):
    # f -> f(r x mod 2pi) keeps unit mass and sign, so the tables it makes
    # pass the constructor, but it is not the preimage average.  The ramp and
    # exponent parts see one-piece tables only (the exponent's table is
    # closed form and calls no push-forward); the mutant spares those, so
    # the Fourier part must catch it on its own
    push_forward = circle.pf_power

    def pull_back(f, r, n):
        if len(f.coefs) == 1:
            return push_forward(f, r, n)
        for _ in range(n):
            j = np.repeat(np.arange(r), len(f.coefs))
            u, v = np.tile(f.breaks[:-1], r), np.tile(f.breaks[1:], r)
            c, s = np.tile(f.coefs, (r, 1)).T
            f = circle.CircleDensity.from_pieces(np.column_stack(
                [(u + circle.TWO_PI * j) / r, (v + circle.TWO_PI * j) / r,
                 c - s * circle.TWO_PI * j, r * s]))
        return f

    monkeypatch.setattr(circle, "pf_power", pull_back)
    result = acceptance.criterion_9()
    assert not result.passed
    errors = dict(re.findall(r"(ramp decay|fourier) err ([-+.e0-9]+)", result.detail))
    assert float(errors["ramp decay"]) <= 1e-12 < 1e-10 < float(errors["fourier"])


def test_criterion_10_cli_determinism():
    _check(acceptance.criterion_10())
