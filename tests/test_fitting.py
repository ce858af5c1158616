"""The probe-family fit shared by the quantum and classical exponents."""

import math

import numpy as np
import pytest

from qmix.fitting import FitWindowError, probe_exponent

TIMES = np.linspace(0.0, 10.0, 41)
FLOOR = 1e-13


def table(*rates):
    """(probes, times) distances exp(-rate t), one row per rate."""
    return np.exp(-np.outer(rates, TIMES))


def test_minimum_over_fitted_rows():
    est = probe_exponent(TIMES, table(1.0, 2.0), FLOOR)
    assert est.per_probe_slopes == pytest.approx([1.0, 2.0])
    assert est.exponent == pytest.approx(1.0)
    assert est.fit_window == (5.0, 10.0)
    assert est.completely_mixing and not est.notes


def test_skipped_rows_give_nan_and_no_note():
    est = probe_exponent(TIMES, table(1.0, 2.0), FLOOR, skip=[False, True])
    assert est.per_probe_slopes[0] == pytest.approx(1.0)
    assert math.isnan(est.per_probe_slopes[1])
    assert math.isnan(est.exponent)
    assert not est.completely_mixing
    assert not est.notes


def test_unfittable_row_is_excluded_with_a_note_naming_the_floor():
    # rate 40 falls below the floor at t = 0.75: two samples above it
    est = probe_exponent(TIMES, table(1.0, 40.0), FLOOR)
    assert math.isnan(est.per_probe_slopes[1])
    assert est.exponent == pytest.approx(1.0)
    assert est.completely_mixing
    [note] = est.notes
    assert note.startswith("probe 1") and "excluded" in note and f"{FLOOR:g}" in note


def test_every_fitted_row_failing_raises():
    with pytest.raises(FitWindowError, match="every fitted probe"):
        probe_exponent(TIMES, table(40.0, 50.0), FLOOR)
    with pytest.raises(FitWindowError):
        probe_exponent(TIMES, table(1.0, 40.0), FLOOR, skip=[True, False])


def test_every_row_skipped_gives_nan_without_raising():
    est = probe_exponent(TIMES, table(40.0, 50.0), FLOOR, skip=[True, True])
    assert math.isnan(est.exponent) and math.isnan(est.max_residual)
    assert all(math.isnan(s) for s in est.per_probe_slopes)
    assert not est.completely_mixing and not est.notes
