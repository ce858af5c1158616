"""The probe-family fit shared by the quantum and classical exponents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmix.fitting import FitWindowError, decay_slope, probe_exponent

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


def test_shrunk_window_is_noted_and_fitted():
    # rate 6 falls below the floor at t = 4.99, before the nominal window
    # [5, 10]; the last time above it is 4.75, so the fit runs over [2.375, 4.75]
    est = probe_exponent(TIMES, table(1.0, 6.0), FLOOR)
    assert est.notes == [f"probe 1: distance fell below {FLOOR:g} before the nominal "
                         "window; fit shrunk to [2.375, 4.75]"]
    assert est.per_probe_slopes == pytest.approx([1.0, 6.0])
    assert est.exponent == pytest.approx(1.0) and est.completely_mixing


def oracle_line_fit(x, y):
    """One row's line by an SVD least-squares solve."""
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), y - design @ coef


def oracle_decay_slope(ts, dists, t_lo, t_hi, floor):
    """The per-row fit of one distance row: (slope, rms, note), or FitWindowError."""
    usable = dists > floor
    mask = usable & (ts >= t_lo) & (ts <= t_hi)
    note = None
    if mask.sum() < 3:
        idx = np.nonzero(usable)[0]
        if len(idx) == 0:
            raise FitWindowError("all distances at or below the floor")
        t_u = ts[idx[-1]]
        mask = usable & (ts >= 0.5 * t_u) & (ts <= t_u)
        note = (f"distance fell below {floor:g} before the nominal window; "
                f"fit shrunk to [{0.5 * t_u:.6g}, {t_u:.6g}]")
        if mask.sum() < 3:
            raise FitWindowError("fewer than three usable samples after shrinking")
    slope, resid = oracle_line_fit(ts[mask], -np.log(dists[mask]))
    return slope, float(np.sqrt(np.mean(resid ** 2))), note


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 8),
       n_times=st.integers(4, 60), log_floor=st.floats(-15.0, -2.0),
       lo_frac=st.floats(0.0, 0.9))
def test_table_fit_matches_the_per_row_fit(seed, n_rows, n_times, log_floor, lo_frac):
    """Nominal, shrunk and excluded rows in one table: each row's slope and
    RMS residual agree with a per-row SVD solve, and the notes with the
    per-row windows."""
    rng = np.random.default_rng(seed)
    floor = 10.0 ** log_floor
    ts = np.linspace(0.0, rng.uniform(1.0, 20.0), n_times)
    t_lo, t_hi = lo_frac * ts[-1], ts[-1]
    rates = rng.uniform(0.1, 10.0, (n_rows, 1))
    noise = rng.uniform(0.01, 0.5, (n_rows, 1)) * rng.standard_normal((n_rows, n_times))
    dists = np.exp(-(rng.uniform(-2.0, 2.0, (n_rows, 1)) + rates * ts + noise))
    # from a random sample on, each row sits at or below the floor (a cut at
    # n_times leaves the row whole): late cuts keep the nominal window,
    # early ones shrink it or leave no window
    cut = rng.integers(0, n_times + 1, n_rows)
    dists[np.arange(n_times) >= cut[:, None]] = floor * rng.choice([0.0, 0.5, 1.0])
    slopes, rms, notes = decay_slope(ts, dists, t_lo, t_hi, floor)
    expected_notes = []
    for row, slope, residual in zip(dists, slopes, rms):
        try:
            want_slope, want_rms, note = oracle_decay_slope(ts, row, t_lo, t_hi, floor)
        except FitWindowError:
            assert np.isnan(slope) and np.isnan(residual)
            expected_notes.append(
                f"no fit window holds three distances above the floor {floor:g}")
            continue
        assert slope == pytest.approx(want_slope, rel=1e-12)
        # both solves leave residuals rounded at about 1e-16 of the largest
        # |log d|; a three-sample row can fit far closer than that
        scale = np.abs(np.log(row[row > floor])).max()
        assert residual == pytest.approx(want_rms, rel=1e-12, abs=1e-14 * scale)
        expected_notes.append(note)
    assert notes == (None if all(n is None for n in expected_notes) else expected_notes)
