"""One exponent protocol for the quantum and classical estimators.

Both estimators measure how fast a distance d(t) between evolving states
(or densities) shrinks.  Each builds a (probes, times) distance table and
hands it to :func:`probe_exponent`, which fits the least-squares slope of
-log d against t over the late half of the horizon for every probe, and
returns the minimum.  The late window discards transients; the minimum
over a finite probe family is a lower-bound protocol for the infimum it
stands in for.  A probe with no fit window above the distance floor is
excluded with a note.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FitWindowError(RuntimeError):
    """Too few usable samples to fit a decay slope."""


@dataclass
class ExponentEstimate:
    """Fitted decay rate with diagnostics.

    ``exponent`` is the minimum of the fitted ``per_probe_slopes`` (nan
    when a probe failed to contract at the probed horizon); an unfitted
    probe's slope is nan.  Residuals are RMS residuals of the per-probe
    linear fits; the largest is reported.
    """

    exponent: float
    fit_window: tuple[float, float]
    per_probe_slopes: list[float]
    max_residual: float
    completely_mixing: bool = True
    notes: list[str] = field(default_factory=list)


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares slope of ``y`` against ``x`` (with an intercept) and the
    fit's residuals."""
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), y - design @ coef


def decay_slope(ts: np.ndarray, dists: np.ndarray, t_lo: float, t_hi: float,
                floor: float) -> tuple[float, float, str | None]:
    """Least-squares slope of -log(dists) vs ts restricted to [t_lo, t_hi].

    Samples at or below ``floor`` are unusable.  If fewer than three usable
    samples remain, the window is shrunk to [t_u/2, t_u] where t_u is the
    last time the distance sat above the floor; a diagnostic note reports
    the shrink.  Raises FitWindowError when no window works.
    """
    ts = np.asarray(ts, dtype=float)
    dists = np.asarray(dists, dtype=float)
    note = None
    usable = dists > floor
    mask = usable & (ts >= t_lo) & (ts <= t_hi)
    if mask.sum() < 3:
        idx = np.nonzero(usable)[0]
        if len(idx) == 0:
            raise FitWindowError(f"all distances at or below the floor {floor:g}")
        t_u = ts[idx[-1]]
        mask = usable & (ts >= 0.5 * t_u) & (ts <= t_u)
        note = (f"distance fell below {floor:g} before the nominal window; "
                f"fit shrunk to [{0.5 * t_u:.6g}, {t_u:.6g}]")
        if mask.sum() < 3:
            raise FitWindowError(
                "fewer than three usable samples even after shrinking the window; "
                "increase sampling density or shorten the horizon")
    slope, resid = line_fit(ts[mask], -np.log(dists[mask]))
    return slope, float(np.sqrt(np.mean(resid ** 2))), note


def probe_exponent(times: np.ndarray, dists: np.ndarray, floor: float,
                   skip: np.ndarray | None = None) -> ExponentEstimate:
    """Minimum decay slope of a ``(probes, times)`` distance table.

    Every row not marked in ``skip`` is fitted over [t_max/2, t_max], t_max
    the last time.  Skipped rows stay unfitted (nan), and any skipped row
    makes the exponent nan and the family not completely mixing.  A fitted
    row with no window of three distances above ``floor`` is excluded
    with a note; FitWindowError is raised when every fitted row is.
    """
    skip = np.zeros(len(dists), dtype=bool) if skip is None else np.asarray(skip)
    t_max = float(times[-1])
    slopes, residuals, notes = [float("nan")] * len(dists), [], []
    for i in np.flatnonzero(~skip):
        try:
            slopes[i], rms, note = decay_slope(times, dists[i], 0.5 * t_max, t_max, floor)
        except FitWindowError:
            notes.append(f"probe {i} excluded: no fit window holds three distances "
                         f"above the floor {floor:g}")
            continue
        residuals.append(rms)
        if note:
            notes.append(f"probe {i}: {note}")
    if not residuals and not skip.all():
        raise FitWindowError(f"every fitted probe was excluded at the floor {floor:g}")
    return ExponentEstimate(
        exponent=float("nan") if skip.any() else float(np.nanmin(slopes)),
        fit_window=(0.5 * t_max, t_max),
        per_probe_slopes=slopes,
        max_residual=max(residuals, default=float("nan")),
        completely_mixing=not skip.any(),
        notes=notes,
    )
