"""One exponent protocol for the quantum and classical estimators.

Both estimators measure how fast a distance d(t) between evolving states
(or densities) shrinks.  Each builds a (probes, times) distance table and
hands it to :func:`probe_exponent`, which fits the least-squares slope of
-log d against t over the late half of the horizon for every probe, and
returns the minimum.  The late window discards transients; the minimum
over a finite probe family is a lower-bound protocol for the infimum it
stands in for.  A probe with no fit window above the distance floor is
excluded with a note.

The whole table is fitted at once: each row's fit window is a 0/1 mask
(:func:`decay_slope`), and :func:`line_fit` solves every masked row's
line in closed form, so a table costs a few array reductions however
many probes it holds.
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


def line_fit(x: np.ndarray, y: np.ndarray,
             mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope of ``y`` against ``x`` (with an intercept) along
    the last axis, and the fit's residuals.

    Every row of ``y`` gets its own line; the slopes have shape
    ``y.shape[:-1]`` (a scalar for one row).  ``mask`` (0/1, the shape of
    ``y``) selects each row's samples: the others must be finite, are
    ignored, and get residual 0.  The fit is the closed form on centred
    data, slope = sum(w dx dy) / sum(w dx^2) with dx, dy measured from the
    row's weighted means, which agrees with an SVD least-squares solve to
    rounding on the windows the estimators fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones(y.shape) if mask is None else np.asarray(mask, dtype=float)
    n = w.sum(axis=-1, keepdims=True)
    dx = x - (w * x).sum(axis=-1, keepdims=True) / n
    dy = y - (w * y).sum(axis=-1, keepdims=True) / n
    slope = (w * dx * dy).sum(axis=-1) / (w * dx * dx).sum(axis=-1)
    return slope, w * (dy - slope[..., None] * dx)


def decay_slope(ts: np.ndarray, dists: np.ndarray, t_lo: float, t_hi: float,
                floor: float) -> tuple[np.ndarray, np.ndarray, list[str | None] | None]:
    """Least-squares slopes of -log(dists) vs ts, one per row of a (P, n) table.

    Each row is fitted over its samples in [t_lo, t_hi]; samples at or
    below ``floor`` are unusable.  A row with fewer than three usable
    samples there is fitted over [t_u/2, t_u] instead, t_u the last time
    its distance sat above the floor, and a row with fewer than three
    there too is excluded.  The windows are row masks, and every row is
    fitted in one :func:`line_fit` call.

    Returns (slopes, rms, notes): the slopes and the RMS residuals, shape
    (P,) and nan for an excluded row, and ``None`` when every row was fitted
    over the nominal window, else one entry per row: ``None`` for a
    nominal fit, the shrunk window, or why the row was excluded.
    """
    ts = np.asarray(ts, dtype=float)
    dists = np.asarray(dists, dtype=float)
    usable = dists > floor
    mask = usable & (ts >= t_lo) & (ts <= t_hi)
    short = mask.sum(axis=1) < 3
    excluded, notes = short, None
    if short.any():
        # the last time each row sat above the floor (a row with no usable
        # sample gets an empty window below, whatever t_u reads)
        t_u = ts[len(ts) - 1 - np.argmax(usable[:, ::-1], axis=1)]
        mask[short] = (usable & (ts >= 0.5 * t_u[:, None]) & (ts <= t_u[:, None]))[short]
        excluded = mask.sum(axis=1) < 3
        notes = [None if not s else
                 f"no fit window holds three distances above the floor {floor:g}" if e else
                 f"distance fell below {floor:g} before the nominal window; "
                 f"fit shrunk to [{0.5 * t:.6g}, {t:.6g}]"
                 for s, e, t in zip(short, excluded, t_u)]
    slopes = np.full(len(dists), np.nan)
    rms = np.full(len(dists), np.nan)
    fit = ~excluded
    window = mask[fit]
    slopes[fit], resid = line_fit(ts, -np.log(np.where(window, dists[fit], 1.0)), window)
    rms[fit] = np.sqrt((resid ** 2).sum(axis=1) / window.sum(axis=1))
    return slopes, rms, notes


def probe_exponent(times: np.ndarray, dists: np.ndarray, floor: float,
                   skip: np.ndarray | None = None) -> ExponentEstimate:
    """Minimum decay slope of a ``(probes, times)`` distance table.

    Every row not marked in ``skip`` is fitted over [t_max/2, t_max], t_max
    the last time, in one :func:`decay_slope` call.  Skipped rows stay
    unfitted (nan), and any skipped row makes the exponent nan and the
    family not completely mixing.  A fitted row with no window of three
    distances above ``floor`` is excluded with a note; FitWindowError is
    raised when every fitted row is.
    """
    skip = np.zeros(len(dists), dtype=bool) if skip is None else np.asarray(skip)
    t_max = float(times[-1])
    fitted = np.flatnonzero(~skip)
    slopes = np.full(len(dists), np.nan)
    residuals, notes = np.empty(0), []
    if fitted.size:
        slopes[fitted], rms, row_notes = decay_slope(
            times, np.asarray(dists)[fitted], 0.5 * t_max, t_max, floor)
        for i, note in zip(fitted, row_notes or ()):
            if note is not None:
                notes.append(f"probe {i} excluded: {note}" if np.isnan(slopes[i])
                             else f"probe {i}: {note}")
        residuals = rms[~np.isnan(rms)]
        if not residuals.size:
            raise FitWindowError(f"every fitted probe was excluded at the floor {floor:g}")
    return ExponentEstimate(
        exponent=float("nan") if skip.any() else float(np.nanmin(slopes)),
        fit_window=(0.5 * t_max, t_max),
        per_probe_slopes=slopes.tolist(),
        max_residual=float(residuals.max()) if residuals.size else float("nan"),
        completely_mixing=not skip.any(),
        notes=notes,
    )
