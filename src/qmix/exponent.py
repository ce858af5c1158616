"""Characteristic exponent of dissipative qubit models.

The exponent of a completely mixing semigroup T_t is

    lambda_q(rho) = inf over sigma != rho of lim_t -(1/t) log || T_t rho - T_t sigma ||_1

Closed forms exist for the three mixing presets.  The numeric estimator
builds a (probes, times) table of trace distances and runs the protocol
it shares with the classical estimator (:mod:`qmix.fitting`): the slope
of -log distance over a late time window, minimum over the probe family.
The probe family stands in for the
infimum domain and is a declared protocol, not a theorem: six Bloch-axis
pure states, ten seeded-random pure states and two seeded-random mixed
states.  Axis states expose anisotropic decay that random probes can
miss.

States are Bloch vectors throughout, whose Euclidean distance is the
trace distance: the probe family is a (P, 3) array, and states enter
through :func:`qmix.states.as_bloch`, which also takes density matrices.

Every qubit semigroup is affine in Bloch coordinates, d x/dt = M x + b,
so the difference of two evolved states obeys d/dt (x - y) = M (x - y).
Distances are therefore propagated by exp(M t) applied to the initial
difference, for every model, and stay relatively accurate far below the
rounding level of the states themselves.  On the uniform sample grid
exp(M t_k) is the k-th power of exp(M dt): one matrix exponential and
about log2(n) batched products (``lindblad._grid_propagator``).  Against
an extended-precision per-time exponential those powers agree to 1.7e-12
of the largest distance from the same exp(M t_k) on the property test's
draws (3.2e-11 at worst over 3000 draws); a distance that nearly cancels,
one axis at 1.3e-36 beside 9.2e-25, is off by 3.1e-9 of itself.  The
README reports' exponents stay within 1e-13 of the per-time exponential
route.  Mixing is
classified at the horizon on the propagated Bloch vectors, all ordered
pairs in one closed-form call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import ExponentEstimate, probe_exponent
from .lindblad import (
    Fluorescence,
    LindbladModel,
    Preset,
    SigmaXConjugation,
    Tetrahedron,
    Zeno,
    _affine_propagator,
    _grid_propagator,
    _positivity_guard,
    bloch_generator,
    evolve,  # noqa: F401  qmix.exponent.evolve stays importable (bench/test_bench.py)
)
from .states import (
    MAX_ENTROPY,
    _one_bloch,
    _random_bloch,
    as_bloch,
    bloch_distance,
    bloch_entropy,
    bloch_relative_entropy,
    make_rng,
)

DEFAULT_PROBE_SEED = 7
# Trace distances at or below the floor cannot enter a fit.  Differences are
# propagated by powers of exp(M dt) directly, never as the difference of two
# rounded states, so they stay accurate (1.7e-12 of the largest distance at
# the same time against an extended-precision exponential in the property
# tests) down to the denormal range.
DISTANCE_FLOOR = 1e-290
# Longest horizon t_max.  The slope fit squares its window's centred times:
# the 81 samples of (1e150)^2 stay finite, while from t_max = 5e154 their sum
# overflows and the slopes are lost.
MAX_HORIZON = 1e150

_AXES = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])


def default_probe_set(rho_ref, seed: int = DEFAULT_PROBE_SEED) -> np.ndarray:
    """Probe states as Bloch vectors, shape (P, 3): the six Bloch axes, then
    ten pure and two mixed states drawn by :func:`qmix.states._random_bloch`
    from the Philox stream of ``seed``.

    Probes within trace distance 1e-6 of ``rho_ref``, a Bloch vector or a
    density matrix, are dropped so none coincides with it.
    """
    ref = _one_bloch(rho_ref)
    rng = make_rng(seed)
    drawn = [_random_bloch(rng, pure=True) for _ in range(10)]
    drawn += [_random_bloch(rng) for _ in range(2)]
    blochs = np.concatenate([_AXES, drawn])
    return blochs[np.linalg.norm(blochs - ref, axis=1) >= 1e-6]


def lambda_q_analytic(preset: Preset) -> float:
    """Closed-form exponent for the three completely mixing presets.

    Tetrahedron: (4/3) kappa alpha^2.  Zeno with a = kappa/(4 omega):
    omega a on a <= 1, omega / (a + sqrt(a^2 - 1)) beyond.  Fluorescence:
    gamma / 2.  SigmaXConjugation is rejected: the x axis never decays, so
    the exponent is undefined.
    """
    if isinstance(preset, Tetrahedron):
        return (4.0 / 3.0) * preset.kappa * preset.alpha ** 2
    if isinstance(preset, Zeno):
        if preset.omega <= 0:
            raise ValueError("Zeno exponent requires omega > 0")
        a = preset.kappa / (4.0 * preset.omega)
        if a <= 1.0:
            return preset.omega * a
        return preset.omega / (a + math.sqrt(a * a - 1.0))
    if isinstance(preset, Fluorescence):
        return 0.5 * preset.gamma
    if isinstance(preset, SigmaXConjugation):
        raise ValueError("sigma1 conjugation is not completely mixing; exponent undefined")
    raise TypeError(f"unknown preset {preset!r}")


def default_horizon(model: LindbladModel, scale: float = 20.0) -> float:
    """Horizon ``scale`` / (slowest known rate), else over the largest jump rate.

    20 decay times suffice for the mixing classification.  Slope fits
    deserve more: a degenerate slow eigenvalue drags a polynomial-in-t
    prefactor into the distance, whose log biases the fitted slope by
    roughly 1/t, so :func:`default_fit_horizon` stretches to 120 decay
    times (about one percent bias in the worst case).  A horizon past
    ``MAX_HORIZON`` (inf too) raises ValueError naming the rate.
    """
    kind = "slowest decay rate"
    try:
        rate = lambda_q_analytic(model.preset)
    except (ValueError, TypeError):  # no closed form, or no preset
        rate = 0.0
    if not rate > 0:
        rate, kind = max(model.rates(), default=0.0), "largest jump rate"
    if rate > 0 and not scale / rate <= MAX_HORIZON:
        raise ValueError(f"the default horizon {scale:g} / ({kind} {rate:.6g}) = "
                         f"{scale / rate:g} exceeds the MAX_HORIZON cap of {MAX_HORIZON:g}; "
                         "give t_max (--t-max) explicitly")
    return scale / rate if rate > 0 else scale


def default_fit_horizon(model: LindbladModel) -> float:
    return default_horizon(model, scale=120.0)


def _check_horizon(t_max: float) -> None:
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    if t_max > MAX_HORIZON:
        raise ValueError(f"t_max = {t_max:g} exceeds the MAX_HORIZON cap of {MAX_HORIZON:g}")


def _probe_blochs(probes) -> np.ndarray:
    """(P, 3) Bloch array of a nonempty probe family (Bloch vectors or 2x2 matrices)."""
    if len(probes) == 0:
        raise ValueError("need at least one probe")
    return as_bloch(probes).reshape(-1, 3)


def lambda_q_numeric(model: LindbladModel, rho_ref, probes, t_max: float,
                     n_samples: int = 161) -> ExponentEstimate:
    """Estimate the exponent from trace-distance decay against ``rho_ref``.

    ``rho_ref`` is one state and ``probes`` a (P, 3) Bloch array (density
    matrices are accepted too).  For each probe the trace distance
    ||T_t rho_ref - T_t sigma||_1 (equal to the Euclidean norm of the Bloch
    difference) is sampled on a uniform grid, and the table goes to :func:`qmix.fitting.probe_exponent`: -log
    distance is fitted against t over [t_max/2, t_max], and the estimate
    is the minimum per-probe slope, a lower-bound protocol for the infimum
    over all states.

    A probe whose distance has not contracted below 1e-2 by the horizon is
    left unfitted and marks the system "not completely mixing at this
    horizon"; the overall exponent is then nan.  Distances that underflow
    ``DISTANCE_FLOOR`` shrink their probe's window, with a note; a probe
    with no window of three distances above it is excluded, with a note.
    A propagator that overflows before ``t_max`` raises FloatingPointError.
    """
    _check_horizon(t_max)
    if n_samples < 3:
        raise ValueError(f"n_samples must be at least 3, got {n_samples}")
    ref_b = _one_bloch(rho_ref)
    probe_b = _probe_blochs(probes)
    close = np.flatnonzero(np.linalg.norm(probe_b - ref_b, axis=1) < 1e-6)
    if close.size:
        raise ValueError(f"probe {close[0]} coincides with the reference state")
    times = np.linspace(0.0, t_max, n_samples)
    m, _ = bloch_generator(model)
    # (time, probe, component) differences T_t sigma - T_t rho_ref
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance aborts
        diffs = (probe_b - ref_b) @ np.swapaxes(_grid_propagator(m, t_max, n_samples), 1, 2)
        dists = bloch_distance(diffs).T
    if not np.isfinite(dists).all():
        raise FloatingPointError(f"the propagator exp(M t) overflowed before t_max = {t_max:g}")
    stalled = dists[:, -1] > 1e-2
    estimate = probe_exponent(times, dists, DISTANCE_FLOOR, skip=stalled)
    if stalled.any():
        estimate.notes.append(
            "not completely mixing at this horizon: probe(s) "
            f"{np.flatnonzero(stalled).tolist()} kept trace distance above 1e-2 at t={t_max:g}")
    return estimate


@dataclass
class MixingReport:
    completely_mixing: bool
    exact: bool


@np.errstate(over="ignore", invalid="ignore")  # a non-finite probe aborts instead
def classify_mixing(model: LindbladModel, probes, t_max: float,
                    tol: float = 1e-4) -> MixingReport:
    """Empirical mixing/exactness classification at horizon ``t_max``.

    ``probes`` is a (P, 3) Bloch array or a stack of density matrices.
    Completely mixing: every ordered pair of evolved probes has relative
    entropy below ``tol`` at the horizon.  Exact: additionally every
    evolved probe has von Neumann entropy within ``tol`` of log 2.  The
    evolved probes follow ``evolve``'s drift rule (``lindblad._positivity_guard``).
    Relative entropies are nonnegative, so ``tol`` must be positive.
    """
    _check_horizon(t_max)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    blochs = _probe_blochs(probes)
    prop = _affine_propagator(model, t_max)
    x = _positivity_guard(blochs @ prop[:3, :3].T + prop[:3, 3], t_max)[0]
    pairs = bloch_relative_entropy(x[:, None], x[None, :])
    np.fill_diagonal(pairs, 0.0)
    if np.max(pairs) >= tol:  # a support violation (inf) counts as not mixing
        return MixingReport(False, False)
    exact = bool(np.all(np.abs(bloch_entropy(x) - MAX_ENTROPY) < tol))
    return MixingReport(True, exact)
