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
Distances are therefore propagated from the initial difference, for
every model, and stay relatively accurate far below the rounding level
of the states themselves.  On the uniform sample grid they read the
model's one grid, the powers of its step propagator P = exp(dt A)
(``lindblad._grid_propagator``): one matrix exponential of the 4x4 table
and about log2(n) batched products.  A difference is (d, 0) on
(x, tr rho), so only the 3x3 block exp(M t_k) of each power moves it.
Against an extended-precision per-time exponential that block agrees to
1.7e-12 of the largest distance from the same exp(M t_k) on the property
test's draws (3.2e-11 at worst over 3000 draws); a distance that nearly
cancels, one axis at 1.3e-36 beside 9.2e-25, is off by 3.1e-9 of itself.
The README reports' exponents stay within 1e-13 of the per-time
exponential route.  Mixing is classified where the fit ends, t_max =
``fit_window[1]``, on the probes propagated by exp(t_max A), all pairs at once.
The slope fit is scale-free (:func:`qmix.fitting.line_fit`), so every finite
positive horizon is fitted; one past the propagator's range raises
FloatingPointError, and one at which every distance sinks below
``DISTANCE_FLOOR`` raises FitWindowError.
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
    _grid_propagator,
    _positivity_guard,
    _propagate,
    _scaled_inverse,
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
# propagated directly by the 3x3 block of the powers of P = exp(dt A), never
# as the difference of two rounded states, so they stay accurate (1.7e-12 of
# the largest distance at the same time against an extended-precision
# exponential in the property tests) down to the denormal range.
DISTANCE_FLOOR = 1e-290

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
        a = preset.kappa / preset.omega / 4.0
        if a <= 1.0:
            return preset.omega * a
        # from a = 1e9 on, sqrt(a^2 - 1) rounds to a, and a^2 would overflow
        return preset.omega / (a + (a if a >= 1e9 else math.sqrt(a * a - 1.0)))
    if isinstance(preset, Fluorescence):
        return 0.5 * preset.gamma
    if isinstance(preset, SigmaXConjugation):
        raise ValueError("sigma1 conjugation is not completely mixing; exponent undefined")
    raise TypeError(f"unknown preset {preset!r}")


def _slowest_rate(model: LindbladModel) -> float:
    """min -Re(lambda) over the eigenvalues lambda = 2^e / mu of the Bloch block
    M (0 if M is singular), mu those of ``lindblad._scaled_inverse``, which keep
    a stiff M's slow modes.  A complex pair's real part, which the eigensolver
    rounds at 1e-16 of its modulus, is (tr M - the real eigenvalue) / 2.  A
    defective double (critical damping) is split by about sqrt(eps): into a
    complex pair, or into two reals whose eigenvectors meet at |cos| >= 1 - 1e-6
    and which are read as their mean when within 1e-6 of the slower.  So a true
    pair that close is read to within half its gap, half the tolerance, unless
    it lies on two distinct modes (as in a weakly driven emitter)."""
    scaled, e, inverse = _scaled_inverse(model)
    if inverse is None:
        return 0.0
    mu, vectors = np.linalg.eig(inverse)  # M's eigenvectors, unit columns
    lam = (1.0 / mu).tolist()  # the eigenvalues of 2^-e M
    real = sorted(((z.real, k) for k, z in enumerate(lam) if not z.imag), reverse=True)
    if len(real) == 1:  # and a complex pair
        return math.ldexp(-max(real[0][0], 0.5 * (float(np.trace(scaled)) - real[0][0])), e)
    (slowest, i), (second, j) = real[:2]
    if slowest - second <= 1e-6 * abs(slowest) and abs(vectors[:, i] @ vectors[:, j]) >= 1 - 1e-6:
        slowest = 0.5 * (slowest + second)
    return math.ldexp(-slowest, e)


def default_horizon(model: LindbladModel) -> float:
    """Horizon 120 / :func:`_slowest_rate`, else over the largest jump rate,
    to 12 significant digits.

    An exponent report's fit and mixing verdict share it.  A degenerate slow
    eigenvalue drags a polynomial-in-t prefactor into the distance, whose log
    biases the fitted slope by roughly 1/t; 120 decay times keep that bias
    near one percent in the worst case.  A subnormal rate whose horizon
    overflows raises ValueError naming the rate.
    """
    scale = 120.0
    rate, kind = _slowest_rate(model), "slowest decay rate"
    if not rate > 0:
        rate, kind = max(model.rates(), default=0.0), "largest jump rate"
    horizon = float(f"{scale / rate if rate > 0 else scale:.12g}")
    if horizon == math.inf:
        raise ValueError(f"the default horizon {scale:g} / ({kind} {rate:.6g}) = "
                         f"{horizon:g} is not finite; give t_max (--t-max) explicitly")
    return horizon


def _check_horizon(t_max: float) -> None:
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")


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
    # (time, probe, component) differences T_t sigma - T_t rho_ref; a difference
    # is (d, 0) on (x, tr rho), so the 3x3 block of each power moves it
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance aborts
        grid = _grid_propagator(model, t_max / (n_samples - 1), n_samples)[:, :3, :3]
        diffs = (probe_b - ref_b) @ np.swapaxes(grid, 1, 2)
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
    """Empirical classification at horizon ``t_max``, a report's ``fit_window[1]``.

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
    x = _positivity_guard(_propagate(model, blochs, t_max), t_max)[0]
    pairs = bloch_relative_entropy(x[:, None], x[None, :])
    np.fill_diagonal(pairs, 0.0)
    if np.max(pairs) >= tol:  # a support violation (inf) counts as not mixing
        return MixingReport(False, False)
    exact = bool(np.all(np.abs(bloch_entropy(x) - MAX_ENTROPY) < tol))
    return MixingReport(True, exact)
