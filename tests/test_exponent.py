"""Characteristic-exponent estimation and mixing classification."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from qmix import cli, lindblad
from qmix.fitting import FitWindowError
from qmix.exponent import (
    DEFAULT_PROBE_SEED,
    MixingReport,
    _slowest_rate,
    classify_mixing,
    default_horizon,
    default_probe_set,
    lambda_q_analytic,
    lambda_q_numeric,
)
from qmix.lindblad import (
    Fluorescence,
    LindbladModel,
    NonUniqueStationaryError,
    SigmaXConjugation,
    Tetrahedron,
    Zeno,
    build_model,
    stationary_state,
)
from qmix.states import _random_bloch, from_bloch, make_rng, random_density, to_bloch


class TestAnalyticValues:
    def test_tetrahedron(self):
        assert lambda_q_analytic(Tetrahedron(kappa=1.0, alpha=0.5)) == pytest.approx(1.0 / 3.0)
        assert lambda_q_analytic(Tetrahedron(kappa=2.0, alpha=0.8)) == pytest.approx(
            (4.0 / 3.0) * 2.0 * 0.64)

    def test_zeno_branches(self):
        assert lambda_q_analytic(Zeno(kappa=4.0, omega=1.0)) == pytest.approx(1.0)
        assert lambda_q_analytic(Zeno(kappa=8.0, omega=1.0)) == pytest.approx(
            1.0 / (2.0 + math.sqrt(3.0)))
        # continuity at the branch point
        below = lambda_q_analytic(Zeno(kappa=4.0 - 1e-9, omega=1.0))
        above = lambda_q_analytic(Zeno(kappa=4.0 + 1e-9, omega=1.0))
        assert below == pytest.approx(above, abs=1e-4)

    def test_fluorescence(self):
        assert lambda_q_analytic(Fluorescence(rabi=3.0, gamma=0.5)) == pytest.approx(0.25)

    @pytest.mark.parametrize("kappa, omega, expected", [
        (1e200, 1.0, 2e-200), (1e300, 1.0, 2e-300), (1e308, 1e308, 2.5e307),
    ], ids=["zeno-1e200", "zeno-1e300", "zeno-omega-1e308"])
    def test_zeno_closed_form_does_not_overflow(self, kappa, omega, expected):
        # a = kappa / omega / 4: omega / (2a) from a = 1e9 on, where a^2 would
        # overflow, and omega a at omega = 1e308, where 4 omega would
        assert lambda_q_analytic(Zeno(kappa=kappa, omega=omega)) == pytest.approx(
            expected, rel=1e-15, abs=0.0)

    def test_sigma_x_rejected(self):
        with pytest.raises(ValueError, match="not completely mixing"):
            lambda_q_analytic(SigmaXConjugation())


# presets whose spectral facts a preset-free twin must reproduce: stiff Zeno
# tables, a precessing tetrahedron, a driven emitter and a singular table
TWIN_PRESETS = [
    Tetrahedron(kappa=1.0, alpha=1.0), Tetrahedron(kappa=1.0, alpha=0.8, omega=1.0),
    Zeno(kappa=3.9, omega=1.0), Zeno(kappa=100.0, omega=1.0), Zeno(kappa=1e8, omega=1.0),
    Zeno(kappa=1e6, omega=1e-3), Fluorescence(rabi=2.0, gamma=1.0),
    Fluorescence(rabi=1.0, gamma=4.0), Fluorescence(rabi=1e5, gamma=1e5),
    Fluorescence(rabi=1e-11, gamma=1e-11), SigmaXConjugation(),
]


class TestSpectrum:
    """The default horizon and the stationary state come from the generator alone."""

    @pytest.mark.parametrize("preset", TWIN_PRESETS, ids=repr)
    def test_a_preset_free_twin_gets_the_same_horizon_and_stationary_state(self, preset):
        model = build_model(preset)
        twin = LindbladModel(model.hamiltonian, model.jump_terms)
        assert default_horizon(twin) == default_horizon(model)
        if isinstance(preset, SigmaXConjugation):
            for m in (model, twin):
                with pytest.raises(NonUniqueStationaryError):
                    stationary_state(m)
            return
        assert default_horizon(model) == pytest.approx(120.0 / lambda_q_analytic(preset),
                                                       rel=1e-11)
        np.testing.assert_array_equal(stationary_state(twin), stationary_state(model))

    @pytest.mark.parametrize("omega", [1e-3, 1.0, 1e3])
    def test_zeno_rate_matches_the_closed_form(self, omega):
        # around critical damping (kappa = 4 omega) and into the quantum Zeno
        # regime, where eigvals(M) loses the slow rate and inv(M) keeps it
        for ratio in (0.01, 0.1, 1.0, 3.9, 4.0000001, 4.1, 8.0, 100.0, 1e3, 1e6, 1e8, 1e9):
            preset = Zeno(kappa=ratio * omega, omega=omega)
            assert _slowest_rate(build_model(preset)) == pytest.approx(
                lambda_q_analytic(preset), rel=1e-12, abs=0.0), preset

    def test_critical_damping_is_resolved_to_the_square_root_of_rounding(self):
        # at kappa = 4 omega the slowest eigenvalue is a defective double: a
        # rounding of the table splits it by about sqrt(eps) = 1.5e-8, into a
        # complex pair (whose mean the trace keeps) or into two reals
        for omega in (1e-3, 0.7, 1.0, 3.3, 1e3, 12345.6):
            preset = Zeno(kappa=4.0 * omega, omega=omega)
            assert _slowest_rate(build_model(preset)) == pytest.approx(
                lambda_q_analytic(preset), rel=1e-7, abs=0.0), preset

    def test_a_critical_double_split_into_two_reals_reads_exactly(self):
        # the eigensolver splits 50 of these doubles into two reals, which
        # read up to 1.5e-8 low (omega = 3.3 gave 3.2999999553) and moved the
        # horizon in its 9th digit; their mean reads the rate to rounding
        for omega in np.logspace(-3, 4, 400).tolist():
            model = build_model(Zeno(kappa=4.0 * omega, omega=omega))
            assert _slowest_rate(model) == pytest.approx(omega, rel=1e-15, abs=0.0), omega
            assert default_horizon(model) == float(f"{120 / omega:.12g}"), omega

    def test_a_close_pair_with_two_eigenvectors_keeps_its_slower_rate(self):
        # a weakly driven emitter's slow rates, gamma / 2 and about gamma / 2 +
        # rabi^2 / gamma, lie within 1e-6 of each other on distinct modes
        for rabi in (1e-3, 1e-4, 1e-6, 1e-8):
            preset = Fluorescence(rabi=rabi, gamma=4.0)
            assert _slowest_rate(build_model(preset)) == 2.0, preset

    def test_precessing_and_driven_rates_match_the_closed_form(self):
        # a complex pair's real part is 1e-16 of its modulus at the top of the
        # range: the eigen solver alone leaves it off by up to 100%
        for frequency in np.logspace(-3, 16, 39):
            for preset in (Tetrahedron(kappa=1.0, alpha=0.8, omega=frequency),
                           Tetrahedron(kappa=2.0, alpha=0.3, omega=frequency),
                           Tetrahedron(kappa=1.0, alpha=1.0, omega=frequency),
                           Fluorescence(rabi=frequency, gamma=1.0),
                           Fluorescence(rabi=frequency, gamma=4.0)):
                assert _slowest_rate(build_model(preset)) == pytest.approx(
                    lambda_q_analytic(preset), rel=1e-12, abs=0.0), preset

    @pytest.mark.parametrize("preset, horizon", [
        (SigmaXConjugation(), 120.0), (Zeno(kappa=0.0, omega=1.0), 120.0),
        (Zeno(kappa=1.0, omega=0.0), 120.0), (Zeno(kappa=1e10, omega=1.0), 1.2e-8),
    ], ids=["sigma-x", "unitary", "zeno-omega-0", "zeno-kappa-1e10"])
    def test_a_singular_table_has_no_rate(self, preset, horizon):
        # the horizon falls back to 120 over the largest jump rate (120 with none)
        model = build_model(preset)
        assert _slowest_rate(model) == 0.0
        assert default_horizon(model) == horizon


# rates and frequencies scaled by 2^k, horizons by 2^-k: exact in binary
# floating point, so every number of a report scales bit for bit
SCALED_PRESETS = [
    (Tetrahedron, dict(kappa=1.0, alpha=0.8, omega=1.0), ("kappa", "omega")),
    (Zeno, dict(kappa=4.0, omega=1.0), ("kappa", "omega")),
    (Zeno, dict(kappa=8.0, omega=1.0), ("kappa", "omega")),
    (Fluorescence, dict(rabi=2.0, gamma=1.0), ("rabi", "gamma")),
]


def _report_at_scale(kind, params, scaled, k):
    model = build_model(kind(**{**params, **{n: math.ldexp(params[n], k) for n in scaled}}))
    ref = stationary_state(model)
    probes = default_probe_set(ref)
    t_max = math.ldexp(default_horizon(build_model(kind(**params))), -k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (ref, lambda_q_numeric(model, ref, probes, t_max),
                classify_mixing(model, probes, t_max))


@pytest.mark.parametrize("k", [100, -100, 300, -300, 600, -600, 1000, -1000])
@pytest.mark.parametrize("kind, params, scaled", SCALED_PRESETS,
                         ids=["tetrahedron", "zeno-4", "zeno-8", "fluorescence"])
def test_a_report_scales_bit_for_bit(kind, params, scaled, k):
    ref0, est0, report0 = _report_at_scale(kind, params, scaled, 0)
    ref, est, report = _report_at_scale(kind, params, scaled, k)
    assert ref.tobytes() == ref0.tobytes()
    assert (np.ldexp(est0.per_probe_slopes, k).tobytes()
            == np.array(est.per_probe_slopes).tobytes())
    assert math.ldexp(est0.exponent, k) == est.exponent
    assert est.fit_window == tuple(math.ldexp(t, -k) for t in est0.fit_window)
    assert est.max_residual == est0.max_residual
    assert report == report0

    def times_blanked(notes):
        return [re.sub(r"fit shrunk to \[[^]]*\]|at t=\S+", "T", n) for n in notes]

    assert times_blanked(est.notes) == times_blanked(est0.notes)


class TestProbeSet:
    def test_contains_axis_states_and_is_seeded(self):
        blochs = default_probe_set(np.zeros(3))
        assert blochs.shape == (18, 3)
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            assert np.min(np.linalg.norm(blochs - axis, axis=1)) < 1e-12
        np.testing.assert_array_equal(blochs, default_probe_set(np.zeros(3)))
        # a density-matrix reference names the same state
        np.testing.assert_array_equal(blochs, default_probe_set(from_bloch([0, 0, 0])))

    def test_random_probes_are_the_state_layer_draws(self):
        rng = make_rng(DEFAULT_PROBE_SEED)
        drawn = [_random_bloch(rng, pure=i < 10) for i in range(12)]
        assert default_probe_set(np.zeros(3))[6:].tobytes() == np.array(drawn).tobytes()

    def test_reference_coincidence_dropped(self):
        blochs = default_probe_set(np.array([1.0, 0.0, 0.0]))
        assert blochs.shape == (17, 3)
        assert np.min(np.linalg.norm(blochs - [1, 0, 0], axis=1)) >= 1e-6


class TestNumericEstimates:
    def test_tetrahedron_within_one_percent(self):
        preset = Tetrahedron(kappa=1.0, alpha=1.0, omega=0.0)
        model = build_model(preset)
        ref = stationary_state(model)
        est = lambda_q_numeric(model, ref, default_probe_set(ref),
                               t_max=default_horizon(model))
        assert est.exponent == pytest.approx(4.0 / 3.0, rel=0.01)

    def test_tetrahedron_slopes_agree_across_probes(self):
        preset = Tetrahedron(kappa=1.0, alpha=0.7, omega=1.0)
        model = build_model(preset)
        ref = stationary_state(model)
        est = lambda_q_numeric(model, ref, default_probe_set(ref),
                               t_max=default_horizon(model))
        slopes = np.array(est.per_probe_slopes)
        assert np.nanmax(slopes) / np.nanmin(slopes) <= 1.01

    def test_fluorescence_within_one_percent(self):
        preset = Fluorescence(rabi=2.0, gamma=1.0)
        model = build_model(preset)
        ref = stationary_state(model)
        est = lambda_q_numeric(model, ref, default_probe_set(ref), t_max=40.0)
        assert est.exponent == pytest.approx(0.5, rel=0.01)

    def test_fluorescence_fit_stays_in_nominal_window(self):
        # The x mode decays at gamma/2; the +-y and +-z probes have no x
        # component and decay with the y-z pair at 3 gamma/4.
        model = build_model(Fluorescence(rabi=2.0, gamma=1.0))
        ref = stationary_state(model)
        est = lambda_q_numeric(model, ref, default_probe_set(ref),
                               t_max=default_horizon(model))
        assert not any("fit shrunk" in note for note in est.notes)
        assert est.max_residual < 0.1
        for slope in est.per_probe_slopes:
            assert min(abs(slope - rate) / rate for rate in (0.5, 0.75)) <= 0.01

    def test_sigma_x_reports_not_mixing(self):
        model = build_model(SigmaXConjugation())
        ref = from_bloch([0.0, 0.0, 0.0])
        est = lambda_q_numeric(model, ref, default_probe_set(ref), t_max=20.0)
        assert math.isnan(est.exponent)
        assert any("not completely mixing at this horizon" in n for n in est.notes)

    def test_probe_without_a_fit_window_is_excluded(self):
        # the z difference decays at kappa/2 = 8 and sinks below the floor by
        # t = 84, four samples in; the x probe decays at the slow rate 0.127
        model = build_model(Zeno(kappa=16.0, omega=1.0))
        ref = from_bloch([0.0, 0.0, 0.0])
        probes = [from_bloch([0.0, 0.0, 1.0]), from_bloch([1.0, 0.0, 0.0])]
        est = lambda_q_numeric(model, ref, probes, t_max=4000.0)
        assert math.isnan(est.per_probe_slopes[0])
        assert est.notes == ["probe 0 excluded: no fit window holds three distances "
                             "above the floor 1e-290"]
        assert not math.isnan(est.exponent)
        assert est.exponent == pytest.approx(lambda_q_analytic(Zeno(kappa=16.0, omega=1.0)),
                                             rel=1e-3)

    def test_reference_state_does_not_matter_when_stationary_exists(self):
        preset = Zeno(kappa=2.0, omega=1.0)
        model = build_model(preset)
        horizon = default_horizon(model)
        ref0 = stationary_state(model)
        est0 = lambda_q_numeric(model, ref0, default_probe_set(ref0), horizon)
        rng = np.random.default_rng(43)
        ref1 = random_density(rng)
        est1 = lambda_q_numeric(model, ref1, default_probe_set(ref1), horizon)
        assert est0.exponent == pytest.approx(est1.exponent, rel=0.02)

    def test_integrator_route_without_preset(self):
        source = build_model(Tetrahedron(kappa=1.0, alpha=1.0, omega=0.0))
        bare = LindbladModel(source.hamiltonian, source.jump_terms)  # no preset attached
        ref = from_bloch([0.0, 0.0, 0.0])
        probes = [from_bloch(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.4, -0.3, 0.2])]
        est = lambda_q_numeric(bare, ref, probes, t_max=15.0, n_samples=61)
        assert est.exponent == pytest.approx(4.0 / 3.0, rel=0.01)

    @pytest.mark.parametrize("t_max", [0.0, -5.0, math.nan, math.inf])
    def test_bad_horizon_rejected(self, t_max):
        model = build_model(Zeno(kappa=1.0, omega=1.0))
        ref = from_bloch([0.0, 0.0, 0.0])
        probes = default_probe_set(ref)
        with pytest.raises(ValueError, match="t_max must be finite and positive"):
            lambda_q_numeric(model, ref, probes, t_max=t_max)
        with pytest.raises(ValueError, match="t_max must be finite and positive"):
            classify_mixing(model, probes, t_max=t_max)

    @pytest.mark.parametrize("kappa", [1e-300, 1e-146, 1e146, 1e300])
    def test_any_finite_default_horizon_is_fitted(self, kappa):
        # default horizons from 9e-299 to 9e301 fit at unit scale, with no
        # numpy warning
        preset = Tetrahedron(kappa=kappa, alpha=1.0)
        model = build_model(preset)
        probes = default_probe_set(np.zeros(3))
        t_max = default_horizon(model)
        assert t_max == float(f"{90.0 / kappa:.12g}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = lambda_q_numeric(model, np.zeros(3), probes, t_max)
            report = classify_mixing(model, probes, t_max)
        assert est.exponent == pytest.approx(lambda_q_analytic(preset), rel=1e-12, abs=0.0)
        assert report == MixingReport(True, True)

    @pytest.mark.parametrize("t_max", [1e-160, 1e-250, 1e-310])
    def test_a_short_horizon_reports_a_stall(self, t_max):
        # the distances have not moved: every probe that starts farther than
        # 1e-2 from the reference stalls, and the exponent is nan
        model = build_model(Tetrahedron(kappa=1.0, alpha=1.0))
        probes = default_probe_set(np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = lambda_q_numeric(model, np.zeros(3), probes, t_max)
            report = classify_mixing(model, probes, t_max)
        stalled = np.flatnonzero(np.linalg.norm(probes, axis=1) > 1e-2).tolist()
        assert math.isnan(est.exponent) and est.fit_window == (0.5 * t_max, t_max)
        assert np.flatnonzero(np.isnan(est.per_probe_slopes)).tolist() == stalled
        assert est.notes == [f"not completely mixing at this horizon: probe(s) {stalled} "
                             f"kept trace distance above 1e-2 at t={t_max:g}"]
        assert report == MixingReport(False, False)

    def test_a_default_horizon_that_overflows_is_refused(self):
        slowest = build_model(Tetrahedron(kappa=1e-320, alpha=1.0))
        with pytest.raises(ValueError, match=r"^the default horizon 120 / \(slowest decay rate "
                                             r"1\.33299e-320\) = inf is not finite; give t_max "
                                             r"\(--t-max\) explicitly$"):
            default_horizon(slowest)

    def test_a_horizon_past_the_distance_floor_fails_in_the_fit(self):
        model = build_model(Tetrahedron(kappa=1.0, alpha=1.0))
        with pytest.raises(FitWindowError, match="every fitted probe was excluded at the "
                                                 "floor 1e-290"):
            lambda_q_numeric(model, np.zeros(3), default_probe_set(np.zeros(3)), 1e200)

    def test_a_horizon_past_the_propagator_range_fails(self):
        model = build_model(Zeno(kappa=0.0, omega=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="propagator exp"):
                lambda_q_numeric(model, np.zeros(3), default_probe_set(np.zeros(3)), 1.7e308)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        # relative entropies are nonnegative: no pair could meet tol <= 0
        model = build_model(Fluorescence(rabi=2.0, gamma=1.0))
        with pytest.raises(ValueError, match="tol must be positive"):
            classify_mixing(model, default_probe_set(np.zeros(3)), 20.0, tol=tol)

    @pytest.mark.parametrize("n_samples", [2, 1, 0])
    def test_too_few_samples_rejected(self, n_samples):
        model = build_model(Zeno(kappa=1.0, omega=1.0))
        ref = from_bloch([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="n_samples must be at least 3"):
            lambda_q_numeric(model, ref, default_probe_set(ref), 20.0, n_samples=n_samples)

    def test_probe_equal_to_reference_rejected(self):
        model = build_model(Zeno(kappa=1.0, omega=1.0))
        ref = from_bloch([0.2, 0.0, 0.0])
        with pytest.raises(ValueError, match="coincides"):
            lambda_q_numeric(model, ref, [from_bloch([0.2, 0.0, 0.0])], t_max=20.0)


class TestZenoCurve:
    def test_exponent_peaks_at_critical_coupling(self):
        omega = 1.0
        values = {}
        for kappa in (1.0, 2.0, 4.0, 8.0, 16.0):
            preset = Zeno(kappa=kappa, omega=omega)
            model = build_model(preset)
            expected = lambda_q_analytic(preset)
            ref = stationary_state(model)
            est = lambda_q_numeric(model, ref, default_probe_set(ref),
                                   t_max=120.0 / expected)
            assert est.exponent == pytest.approx(expected, rel=0.02)
            values[kappa] = est.exponent
        assert values[1.0] < values[2.0] < values[4.0]
        assert values[4.0] > values[8.0] > values[16.0]
        assert values[4.0] == pytest.approx(omega, rel=0.02)


class TestClassification:
    def test_tetrahedron_mixing_and_exact(self):
        model = build_model(Tetrahedron(kappa=1.0, alpha=0.8, omega=0.3))
        report = classify_mixing(model, default_probe_set(from_bloch([0, 0, 0])),
                                 t_max=default_horizon(model))
        assert report.completely_mixing and report.exact

    def test_sigma_x_not_mixing(self):
        model = build_model(SigmaXConjugation())
        report = classify_mixing(model, default_probe_set(from_bloch([0, 0, 0])), t_max=20.0)
        assert not report.completely_mixing and not report.exact

    def test_long_unitary_horizon_is_not_mixing(self):
        # at t = 1e6 the propagator's rounding carries pure probes to
        # |x| = 1 + 3.2e-8, drift that the positivity guard clamps
        model = build_model(Zeno(kappa=0.0, omega=1000.0))
        report = classify_mixing(model, default_probe_set(np.zeros(3)), 1e6)
        assert report == MixingReport(False, False)

    def test_overflowing_propagator_aborts_without_numpy_warnings(self):
        model = build_model(Fluorescence(rabi=1e160, gamma=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            with pytest.raises(lindblad.PositivityError, match="non-finite state norm nan at t=40"):
                classify_mixing(model, default_probe_set(np.zeros(3)), 40.0)

    def test_fluorescence_mixing_not_exact(self):
        model = build_model(Fluorescence(rabi=1.0, gamma=1.0))
        report = classify_mixing(model, default_probe_set(from_bloch([0, 0, 0])), t_max=40.0)
        assert report.completely_mixing and not report.exact


def _same_estimate(a, b) -> bool:
    """Equal field by field, floats bit for bit (repr round-trips; nan equals nan)."""
    return repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))


class TestBlochBoundary:
    """States enter the exponent once, as Bloch vectors or as matrices."""

    @pytest.mark.parametrize("preset", [
        Tetrahedron(kappa=1.0, alpha=0.8, omega=0.5), Zeno(kappa=4.0, omega=1.0),
        Fluorescence(rabi=2.0, gamma=1.0), SigmaXConjugation()])
    def test_matrix_and_bloch_inputs_give_identical_results(self, preset):
        model = build_model(preset)
        rng = np.random.default_rng(5)
        x_ref = rng.normal(size=3) * 0.1
        blochs = default_probe_set(x_ref, seed=3)
        matrices = np.array([from_bloch(b) for b in blochs])
        # a matrix built from a Bloch vector rounds its z component, so the
        # matrices' own Bloch vectors are the inputs that must agree
        x_ref_m, blochs_m = to_bloch(from_bloch(x_ref)), to_bloch(matrices)
        t_max = default_horizon(model)
        from_matrices = lambda_q_numeric(model, from_bloch(x_ref), matrices, t_max)
        from_blochs = lambda_q_numeric(model, x_ref_m, blochs_m, t_max)
        assert _same_estimate(from_matrices, from_blochs)
        assert (classify_mixing(model, matrices, t_max)
                == classify_mixing(model, blochs_m, t_max))

    def test_probe_stack_and_list_of_matrices_agree(self):
        model = build_model(Zeno(kappa=2.0, omega=1.0))
        matrices = [from_bloch(b) for b in default_probe_set(np.zeros(3))]
        listed = lambda_q_numeric(model, np.zeros(3), matrices, 40.0)
        stacked = lambda_q_numeric(model, np.zeros(3), np.array(matrices), 40.0)
        assert _same_estimate(listed, stacked)

    def test_bad_states_are_rejected(self):
        model = build_model(Zeno(kappa=1.0, omega=1.0))
        probes = default_probe_set(np.zeros(3))
        with pytest.raises(ValueError, match="need at least one probe"):
            lambda_q_numeric(model, np.zeros(3), [], 20.0)
        with pytest.raises(ValueError, match="need at least one probe"):
            classify_mixing(model, np.empty((0, 3)), 20.0)
        with pytest.raises(ValueError, match="outside the unit ball"):
            lambda_q_numeric(model, np.array([0.0, 0.0, 1.5]), probes, 20.0)
        with pytest.raises(ValueError, match="expected one state"):
            lambda_q_numeric(model, probes[:2], probes, 20.0)
        with pytest.raises(ValueError, match="unit trace"):
            classify_mixing(model, [np.diag([0.7, 0.7])], 20.0)

    def test_an_exponent_report_builds_the_bloch_generator_once(self, tmp_path, monkeypatch):
        calls = []
        apply = lindblad.generator_apply

        def counted(model, rho):
            calls.append(rho.shape)
            return apply(model, rho)

        monkeypatch.setattr(lindblad, "generator_apply", counted)
        out = tmp_path / "exponent.json"
        assert cli.main(["exponent", "--preset", "fluorescence", "--rabi", "2",
                         "--gamma", "1", "--out", str(out)]) == 0
        # the three Paulis / 2 and I/2 in one batched call, when the model is built
        assert calls == [(4, 2, 2)]

    @pytest.mark.parametrize("argv", [
        ["exponent", "--preset", "fluorescence", "--rabi", "2", "--gamma", "1"],
        ["exponent", "--preset", "zeno", "--omega", "1", "--kappa-sweep", "[1,2,4,8,16]"],
        ["evolve", "--preset", "fluorescence", "--rabi", "2", "--gamma", "1"],
    ], ids=["fluorescence", "zeno-sweep", "evolve"])
    def test_every_exponential_is_of_the_model_table(self, tmp_path, monkeypatch, argv):
        shapes = []
        expm = lindblad._expm

        def recorded(a):
            shapes.append(a.shape)
            return expm(a)

        monkeypatch.setattr(lindblad, "_expm", recorded)
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert shapes
        # the grid step, the horizon and the exact paths: exp(t A) of the 4x4 table
        assert all(shape[-2:] == (4, 4) for shape in shapes)
