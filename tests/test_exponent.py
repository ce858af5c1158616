"""Characteristic-exponent estimation and mixing classification."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from qmix import cli, lindblad
from qmix.exponent import (
    DEFAULT_PROBE_SEED,
    MAX_HORIZON,
    MIN_HORIZON,
    MixingReport,
    classify_mixing,
    default_fit_horizon,
    default_horizon,
    default_probe_set,
    lambda_q_analytic,
    lambda_q_numeric,
)
from qmix.lindblad import (
    Fluorescence,
    LindbladModel,
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

    def test_sigma_x_rejected(self):
        with pytest.raises(ValueError, match="not completely mixing"):
            lambda_q_analytic(SigmaXConjugation())


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
        assert est.completely_mixing
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
                               t_max=default_fit_horizon(model))
        assert not any("fit shrunk" in note for note in est.notes)
        assert est.max_residual < 0.1
        for slope in est.per_probe_slopes:
            assert min(abs(slope - rate) / rate for rate in (0.5, 0.75)) <= 0.01

    def test_sigma_x_reports_not_mixing(self):
        model = build_model(SigmaXConjugation())
        ref = from_bloch([0.0, 0.0, 0.0])
        est = lambda_q_numeric(model, ref, default_probe_set(ref), t_max=20.0)
        assert not est.completely_mixing
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
        assert est.completely_mixing
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

    def test_horizon_is_capped_where_the_fit_stays_finite(self):
        # the default fit horizon is 120 decay times: 9e147 at kappa = 1e-146
        # still fits, while 9e301 at kappa = 1e-300 would overflow the squared
        # times of the fit and read every slope as 0; the default horizon
        # names the rate it came from, a given t_max names itself
        probes = default_probe_set(np.zeros(3))
        slow = build_model(Tetrahedron(kappa=1e-146, alpha=1.0))
        est = lambda_q_numeric(slow, np.zeros(3), probes, default_fit_horizon(slow))
        assert est.exponent == pytest.approx(lambda_q_analytic(slow.preset), rel=1e-12)
        slower = build_model(Tetrahedron(kappa=1e-300, alpha=1.0))
        with pytest.raises(ValueError, match=r"default horizon 120 / \(slowest decay rate "
                                             r"1\.33333e-300\) = 9e\+301 exceeds the MAX_HORIZON"):
            default_fit_horizon(slower)
        with pytest.raises(ValueError, match=r"t_max = 9e\+301 exceeds the MAX_HORIZON cap"):
            lambda_q_numeric(slower, np.zeros(3), probes, 9e301)
        with pytest.raises(ValueError, match="MAX_HORIZON"):
            classify_mixing(slower, probes, 2.0 * MAX_HORIZON)

    def test_horizon_is_capped_where_the_squared_times_stay_normal(self):
        # below t_max = 6.3e-162 the fit's largest squared centred time rounds
        # to 0 and its slope divides by it; the default horizon names its rate
        probes = default_probe_set(np.zeros(3))
        model = build_model(Tetrahedron(kappa=1.0, alpha=1.0))
        with pytest.raises(ValueError, match=r"t_max = 1e-160 is below the MIN_HORIZON cap "
                                             r"of 1e-150"):
            lambda_q_numeric(model, np.zeros(3), probes, 1e-160)
        with pytest.raises(ValueError, match="MIN_HORIZON"):
            classify_mixing(model, probes, 0.5 * MIN_HORIZON)
        fast = build_model(Tetrahedron(kappa=1e300, alpha=1.0))
        with pytest.raises(ValueError, match=r"default horizon 120 / \(slowest decay rate "
                                             r"1\.33333e\+300\) = 9e-299 is below the MIN_HORIZON"):
            default_fit_horizon(fast)

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
