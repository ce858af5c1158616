"""Master-equation presets, integrator, closed forms, stationary states."""

import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qmix.lindblad import (
    _BLOCK_STEPS,
    MAX_STEPS,
    TETRA_DIRECTIONS,
    Fluorescence,
    LindbladModel,
    NonUniqueStationaryError,
    PositivityError,
    SigmaXConjugation,
    Tetrahedron,
    Zeno,
    _affine_propagator,
    _positivity_guard,
    analytic_bloch_paths,
    bloch_generator,
    build_model,
    default_timestep,
    evolve,
    generator_apply,
    stationary_state,
)
from qmix.states import (
    IDENTITY2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    from_bloch,
    random_density,
    relative_entropy,
    to_bloch,
    trace_norm,
)

ALL_PRESETS = [
    Tetrahedron(kappa=1.0, alpha=0.8, omega=1.0),
    Zeno(kappa=2.0, omega=1.0),
    Fluorescence(rabi=1.5, gamma=1.0),
    SigmaXConjugation(),
]


def analytic_evolve(preset, rho0, t):
    """The exact state of a preset at time t, from its Bloch path."""
    return from_bloch(analytic_bloch_paths(preset, to_bloch(rho0), np.array([t]))[0, 0])


class TestTetrahedronGeometry:
    def test_coupling_operators_are_the_pauli_sum(self):
        # (I + alpha n . sigma) / 2 written out, bit for bit, signed zeros too
        for alpha in np.linspace(0.0, 1.0, 31):
            ops = [op for op, _ in build_model(Tetrahedron(1.0, alpha)).jump_terms]
            for n, op in zip(TETRA_DIRECTIONS, ops):
                pauli_sum = n[0] * SIGMA1 + n[1] * SIGMA2 + n[2] * SIGMA3
                assert op.tobytes() == (0.5 * (IDENTITY2 + alpha * pauli_sum)).tobytes()

    def test_printed_directions(self):
        np.testing.assert_allclose(TETRA_DIRECTIONS[0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            TETRA_DIRECTIONS[1], [-1.0 / 3.0, 0.0, 2.0 * math.sqrt(2.0) / 3.0], atol=1e-15)

    def test_directions_sum_to_zero_and_are_unit(self):
        np.testing.assert_allclose(TETRA_DIRECTIONS.sum(axis=0), np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(TETRA_DIRECTIONS, axis=1),
                                   np.ones(4), atol=1e-15)

    def test_sharp_couplings_are_projectors(self):
        model = build_model(Tetrahedron(kappa=1.0, alpha=1.0))
        for op, rate in model.jump_terms:
            assert rate == 1.0
            np.testing.assert_allclose(op @ op, op, atol=1e-14)

    def test_soft_couplings_not_projectors(self):
        model = build_model(Tetrahedron(kappa=1.0, alpha=0.5))
        op, _ = model.jump_terms[0]
        assert np.max(np.abs(op @ op - op)) > 0.1


class TestModelBuilding:
    def test_zeno_components(self):
        model = build_model(Zeno(kappa=3.0, omega=2.0))
        np.testing.assert_allclose(model.hamiltonian, SIGMA3, atol=1e-15)
        op, rate = model.jump_terms[0]
        np.testing.assert_allclose(op, 0.5 * (IDENTITY2 + SIGMA1), atol=1e-15)
        np.testing.assert_allclose(op @ op, op, atol=1e-15)
        assert rate == 3.0

    def test_fluorescence_components(self):
        model = build_model(Fluorescence(rabi=2.0, gamma=0.5))
        np.testing.assert_allclose(model.hamiltonian, -SIGMA1, atol=1e-15)
        op, rate = model.jump_terms[0]
        np.testing.assert_allclose(op, [[0, 0], [1, 0]], atol=1e-15)
        assert rate == 0.5

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            build_model(Tetrahedron(kappa=1.0, alpha=1.5))
        with pytest.raises(ValueError):
            build_model(Tetrahedron(kappa=-1.0, alpha=0.5))
        with pytest.raises(ValueError):
            build_model(Fluorescence(rabi=1.0, gamma=-0.1))
        with pytest.raises(ValueError):
            LindbladModel(SIGMA1, [(SIGMA1, -1.0)])

    @pytest.mark.parametrize("hamiltonian, op, rate", [
        (np.full((2, 2), math.nan), SIGMA1, 1.0),
        (SIGMA1, SIGMA1, math.nan),
        (SIGMA1, SIGMA1, math.inf),
        (SIGMA1, np.array([[math.inf, 0.0], [0.0, 0.0]]), 1.0),
    ], ids=["hamiltonian-nan", "rate-nan", "rate-inf", "operator-inf"])
    def test_non_finite_model_rejected(self, hamiltonian, op, rate):
        with pytest.raises(ValueError, match="finite"):
            LindbladModel(hamiltonian, [(op, rate)])

    def test_a_generator_table_that_overflows_names_the_rates(self):
        # finite rates whose table overflows fail here, naming the rates,
        # with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            with pytest.raises(ValueError, match=re.escape(
                    "the generator table overflows: jump rates [1.7e+308, 1.7e+308, 1.7e+308, "
                    "1.7e+308], largest hamiltonian entry 0")):
                build_model(Tetrahedron(kappa=1.7e308, alpha=1.0))
            assert np.isfinite(build_model(Tetrahedron(kappa=1e307, alpha=1.0))._generator).all()


class TestGenerator:
    def test_tetrahedron_fixes_center(self):
        model = build_model(Tetrahedron(kappa=2.0, alpha=0.7, omega=1.3))
        out = generator_apply(model, 0.5 * IDENTITY2)
        assert np.max(np.abs(out)) < 1e-14

    def test_sigma_x_conjugation_fixes_x_axis(self):
        model = build_model(SigmaXConjugation())
        rho = from_bloch([0.6, 0.0, 0.0])
        assert np.max(np.abs(generator_apply(model, rho))) < 1e-14

    def test_closed_system_limit_is_commutator(self):
        model = build_model(Zeno(kappa=0.0, omega=2.0))
        rho = from_bloch([0.3, 0.2, -0.4])
        h = model.hamiltonian
        np.testing.assert_allclose(generator_apply(model, rho),
                                   -1j * (h @ rho - rho @ h), atol=1e-14)

    def test_output_traceless_hermitian(self):
        rng = np.random.default_rng(23)
        for preset in ALL_PRESETS:
            model = build_model(preset)
            for _ in range(20):
                out = generator_apply(model, random_density(rng))
                assert abs(np.trace(out)) < 1e-12
                assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_bloch_generator_reproduces_generator(self):
        rng = np.random.default_rng(29)
        for preset in ALL_PRESETS:
            model = build_model(preset)
            m, b = bloch_generator(model)
            for _ in range(10):
                x = rng.normal(size=3)
                x = x / np.linalg.norm(x) * rng.random()
                lhs = to_bloch(generator_apply(model, from_bloch(x)))
                np.testing.assert_allclose(lhs, m @ x + b, atol=1e-12)


class TestEvolve:
    def test_decay_law_at_unit_time(self):
        model = build_model(Tetrahedron(kappa=1.0, alpha=1.0, omega=0.0))
        traj = evolve(model, from_bloch([0.0, 0.0, 1.0]), 1.0)
        dist = trace_norm(from_bloch(traj.blochs[-1]) - 0.5 * IDENTITY2)
        assert dist == pytest.approx(math.exp(-4.0 / 3.0), abs=1e-8)

    def test_bloch_start_is_the_first_row_as_given(self):
        # a round trip through the density matrix would start at
        # z = 0.30000000000000004
        model = build_model(Fluorescence(rabi=1.0, gamma=1.0))
        x0 = [0.1, 0.2, 0.3]
        traj = evolve(model, x0, 1.0, dt=0.1)
        assert traj.blochs[0].tolist() == x0
        via_matrix = evolve(model, from_bloch(x0), 1.0, dt=0.1)
        np.testing.assert_allclose(via_matrix.blochs, traj.blochs, rtol=0, atol=1e-15)
        assert evolve(model, np.array(x0), 0.0).blochs.tolist() == [x0]

    @pytest.mark.parametrize("state", [np.zeros((2, 3)), np.array([0.5 * IDENTITY2] * 2),
                                       [0.0, 0.0, 1.0 + 1e-6], np.zeros(2)],
                             ids=["two-vectors", "two-matrices", "outside-ball", "two-entries"])
    def test_takes_exactly_one_state(self, state):
        with pytest.raises(ValueError):
            evolve(build_model(Zeno(kappa=1.0, omega=1.0)), state, 1.0)

    def test_zero_horizon_returns_initial_state(self):
        model = build_model(Fluorescence(rabi=1.0, gamma=1.0))
        rho0 = from_bloch([0.1, 0.2, 0.3])
        traj = evolve(model, rho0, 0.0)
        assert len(traj.times) == 1
        np.testing.assert_allclose(from_bloch(traj.blochs[-1]), rho0, atol=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(31)
        for preset in ALL_PRESETS:
            model = build_model(preset)
            traj = evolve(model, random_density(rng), 2.0, dt=2e-3)
            for rho in from_bloch(traj.blochs[:: len(traj.times) // 10]):
                assert abs(np.trace(rho).real - 1.0) <= 1e-10
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10

    def test_matches_closed_form_zeno(self):
        preset = Zeno(kappa=2.0, omega=1.0)
        model = build_model(preset)
        rho0 = from_bloch([0.0, 1.0, 0.0])
        traj = evolve(model, rho0, 5.0)
        err = trace_norm(from_bloch(traj.blochs[-1]) - analytic_evolve(preset, rho0, 5.0))
        assert err <= 1e-8

    def test_matches_closed_form_all_presets(self):
        rng = np.random.default_rng(37)
        for preset in ALL_PRESETS:
            model = build_model(preset)
            rho0 = random_density(rng)
            traj = evolve(model, rho0, 1.5)
            for idx in range(0, len(traj.times), len(traj.times) // 8):
                ref = analytic_evolve(preset, rho0, traj.times[idx])
                assert trace_norm(from_bloch(traj.blochs[idx]) - ref) <= 1e-8

    def test_invalid_inputs(self):
        model = build_model(SigmaXConjugation())
        with pytest.raises(ValueError):
            evolve(model, from_bloch([0, 0, 0]), -1.0)
        with pytest.raises(ValueError):
            evolve(model, from_bloch([0, 0, 0]), 1.0, dt=0.0)

    def test_default_timestep_scales_with_rates(self):
        fast = build_model(Zeno(kappa=500.0, omega=1.0))
        assert default_timestep(fast) == pytest.approx(0.01 / 500.0)
        slow = build_model(Zeno(kappa=0.1, omega=0.05))
        assert default_timestep(slow) == pytest.approx(1e-3)

    def test_positivity_guard_clamps_small_drift(self):
        # eigenvalue -5e-10: the Bloch vector overshoots the sphere by 1e-9
        drifted = to_bloch(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
        fixed, lo = _positivity_guard(drifted, 0.0)
        assert lo == pytest.approx(-5e-10, rel=1e-6)
        lo = np.linalg.eigvalsh(from_bloch(fixed))[0]
        assert lo >= -1e-15
        np.testing.assert_allclose(fixed, [0.0, 0.0, -1.0], atol=1e-15)

    def test_positivity_guard_aborts_large_drift(self):
        from qmix.lindblad import PositivityError
        with pytest.raises(PositivityError):
            _positivity_guard(to_bloch(np.diag([1.01, -0.01]).astype(complex)), 0.0)

    def test_positivity_guard_aborts_a_non_finite_row(self):
        rows = np.array([[0.0, 0.0, 0.5], [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]])
        with pytest.raises(PositivityError, match=r"non-finite state norm nan at t=1\b"):
            _positivity_guard(rows, np.array([0.0, 1.0, 2.0]))

    def test_overflowing_propagator_aborts_without_numpy_warnings(self, recwarn):
        # exp(dt A) overflows at rabi = 1e300; the row at t = 0.5 is nan
        model = build_model(Fluorescence(rabi=1e300, gamma=1.0))
        with pytest.raises(PositivityError, match=r"non-finite .* at t=0\.5\b"):
            evolve(model, [0.0, 0.0, 1.0], 1.0, dt=0.5)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_positivity_guard_leaves_the_ball_untouched(self):
        for inside in (np.array([0.6, 0.0, 0.8]), np.array([0.1, -0.2, 0.3])):
            assert _positivity_guard(inside, 0.0)[0] is inside

    def test_step_count_is_capped_before_allocating(self):
        model = build_model(Zeno(kappa=1.0, omega=1.0))
        with pytest.raises(ValueError, match="MAX_STEPS"):
            evolve(model, from_bloch([0, 0, 1]), 1e9)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            evolve(model, from_bloch([0, 0, 1]), 1.0, dt=0.5 / MAX_STEPS)
        with pytest.raises(ValueError, match="finite"):
            evolve(model, from_bloch([0, 0, 1]), math.inf)

    def test_positivity_guard_works_row_by_row(self):
        rows = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 1.0 + 1e-9], [0.6, 0.0, 0.8]])
        fixed, lo = _positivity_guard(rows, np.array([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(fixed[[0, 2]], rows[[0, 2]])
        np.testing.assert_allclose(fixed[1], [0.0, 0.0, 1.0], atol=1e-15)
        assert np.flatnonzero(lo < 0).tolist() == [1]
        rows[2, 2] = 1.01
        rows = np.vstack([rows, [[0.0, 0.0, 1.1]]])
        with pytest.raises(PositivityError, match=r"at t=2 "):
            _positivity_guard(rows, np.array([0.0, 1.0, 2.0, 3.0]))

    def test_clamps_are_reported_once_per_call(self, caplog, monkeypatch):
        seen = []

        def spy(x, t):
            fixed, lo = _positivity_guard(x, t)
            seen.extend(zip(np.broadcast_to(t, lo.shape), lo))
            return fixed, lo

        monkeypatch.setattr("qmix.lindblad._positivity_guard", spy)
        # a pure rotation keeps the norm, so the rounding of the step powers
        # pushes many rows across the sphere
        with caplog.at_level(logging.WARNING, logger="qmix.lindblad"):
            evolve(build_model(Zeno(kappa=0.0, omega=2.0)), from_bloch([1, 0, 0]), 20.0)
        [record] = caplog.records
        found = re.fullmatch(r"clamped (\d+) of 20000 steps back to the Bloch sphere: "
                             r"worst positivity drift (\S+), first at t=(\S+)",
                             record.getMessage())
        clamps = [(t, lo) for t, lo in seen if lo < 0]
        assert int(found[1]) == len(clamps) > 0
        assert float(found[2]) == pytest.approx(min(lo for _, lo in clamps), rel=1e-3)
        assert float(found[3]) == pytest.approx(clamps[0][0], rel=1e-6)

    def test_states_are_a_view_of_the_bloch_path(self):
        model = build_model(Fluorescence(rabi=1.0, gamma=1.0))
        traj = evolve(model, from_bloch([0.3, -0.2, 0.5]), 0.5)
        assert traj.blochs.shape == (len(traj.times), 3)
        states = from_bloch(traj.blochs)
        assert states.shape == (len(traj.times), 2, 2)
        for x, rho in zip(traj.blochs[::100], states[::100]):
            np.testing.assert_allclose(to_bloch(rho), x, atol=1e-15)


def sequential_evolve(model, x0, t_end, dt):
    """Oracle: the step propagator exp(dt A) applied once per step, each state
    guarded before the next step."""
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    step_t = _affine_propagator(model, t_end / n_steps).T
    state = np.append(x0, 1.0)
    out = [state[:3].copy()]
    for _ in range(n_steps):
        state = state @ step_t
        state[:3] = _positivity_guard(state[:3], 0.0)[0]
        out.append(state[:3].copy())
    return np.array(out)


@pytest.mark.parametrize("n_steps", [1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1,
                                     2 * _BLOCK_STEPS + 1])
@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: type(p).__name__)
def test_blocked_powers_match_the_sequential_loop(preset, n_steps):
    model = build_model(preset)
    dt = default_timestep(model)
    x0 = np.array([0.6, 0.0, 0.8])  # pure: rounding can push rows past the sphere
    traj = evolve(model, from_bloch(x0), n_steps * dt, dt=dt)
    assert len(traj.times) == n_steps + 1
    np.testing.assert_allclose(traj.blochs, sequential_evolve(model, x0, n_steps * dt, dt),
                               rtol=0.0, atol=1e-13)


def test_long_rotation_stays_in_the_ball():
    preset = Zeno(kappa=0.0, omega=2.0)
    traj = evolve(build_model(preset), from_bloch([1, 0, 0]), 200.0, dt=1e-3)
    assert len(traj.times) == 200_001
    assert np.sqrt(np.einsum("ij,ij->i", traj.blochs, traj.blochs)).max() <= 1.0 + 1e-15
    exact = analytic_bloch_paths(preset, [1.0, 0.0, 0.0], traj.times[::1000])[0]
    assert np.abs(traj.blochs[::1000] - exact).max() <= 1e-8


def tetrahedron_paths(preset, blochs, times):
    """Oracle: the Bloch vector turns at omega about z and shrinks at rate
    (4/3) kappa alpha^2."""
    decay = np.exp(-(4.0 / 3.0) * preset.kappa * preset.alpha ** 2 * times)
    c, s = np.cos(preset.omega * times), np.sin(preset.omega * times)
    x, y, z = (blochs[:, None, k] for k in range(3))
    return np.stack([(x * c - y * s) * decay, (x * s + y * c) * decay, z * decay], axis=-1)


def sigma_x_conjugation_paths(blochs, times):
    """Oracle: the x component is frozen, y and z decay at rate 2."""
    decay = np.exp(-2.0 * times)
    x, y, z = (blochs[:, None, k] for k in range(3))
    return np.stack([x + 0.0 * times, y * decay, z * decay], axis=-1)


class TestAnalyticBlochPaths:
    times = np.linspace(0.0, 60.0, 241)

    @pytest.mark.parametrize("kappa,alpha,omega", [
        (1.0, 1.0, 0.0), (1.0, 0.8, 1.0), (2.0, 0.5, 3.0), (0.3, 0.2, 0.7), (4.0, 1.0, 0.1),
    ])
    def test_tetrahedron_matches_the_explicit_formula(self, kappa, alpha, omega):
        preset = Tetrahedron(kappa=kappa, alpha=alpha, omega=omega)
        blochs = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [-0.3, 0.5, 0.1], [0, 0, 0]])
        got = analytic_bloch_paths(preset, blochs, self.times)
        assert got.shape == (4, len(self.times), 3)
        np.testing.assert_allclose(got, tetrahedron_paths(preset, blochs, self.times),
                                   rtol=0, atol=1e-12)

    def test_sigma_x_conjugation_matches_the_explicit_formula(self):
        blochs = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.1, -0.7, 0.2]])
        got = analytic_bloch_paths(SigmaXConjugation(), blochs, self.times)
        np.testing.assert_allclose(got, sigma_x_conjugation_paths(blochs, self.times),
                                   rtol=0, atol=1e-12)


_rates = st.floats(0.0, 5.0)
_presets = st.one_of(
    st.builds(Tetrahedron, kappa=_rates, alpha=st.floats(0.0, 1.0), omega=_rates),
    st.builds(Zeno, kappa=_rates, omega=_rates),
    st.builds(Fluorescence, rabi=_rates, gamma=_rates),
    st.just(SigmaXConjugation()),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(preset=_presets, t=st.floats(0.0, 60.0),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       radius=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
# a long undamped rotation: scipy's expm left the sphere by 1.3e-12 and 5.6e-12 here
@example(preset=Zeno(kappa=0.0, omega=5.0), t=13.5, direction=[0.0, 1.0, 0.0], radius=1.0)
@example(preset=Zeno(kappa=0.0, omega=5.0), t=54.399, direction=[0.0, 1.0, 0.0], radius=1.0)
def test_affine_propagator_keeps_states_in_the_ball(preset, t, direction, radius):
    v = np.array(direction)
    assume(np.linalg.norm(v) > 1e-3)
    x = radius * v / np.linalg.norm(v)
    prop = _affine_propagator(build_model(preset), t)
    assert np.linalg.norm(prop[:3, :3] @ x + prop[:3, 3]) <= 1.0 + 1e-12


class TestAnalyticEvolve:
    def test_tetrahedron_z_decay(self):
        preset = Tetrahedron(kappa=1.0, alpha=1.0, omega=0.7)
        for t in (0.0, 0.5, 2.0):
            x = to_bloch(analytic_evolve(preset, from_bloch([0, 0, 1]), t))
            np.testing.assert_allclose(x, [0, 0, math.exp(-4.0 * t / 3.0)], atol=1e-12)

    def test_sigma_x_conjugation_limit(self):
        preset = SigmaXConjugation()
        e1 = np.diag([1.0, 0.0]).astype(complex)
        rho = analytic_evolve(preset, e1, 40.0)
        assert trace_norm(rho - 0.5 * IDENTITY2) <= 1e-12

    def test_fluorescence_converges_to_stationary(self):
        preset = Fluorescence(rabi=1.0, gamma=1.0)
        rho_inf = analytic_evolve(preset, np.diag([0.0, 1.0]).astype(complex), 60.0)
        x_stat = stationary_state(build_model(preset))
        assert trace_norm(rho_inf - from_bloch(x_stat)) <= 1e-8

    def test_unsupported_model_rejected(self):
        with pytest.raises(TypeError):
            analytic_evolve("nonsense", from_bloch([0, 0, 0]), 1.0)


class TestStationaryState:
    def test_tetrahedron_and_zeno_center(self):
        for preset in (Tetrahedron(kappa=2.0, alpha=0.6, omega=0.5),
                       Zeno(kappa=1.0, omega=2.0), Zeno(kappa=1e8, omega=1.0)):
            x = stationary_state(build_model(preset))
            assert np.linalg.norm(x) <= 1e-12

    def test_fluorescence_kernel_matches_closed_form(self):
        # oracle: the numeric kernel solve; the closed form below reproduces it.
        # The state is scale-free, and the residual of L(rho) scales with (R, gamma)
        for scale in (1.0, 1e-11, 1e5, 1e100):
            for rabi, gamma in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
                model = build_model(Fluorescence(rabi=scale * rabi, gamma=scale * gamma))
                x = stationary_state(model)
                denom = 2.0 * rabi ** 2 + gamma ** 2
                np.testing.assert_allclose(
                    x, [0.0, 2.0 * rabi * gamma / denom, gamma ** 2 / denom], atol=1e-12)
                assert trace_norm(generator_apply(model, from_bloch(x))) / scale <= 1e-12

    def test_rotated_dephasing_is_singular(self):
        # dephasing along a random axis n under a Hamiltonian along n fixes n:
        # rounding leaves M's zero eigenvalue near 1e-17 of |M|, so inv(M)
        # often succeeds, and the condition number must call it singular
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            axis = n[0] * SIGMA1 + n[1] * SIGMA2 + n[2] * SIGMA3
            model = LindbladModel(rng.uniform(0.1, 10.0) * axis,
                                  [(axis, rng.uniform(0.1, 10.0))])
            with pytest.raises(NonUniqueStationaryError) as err:
                stationary_state(model)
            flat = err.value.fixed_directions
            assert flat.shape == (1, 3)
            assert abs(flat[0] @ n) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_kernel_reports_fixed_axis(self):
        with pytest.raises(NonUniqueStationaryError) as err:
            stationary_state(build_model(SigmaXConjugation()))
        flat = err.value.fixed_directions
        assert flat.shape == (1, 3)
        np.testing.assert_allclose(np.abs(flat[0]), [1.0, 0.0, 0.0], atol=1e-9)


class TestEntropyMonotonicity:
    def test_relative_entropy_never_increases(self):
        rng = np.random.default_rng(41)
        times = np.linspace(0.0, 4.0, 9)
        for preset in ALL_PRESETS:
            for _ in range(5):
                rho, sigma = random_density(rng), random_density(rng)
                values = [
                    relative_entropy(analytic_evolve(preset, rho, t),
                                     analytic_evolve(preset, sigma, t))
                    for t in times
                ]
                for early, late in zip(values, values[1:]):
                    assert late <= early + 1e-9

    def test_counterexample_entropy_limit(self):
        preset = SigmaXConjugation()
        for phi in (math.pi / 16, math.pi / 8, 3 * math.pi / 16):
            e1 = np.diag([1.0, 0.0]).astype(complex)
            e2 = np.array([
                [math.cos(phi) ** 2, math.sin(phi) * math.cos(phi)],
                [math.sin(phi) * math.cos(phi), math.sin(phi) ** 2]])
            h = relative_entropy(analytic_evolve(preset, e1, 20.0),
                                 analytic_evolve(preset, e2, 20.0))
            assert h == pytest.approx(-math.log(math.cos(2 * phi)), abs=1e-6)
