"""Measurement jump process: maps, probabilities, paths, ensembles."""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from qmix.exponent import lambda_q_analytic
from qmix.lindblad import TETRA_DIRECTIONS, Tetrahedron, analytic_bloch_paths, build_model
from qmix import pdp
from qmix.pdp import (
    ENSEMBLE_CHUNK,
    MAX_EXPECTED_JUMPS,
    MAX_JUMPS,
    _jump_kernel,
    chaos_game,
    ensemble_bloch_mean,
    jump_map,
    jump_probs,
    sample_path,
    total_rate,
)
from qmix.states import from_bloch, to_bloch


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestJumpMap:
    def test_identity_at_zero_sharpness(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = random_unit(rng)
            for det in range(1, 5):
                np.testing.assert_allclose(jump_map(r, det, 0.0), r, atol=1e-15)

    def test_projective_limit_lands_on_vertices(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = random_unit(rng)
            for det in range(1, 5):
                if r @ TETRA_DIRECTIONS[det - 1] <= -1 + 1e-6:
                    continue
                np.testing.assert_allclose(jump_map(r, det, 1.0),
                                           TETRA_DIRECTIONS[det - 1], atol=1e-9)

    def test_own_vertex_is_fixed_point(self):
        np.testing.assert_allclose(jump_map(TETRA_DIRECTIONS[0], 1, 0.5),
                                   TETRA_DIRECTIONS[0], atol=1e-14)

    def test_output_stays_on_sphere(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = random_unit(rng)
            out = jump_map(r, int(rng.integers(1, 5)), rng.random())
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-14

    def test_antipode_rejected_at_full_sharpness(self):
        with pytest.raises(ValueError, match="antipode"):
            jump_map(-TETRA_DIRECTIONS[0], 1, 1.0)

    def test_kraus_operators_are_the_oracle(self):
        """Probabilities and post-jump states equal tr(A_i rho A_i^+) / sum_j
        and the Bloch vector of A_i rho A_i^+ / tr, for A_i = (I + a n_i.sigma) / 2."""
        rng = np.random.default_rng(17)
        for alpha in [0.0, 0.3, 0.8, 1.0, *rng.random(4)]:
            kraus = [op for op, _ in build_model(Tetrahedron(kappa=1.0, alpha=alpha)).jump_terms]
            near_antipodes = [-n + 0.1 * random_unit(rng) for n in TETRA_DIRECTIONS]
            for r in [random_unit(rng) for _ in range(20)] + near_antipodes:
                r = r / np.linalg.norm(r)
                rho = from_bloch(r)
                branches = [a @ rho @ a.conj().T for a in kraus]
                weights = np.array([np.trace(b).real for b in branches])
                np.testing.assert_allclose(jump_probs(r, alpha), weights / weights.sum(),
                                           rtol=0.0, atol=1e-12)
                for i, branch in enumerate(branches):
                    np.testing.assert_allclose(jump_map(r, i + 1, alpha),
                                               to_bloch(branch / weights[i]),
                                               rtol=0.0, atol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            jump_map([0, 0, 1], 0, 0.5)
        with pytest.raises(ValueError):
            jump_map([0, 0, 1], 1, 1.5)


class TestJumpProbabilities:
    def test_uniform_at_zero_sharpness(self):
        np.testing.assert_allclose(jump_probs([0, 0, 1], 0.0), np.full(4, 0.25), atol=1e-15)

    def test_normalization_for_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = jump_probs(random_unit(rng), rng.random())
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sharp_probabilities_at_vertex(self):
        p = jump_probs(TETRA_DIRECTIONS[0], 1.0)
        np.testing.assert_allclose(p, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_directions_have_exact_unit_norm_and_antipodes_no_negative_weight(self):
        for i, n in enumerate(TETRA_DIRECTIONS):
            assert n @ n == 1.0
            p = jump_probs(-n, 1.0)
            assert p.min() >= 0.0 and p[i] == 0.0


class TestPickRule:
    def test_a_rounded_negative_weight_does_not_end_the_pick_early(self):
        """At alpha = 1 on a unit state 2e-9 off detector 2's antipode its
        weight rounds to -4e-16, so the running sums dip; a threshold between
        the dip and the first sum still picks detector 1, as the sampler's
        loop does."""
        r = np.array([pdp._unit(-TETRA_DIRECTIONS[1] + [2e-9, 0.0, 0.0])])
        for dots in (None, r @ TETRA_DIRECTIONS.T):
            w, _, _ = _jump_kernel(r, 1.0, dots=dots)
            assert w[0, 1] < 0.0
            dip = w[0, 0] + w[0, 1]
            assert dip < w[0, 0]
            _, pick, _ = _jump_kernel(r, 1.0, u=np.array([dip / 8.0]), dots=dots)
            assert pick.tolist() == [0]

    def test_full_sharpness_never_falls_through_from_detector_4s_antipode(self):
        """At alpha = 1 the weight of detector 4 is exactly 0 at -n_4; the
        first three weights sum to exactly 4 (1 + alpha^2) = 8 in the kernel's
        and in the sampler's order of addition, so u * 8 < 8 for every uniform
        u < 1 and detector 4 (and its 0 / 0 post-jump map) is never picked."""
        r = -TETRA_DIRECTIONS[3:4]
        largest_u = np.nextafter(1.0, 0.0)
        assert largest_u * 4.0 * 2.0 < 8.0
        for dots in (None, r @ TETRA_DIRECTIONS.T):
            w, _, _ = _jump_kernel(r, 1.0, dots=dots)
            assert w[0, 3] == 0.0
            acc = 0.0
            for weight in w[0, :3].tolist():  # the sampler's running float sum
                acc += weight
            assert acc == np.cumsum(w[0])[2] == 8.0
            _, pick, out = _jump_kernel(r, 1.0, u=np.array([largest_u]), dots=dots)
            assert pick.tolist() == [2] and np.isfinite(out).all()
        for seed in range(200):
            path = sample_path(omega=0.0, kappa=1.0, alpha=1.0, r0=r[0], n_jumps=1, seed=seed)
            assert path.detectors[0] != 4


class TestSamplePath:
    def test_mean_waiting_time(self):
        path = sample_path(omega=0.0, kappa=1.0, alpha=0.5, n_jumps=10_000, seed=1)
        gaps = np.diff(np.concatenate([[0.0], path.times]))
        assert gaps.mean() == pytest.approx(1.0 / 1.25, abs=0.03)
        assert np.all(np.diff(path.times) > 0)

    def test_frozen_state_at_zero_sharpness_and_precession(self):
        path = sample_path(omega=0.0, kappa=1.0, alpha=0.0, r0=[0.3, 0.4, 0.5 * math.sqrt(3)],
                           n_jumps=50, seed=2)
        states = path.states
        np.testing.assert_allclose(states, np.tile(states[0], (50, 1)), atol=1e-12)

    def test_projective_paths_live_on_vertices(self):
        path = sample_path(omega=0.0, kappa=1.0, alpha=1.0, n_jumps=500, seed=3)
        states = path.states
        dist_to_nearest = np.min(
            np.linalg.norm(states[:, None, :] - TETRA_DIRECTIONS[None, :, :], axis=2), axis=1)
        assert dist_to_nearest.max() <= 1e-9

    def test_bit_for_bit_reproducibility(self):
        a = sample_path(omega=0.4, kappa=2.0, alpha=0.7, n_jumps=200, seed=9)
        b = sample_path(omega=0.4, kappa=2.0, alpha=0.7, n_jumps=200, seed=9)
        assert a.records == b.records
        c = sample_path(omega=0.4, kappa=2.0, alpha=0.7, n_jumps=200, seed=10)
        assert a.records != c.records

    def test_total_rate_values(self):
        assert total_rate(2.0, 0.5) == 2.5
        assert total_rate(1.0, 1.0) == 2.0

    @pytest.mark.parametrize("omega", [0.0, 0.7])
    def test_draw_blocks_do_not_change_the_path(self, monkeypatch, omega):
        whole = sample_path(omega=omega, kappa=1.0, alpha=0.8, n_jumps=11, seed=12)
        monkeypatch.setattr(pdp, "_DRAW_BLOCK", 4)  # blocks of 4, 4 and 3 jumps
        blocked = sample_path(omega=omega, kappa=1.0, alpha=0.8, n_jumps=11, seed=12)
        for column in ("times", "detectors", "states"):
            assert getattr(blocked, column).tobytes() == getattr(whole, column).tobytes()

    def test_jump_count_is_capped_before_any_allocation(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_JUMPS"):
            sample_path(0.0, 1.0, 0.5, n_jumps=MAX_JUMPS + 1)
        with pytest.raises(ValueError, match="MAX_JUMPS"):
            sample_path(0.0, 1.0, 0.5, n_jumps=MAX_JUMPS, burn_in=1)
        with pytest.raises(ValueError, match="MAX_JUMPS"):
            chaos_game(0.5, MAX_JUMPS, burn_in=1)
        assert time.perf_counter() - start < 1.0


class TestChaosGame:
    def test_degenerate_at_zero_sharpness(self):
        pts = chaos_game(0.0, 100, seed=5, r0=[0.0, 0.6, 0.8])
        np.testing.assert_allclose(pts, np.tile([0.0, 0.6, 0.8], (100, 1)), atol=1e-12)

    def test_projective_limit_gives_vertices(self):
        pts = chaos_game(1.0, 1000, seed=6)
        dist = np.min(np.linalg.norm(pts[:, None, :] - TETRA_DIRECTIONS[None], axis=2), axis=1)
        assert dist.max() <= 1e-9
        # all four vertices visited
        assert len(np.unique(np.argmin(
            np.linalg.norm(pts[:, None, :] - TETRA_DIRECTIONS[None], axis=2), axis=1))) == 4

    def test_norm_drift_stays_tiny_over_a_million_jumps(self):
        pts = chaos_game(0.9, 10 ** 6, seed=7)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-9

    def test_burn_in_shifts_the_sequence(self):
        full = sample_path(0.0, 1.0, 0.7, n_jumps=200, seed=8)
        trimmed = sample_path(0.0, 1.0, 0.7, n_jumps=150, seed=8, burn_in=50)
        for column in ("times", "detectors", "states"):
            assert getattr(trimmed, column).tobytes() == getattr(full, column)[50:].tobytes()
        assert trimmed.states.tobytes() == chaos_game(0.7, 150, seed=8, burn_in=50).tobytes()

    @pytest.mark.parametrize("alpha, seed, r0, burn_in, digest", [
        (0.75, 0, (0, 0, 1), 100,
         "ef36736a5e30b520d499541d6b8094110cc9cb2b68fc8deff7efa3d316c5de76"),
        (0.5, 7, (0.6, 0, 0.8), 0,
         "4618fa16ae04133da435219082ca5bd9e2ba0099465bcf206f1a9fd1b9e388f7"),
        (0.95, 123, (1, 1, 1), 37,
         "8384a901aa3954d502646f0791a5c512003e998c3317fdc4246cff97547be346"),
        (1.0, 5, (0, 0, 1), 10,
         "d1c6b2f3297fac44991c370cfed7214525f84be697668ccd8d8e89d852b9133c"),
        (0.0, 2, (0, 0.6, 0.8), 5,
         "0f4f06e10d58d31e6a4ecc06c3e84100f21f051b6cef1247639610defcdd67ee"),
    ], ids=["a0.75-s0", "a0.5-s7", "a0.95-s123", "a1.0-s5", "a0.0-s2"])
    def test_points_and_labels_are_pinned_bit_for_bit(self, alpha, seed, r0, burn_in,
                                                      digest):
        path = sample_path(0.0, 1.0, alpha, r0, 300, seed, burn_in=burn_in)
        pts, labels = path.states, path.detectors.astype(np.uint8)
        assert pts.dtype == np.float64 and pts.shape == (300, 3)
        assert labels.dtype == np.uint8
        assert hashlib.sha256(pts.tobytes() + labels.tobytes()).hexdigest() == digest

    def test_matches_sample_path_jump_chain(self):
        pts = chaos_game(0.8, 100, seed=12, burn_in=0)
        path = sample_path(omega=0.0, kappa=1.0, alpha=0.8, n_jumps=100, seed=12)
        np.testing.assert_allclose(pts, path.states, atol=1e-15)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function for even ``df``, in closed form:
    e^(-x/2) sum_{k < df/2} (x/2)^k / k!."""
    assert df > 0 and df % 2 == 0
    term = total = 1.0
    for k in range(1, df // 2):
        term *= (x / 2.0) / k
        total += term
    return math.exp(-x / 2.0) * total


class TestDetectorStatistics:
    def test_chi2_survival_function_meets_the_table(self):
        # 26.21696731 is the 99% quantile of chi-square with 12 degrees of freedom
        assert chi2_sf(26.21696731, 12) == pytest.approx(0.01, abs=1e-8)
        assert chi2_sf(0.0, 12) == 1.0
        assert chi2_sf(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_transition_counts_match_the_four_state_chain(self):
        """At full sharpness the jump chain is a 4-state Markov chain with
        transition probabilities p_j(n_i); chi-square at the 1% level."""
        path = sample_path(omega=0.0, kappa=1.0, alpha=1.0, n_jumps=40_000, seed=13)
        det = path.detectors - 1
        counts = np.zeros((4, 4))
        for a, b in zip(det[:-1], det[1:]):
            counts[a, b] += 1
        expected_rows = np.array([jump_probs(TETRA_DIRECTIONS[i], 1.0) for i in range(4)])
        stat = 0.0
        for i in range(4):
            expected = counts[i].sum() * expected_rows[i]
            stat += float(np.sum((counts[i] - expected) ** 2 / expected))
        assert chi2_sf(stat, 12) > 0.01


class TestEnsembleConsistency:
    def test_eeqt_rate_reproduces_the_master_equation(self):
        r0 = np.array([0.6, 0.0, 0.8])
        target = analytic_bloch_paths(Tetrahedron(kappa=1.0, alpha=0.8, omega=1.0),
                                      r0[None, :], np.array([1.0]))[0, 0]
        mean = ensemble_bloch_mean(omega=1.0, kappa=1.0, alpha=0.8, r0=r0,
                                   n_paths=100_000, t_end=1.0, seed=42)
        tol = 3.0 / math.sqrt(100_000)
        assert np.max(np.abs(mean - target)) <= tol

    def test_one_step_mean_decays_at_the_master_equation_exponent(self):
        """Sum_i p_i(r) r_i = c r with c = (1 - a^2/3) / (1 + a^2), with no
        sampling.  The chain's mean therefore decays at rate (1 - c) per jump,
        and at kappa (1 + a^2) (1 - c) per unit time on the one clock: the
        master equation's exponent (4/3) kappa a^2.  At a rate of kappa
        alone it would decay (1 + a^2) times slower."""
        rng = np.random.default_rng(19)
        for _ in range(500):
            r, alpha = random_unit(rng), 0.99 * rng.random()
            step = sum(p * jump_map(r, i + 1, alpha)
                       for i, p in enumerate(jump_probs(r, alpha)))
            c = (1.0 - alpha ** 2 / 3.0) / (1.0 + alpha ** 2)
            np.testing.assert_allclose(step, c * r, rtol=0.0, atol=1e-14)
        for kappa, alpha in [(1.0, 0.1), (1.0, 0.5), (2.5, 0.8), (0.3, 1.0),
                             *zip(4 * rng.random(5), 0.1 + 0.9 * rng.random(5))]:
            c = (1.0 - alpha ** 2 / 3.0) / (1.0 + alpha ** 2)
            exponent = lambda_q_analytic(Tetrahedron(kappa=kappa, alpha=alpha))
            assert total_rate(kappa, alpha) * (1.0 - c) == pytest.approx(exponent, rel=1e-12)

    def test_only_the_eeqt_clock_is_accepted(self):
        with pytest.raises(ValueError, match="rate_convention"):
            ensemble_bloch_mean(0.0, 1.0, 0.5, [0, 0, 1], 10, 1.0, rate_convention="literal")

    def test_thread_count_does_not_change_the_result(self, monkeypatch):
        # five chunks, the last one partial: with 2 or 3 workers they own
        # unequal numbers of chunks, and each reuses one workspace
        kwargs = dict(omega=0.5, kappa=1.0, alpha=0.6, r0=[0.0, 0.0, 1.0],
                      n_paths=4 * ENSEMBLE_CHUNK + 12_345, t_end=0.8, seed=11)
        means = {}
        for threads in (1, 2, 3, 7):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=threads: set(range(n)))
            means[threads] = ensemble_bloch_mean(**kwargs)
        for threads in (2, 3, 7):
            np.testing.assert_array_equal(means[threads], means[1])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ensemble_bloch_mean(0.0, 0.0, 0.5, [0, 0, 1], 10, 1.0)
        for alpha, t_end in [(0.5, math.nan), (0.5, math.inf), (0.5, -1.0), (1.5, 1.0)]:
            with pytest.raises(ValueError):
                ensemble_bloch_mean(0.0, 1.0, alpha, [0, 0, 1], 10, t_end)
        with pytest.raises(ValueError):
            sample_path(0.0, 1.0, 0.5, n_jumps=0)
        with pytest.raises(ValueError, match="burn_in"):
            sample_path(0.0, 1.0, 0.5, n_jumps=10, burn_in=-1)
        for seed in (-1, 2 ** 64):  # no wrapping onto another seed's stream
            with pytest.raises(ValueError, match="Philox key"):
                sample_path(0.0, 1.0, 0.5, n_jumps=10, seed=seed)
        assert len(sample_path(0.0, 1.0, 0.5, n_jumps=10, seed=2 ** 64 - 1).times) == 10

    @pytest.mark.parametrize("r0", [[math.nan, 0.0, 1.0], [0.0, math.inf, 0.0], [0, 0, 0]],
                             ids=["nan", "inf", "zero"])
    def test_start_must_be_a_finite_nonzero_vector(self, r0):
        with pytest.raises(ValueError, match="finite nonzero"):
            sample_path(0.0, 1.0, 0.5, r0=r0, n_jumps=10)
        with pytest.raises(ValueError, match="finite nonzero"):
            ensemble_bloch_mean(0.0, 1.0, 0.5, r0, 10, 1.0)

    def test_expected_jump_count_is_capped_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_EXPECTED_JUMPS"):
            ensemble_bloch_mean(0.0, 1.0, 0.5, [0, 0, 1], 10, 1e9)
        # the clock runs at kappa (1 + alpha^2), twice kappa at alpha = 1
        t_end = 0.75 * MAX_EXPECTED_JUMPS
        with pytest.raises(ValueError, match="MAX_EXPECTED_JUMPS"):
            ensemble_bloch_mean(0.0, 1.0, 1.0, [0, 0, 1], 10, t_end)
        assert time.perf_counter() - start < 1.0

    # every case runs the one clock; the "literal-" ids name the rate of
    # kappa alone that those two cases ran on before it was retired
    @pytest.mark.parametrize("kwargs, expected", [
        (dict(omega=1.0, alpha=0.8, r0=(0.6, 0.0, 0.8), n_paths=100_000, t_end=1.0, seed=7),
         ("0x1.1f8ce02ce1d29p-3", "0x1.b7f77930cb236p-3", "0x1.5d0856ebd9fd7p-2")),
        (dict(omega=0.5, alpha=0.6, r0=(0.0, 0.0, 1.0), n_paths=50_000, t_end=0.8, seed=11),
         ("0x1.4b1a98d484855p-9", "0x1.48e0c1395e657p-13", "0x1.5d4b332778e7cp-1")),
        (dict(omega=0.0, alpha=1.0, r0=(0.6, 0.0, 0.8), n_paths=30_001, t_end=1.5, seed=3),
         ("0x1.294272fa00f61p-4", "0x1.e523f39d0bd60p-10", "0x1.cf81fcb3bfd9ap-4")),
        (dict(omega=1.0, alpha=0.8, r0=(0.6, 0.0, 0.8), n_paths=100_000, t_end=1.0, seed=42),
         ("0x1.18be8688e0c67p-3", "0x1.b95d5f2854368p-3", "0x1.5f09ce54ab177p-2")),
    ], ids=["eeqt-omega-1", "eeqt-omega-0.5", "literal-frozen-partial-chunk",
            "literal-omega-1"])
    def test_means_are_pinned_bit_for_bit(self, kwargs, expected):
        mean = ensemble_bloch_mean(kappa=1.0, **kwargs)
        assert tuple(float(v).hex() for v in mean) == expected
