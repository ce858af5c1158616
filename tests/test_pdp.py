"""Measurement jump process: maps, probabilities, paths, ensembles."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

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

    @pytest.mark.parametrize("r, alpha, detector, match", [
        ([0, 0, 1], 1.5, 1, "alpha"), ([0, 0, 1], -0.5, 1, "alpha"),
        ([0, 0, 3], 0.5, 1, "unit sphere"), ([0, 0, 0.5], 0.5, 1, "unit sphere"),
        ([0.6, 0.0, 0.8 + 2e-9], 0.5, 1, "unit sphere"), ([math.nan, 0, 1], 0.5, 1, "unit sphere"),
        ([0, 1], 0.5, 1, "3-vector"), ([0, 0, 0, 1], 0.5, 1, "3-vector"),
        ([0, 0.6, 0.8], 0.5, 2.5, "detector must be an integer, got 2.5"),
        ([0, 0.6, 0.8], 0.5, 2.0, "detector must be an integer, got 2.0"),
        ([0, 0.6, 0.8], 0.5, True, "detector must be an integer, got True"),
    ], ids=["alpha-1.5", "alpha-neg", "r-3", "r-half", "r-2e-9-out", "r-nan", "r-2d", "r-4d",
            "detector-2.5", "detector-2.0", "detector-true"])
    def test_arguments_outside_the_domain_are_rejected(self, r, alpha, detector, match):
        # jump_probs([0, 0, 3], 0.5) returned a negative "probability" and
        # jump_probs([0, 0, 1], 1.5) a distribution for an alpha jump_map refuses;
        # jump_map(r, 2.5, 0.5) died in numpy's casting and True ran detector 1
        if not match.startswith("detector"):  # jump_probs takes no detector
            with pytest.raises(ValueError, match=match):
                jump_probs(r, alpha)
        with pytest.raises(ValueError, match=match):
            jump_map(r, detector, alpha)

    def test_a_state_within_the_sphere_tolerance_is_taken_as_given(self):
        # 5e-10 off the sphere, inside box_count's 1e-9: not renormalized
        r = np.array([0.0, 0.6, 0.8 + 5e-10])
        w, _, out = _jump_kernel(r[None, :], 0.5, pick=np.array([2]))
        assert jump_probs(r, 0.5).tolist() == (w[:, 0] / 5.0).tolist()
        assert jump_map(r, 3, 0.5).tolist() == out[0].tolist()


class TestPickRule:
    def test_a_rounded_negative_weight_does_not_end_the_pick_early(self):
        """At alpha = 1 on a unit state 2e-9 off detector 2's antipode its
        weight rounds to -4e-16, so the running sums dip; a threshold between
        the dip and the first sum still picks detector 1, as the sampler's
        loop does."""
        r = np.array([pdp._unit(-TETRA_DIRECTIONS[1] + [2e-9, 0.0, 0.0])])
        w, _, _ = _jump_kernel(r, 1.0)
        assert w[1, 0] < 0.0
        dip = w[0, 0] + w[1, 0]
        assert dip < w[0, 0]
        _, pick, _ = _jump_kernel(r, 1.0, u=np.array([dip / 8.0]))
        assert pick.tolist() == [0]

    def test_full_sharpness_never_falls_through_from_detector_4s_antipode(self):
        """At alpha = 1 the weight of detector 4 is exactly 0 at -n_4; the
        first three weights sum to exactly 4 (1 + alpha^2) = 8 in the kernel's
        and in the sampler's order of addition, so u * 8 < 8 for every uniform
        u < 1 and detector 4 (and its 0 / 0 post-jump map) is never picked."""
        r = -TETRA_DIRECTIONS[3:4]
        largest_u = np.nextafter(1.0, 0.0)
        assert largest_u * 4.0 * 2.0 < 8.0
        w, _, _ = _jump_kernel(r, 1.0)
        assert w[3, 0] == 0.0
        acc = 0.0
        for weight in w[:3, 0].tolist():  # the sampler's running float sum
            acc += weight
        assert acc == np.cumsum(w[:, 0])[2] == 8.0
        _, pick, out = _jump_kernel(r, 1.0, u=np.array([largest_u]))
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
        columns = ("times", "detectors", "states")
        assert all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in columns)
        c = sample_path(omega=0.4, kappa=2.0, alpha=0.7, n_jumps=200, seed=10)
        assert all(getattr(a, k).tobytes() != getattr(c, k).tobytes() for k in columns)

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


def columns(path) -> bytes:
    return path.times.tobytes() + path.detectors.tobytes() + path.states.tobytes()


def scalar_path(*args, **kwargs):
    """``sample_path`` run entirely by the scalar loop."""
    with mock.patch.object(pdp, "_LOCKSTEP_MIN", MAX_JUMPS + 1):
        return sample_path(*args, **kwargs)


class TestLockstep:
    """The lockstep route gives the scalar loop's bytes, whichever way each
    segment and the probe go."""

    @pytest.mark.parametrize("alpha, omega, seed", [(0.75, 0.0, 1), (0.6, 0.7, 2),
                                                    (1.0, -2.5, 3)])
    def test_long_paths_take_the_lockstep_route_and_the_scalar_bytes(self, alpha, omega,
                                                                     seed):
        kwargs = dict(omega=omega, kappa=1.3, alpha=alpha, r0=(0.6, 0.0, 0.8),
                      n_jumps=pdp._LOCKSTEP_MIN, seed=seed, burn_in=100)
        with mock.patch.object(pdp, "_lockstep", wraps=pdp._lockstep) as lockstep:
            path = sample_path(**kwargs)
        assert lockstep.call_count == 1
        assert columns(path) == columns(scalar_path(**kwargs))

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
    @pytest.mark.parametrize("omega", [0.0, 0.7])
    def test_failed_segments_are_rerun_by_the_scalar_loop(self, alpha, omega):
        """A 3-step warm-up leaves guesses short of the path; a quorum of 0
        sends every path through the lockstep, and blocks of 5 draws cut
        every rerun."""
        kwargs = dict(omega=omega, kappa=0.8, alpha=alpha, r0=(0.0, 0.0, 1.0), n_jumps=2000,
                      seed=4, burn_in=7)
        expected = columns(scalar_path(**kwargs))
        with mock.patch.multiple(pdp, _WARM_UP=3, _LOCKSTEP_MIN=4, _PROBE_QUORUM=0,
                                 _DRAW_BLOCK=5), \
                mock.patch.object(pdp, "_scalar_steps", wraps=pdp._scalar_steps) as steps:
            path = sample_path(**kwargs)
        reruns = [call.args[1] for call in steps.call_args_list]  # their first steps
        assert reruns and 0 not in reruns
        assert columns(path) == expected

    @pytest.mark.parametrize("alpha", [0.75, 1.0])
    def test_a_numpy_trig_that_differs_from_libm_moves_no_byte(self, alpha):
        """Owned steps take math.cos and math.sin, as the scalar loop does,
        and guesses numpy's.  With math's nudged by an ulp, as on a host
        whose numpy and libm disagree, guesses miss more often and the bytes
        stay the scalar loop's."""
        cos, sin = math.cos, math.sin
        kwargs = dict(omega=0.7, kappa=1.0, alpha=alpha, r0=(0.6, 0.0, 0.8),
                      n_jumps=pdp._LOCKSTEP_MIN, seed=6)
        with mock.patch("math.cos", lambda a: cos(a) * (1.0 + 2.0 ** -52)), \
                mock.patch("math.sin", lambda a: sin(a) * (1.0 - 2.0 ** -52)), \
                mock.patch.object(pdp, "_lockstep", wraps=pdp._lockstep) as lockstep:
            path = sample_path(**kwargs)
            expected = columns(scalar_path(**kwargs))
        assert lockstep.call_count == 1
        assert columns(path) == expected

    def test_a_declining_probe_leaves_the_path_to_the_scalar_loop(self):
        """At alpha = 0.3 r0 and -r0 stay apart for 64 steps; an unreachable
        quorum declines at alpha = 0.9 too."""
        for alpha, quorum in [(0.3, pdp._PROBE_QUORUM), (0.9, pdp._PROBE_PLACES + 1)]:
            kwargs = dict(omega=0.7, kappa=1.0, alpha=alpha, r0=(0.0, 0.6, 0.8),
                          n_jumps=pdp._LOCKSTEP_MIN, seed=5)
            with mock.patch.object(pdp, "_PROBE_QUORUM", quorum), \
                    mock.patch.object(pdp, "_coalesces", wraps=pdp._coalesces) as probe, \
                    mock.patch.object(pdp, "_lockstep") as lockstep:
                path = sample_path(**kwargs)
            assert probe.call_count == 1 and lockstep.call_count == 0
            assert columns(path) == columns(scalar_path(**kwargs))

    def test_full_sharpness_from_detector_4s_antipode_through_the_lockstep(self):
        """From -n_4 at alpha = 1, the lockstep's first step never picks
        detector 4 either, and every segment guess starts there too."""
        r0 = -TETRA_DIRECTIONS[3]
        for seed in range(20):
            kwargs = dict(omega=0.0, kappa=1.0, alpha=1.0, r0=r0, n_jumps=200, seed=seed)
            with mock.patch.object(pdp, "_LOCKSTEP_MIN", pdp._WARM_UP + 1), \
                    mock.patch.object(pdp, "_lockstep", wraps=pdp._lockstep) as lockstep, \
                    np.errstate(all="raise"):
                path = sample_path(**kwargs)
            assert lockstep.call_count == 1
            assert path.detectors[0] != 4 and np.isfinite(path.states).all()
            assert columns(path) == columns(scalar_path(**kwargs))


class TestChaosGame:
    @pytest.mark.parametrize("n_points, message", [
        (10.0, r"^n_points must be an integer, got 10\.0$"),
        (True, r"^n_points must be an integer, got True$"),
        (0, r"^n_points must be at least 1$"),
    ], ids=["float", "bool", "zero"])
    def test_a_bad_point_count_is_named(self, n_points, message):
        # it was passed on unchecked, and the error named sample_path's n_jumps
        with pytest.raises(ValueError, match=message):
            chaos_game(0.5, n_points)

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


EEQT_OMEGA_1 = dict(omega=1.0, alpha=0.8, r0=(0.6, 0.0, 0.8), n_paths=100_000, t_end=1.0, seed=7)


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

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_every_path_is_summed_once(self, omega):
        # at alpha = 0 every jump maps r to itself and precession fixes +z, so
        # every path ends at +z: a dropped or doubled path moves the z mean,
        # over several rounds, three chunks and a partial last one
        mean = ensemble_bloch_mean(omega, 1.0, 0.0, (0, 0, 1), 2 * ENSEMBLE_CHUNK + 7, 3.0)
        assert mean.tolist() == [0.0, 0.0, 1.0]

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
        # counts that are not integers died in numpy or Python with a TypeError
        for kwargs, name in [(dict(n_jumps=10.0), "n_jumps"), (dict(n_jumps=True), "n_jumps"),
                             (dict(n_jumps=10, burn_in=2.5), "burn_in")]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                sample_path(0.0, 1.0, 0.5, **kwargs)
        for n_paths in (10.5, True):
            with pytest.raises(ValueError, match=r"^n_paths must be an integer, got "):
                ensemble_bloch_mean(0.0, 1.0, 0.5, [0, 0, 1], n_paths, 1.0)
        assert len(sample_path(0.0, 1.0, 0.5, n_jumps=np.int64(10), burn_in=np.int8(2)).times) == 10
        for seed in (-1, 2 ** 64):  # no wrapping onto another seed's stream
            with pytest.raises(ValueError, match="Philox key"):
                sample_path(0.0, 1.0, 0.5, n_jumps=10, seed=seed)
        assert len(sample_path(0.0, 1.0, 0.5, n_jumps=10, seed=2 ** 64 - 1).times) == 10

    def test_overflowing_waits_and_angles_are_refused_before_the_pool_starts(self):
        """A rate below 64 / DBL_MAX overflows the waits, and omega t_end
        bounds every angle; either is refused in the caller's thread with
        sample_path's words.  Rates just above run without a warning."""
        with mock.patch("concurrent.futures.ThreadPoolExecutor") as pool:
            with pytest.raises(ValueError, match=r"^kappa = 1e-310 is too small: the "
                                                 r"arrival times overflow$"):
                ensemble_bloch_mean(1.0, 1e-310, 0.5, (0, 0, 1), 10, 1.0)
            with pytest.raises(ValueError, match=r"^omega = 1e\+308: a precession angle"):
                ensemble_bloch_mean(1e308, 1.0, 0.5, (0, 0, 1), 10, 2.0)
        assert pool.call_count == 0
        with warnings.catch_warnings():  # the filter, unlike np.errstate, spans threads
            warnings.simplefilter("error")
            mean = ensemble_bloch_mean(1.0, 1e-305, 0.5, (0, 0, 1), 1000, 1.0)
            assert mean.tolist() == [0.0, 0.0, 1.0]  # no path jumps, none precesses away
            assert np.isfinite(ensemble_bloch_mean(1e307, 1.0, 0.5, (0, 0, 1), 1000, 1.0)).all()

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

    @pytest.mark.parametrize("kwargs, expected", [
        (EEQT_OMEGA_1,
         ("0x1.1f8ce02ce1ebfp-3", "0x1.b7f77930cb284p-3", "0x1.5d0856ebd9ec9p-2")),
        (dict(omega=0.5, alpha=0.6, r0=(0.0, 0.0, 1.0), n_paths=50_000, t_end=0.8, seed=11),
         ("0x1.4b1a98d484863p-9", "0x1.48e0c1395e6f9p-13", "0x1.5d4b33277910dp-1")),
        (dict(omega=0.0, alpha=1.0, r0=(0.6, 0.0, 0.8), n_paths=30_001, t_end=1.5, seed=3),
         ("0x1.294272fa00e82p-4", "0x1.e523f39d0bd5ep-10", "0x1.cf81fcb3c003ap-4")),
        (dict(omega=1.0, alpha=0.8, r0=(0.6, 0.0, 0.8), n_paths=100_000, t_end=1.0, seed=42),
         ("0x1.18be8688e0dcep-3", "0x1.b95d5f28543e2p-3", "0x1.5f09ce54ab06ap-2")),
    ], ids=["eeqt-omega-1", "eeqt-omega-0.5", "frozen-full-sharpness-partial-chunk",
            "master-equation-run"])
    def test_means_are_pinned_bit_for_bit(self, kwargs, expected):
        mean = ensemble_bloch_mean(kappa=1.0, **kwargs)
        assert tuple(float(v).hex() for v in mean) == expected

    def test_means_do_not_depend_on_the_blas_kernel(self):
        """The ensemble calls no BLAS: a fresh interpreter on OpenBLAS's
        Sandybridge kernel, which has no FMA, prints the same bits.  (Where
        numpy has no OpenBLAS, or the CPU no such kernel, the variable is
        ignored and the two runs agree trivially.)"""
        mean = [float(v).hex() for v in ensemble_bloch_mean(kappa=1.0, **EEQT_OMEGA_1)]
        code = ("import json; from qmix.pdp import ensemble_bloch_mean; "
                f"print(json.dumps([float(v).hex() for v in "
                f"ensemble_bloch_mean(kappa=1.0, **{EEQT_OMEGA_1!r})]))")
        env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
        src = str(Path(pdp.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert json.loads(out.stdout) == mean
