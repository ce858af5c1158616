"""Circle densities and the r-adic transfer operator."""

import math

import numpy as np
import pytest

from qmix.circle import (
    TWO_PI,
    CircleDensity,
    entropy,
    fourier_check,
    fourier_coefficient,
    grid_points,
    l1_distance,
    lambda_classical,
    linear_ramp_density,
    pf_apply,
    relative_entropy,
    sawtooth_density,
)
from qmix import circle
from qmix.cli import main


def random_affine_density(rng, pieces=6):
    """Strictly positive piecewise-affine density with unit mass."""
    breaks = np.sort(rng.uniform(0.3, TWO_PI - 0.3, size=pieces - 1))
    edges = np.concatenate([[0.0], breaks, [TWO_PI]])
    spec = []
    mass = 0.0
    for u, v in zip(edges[:-1], edges[1:]):
        lo, hi = rng.uniform(0.2, 2.0, size=2)
        s = (hi - lo) / (v - u)
        c = lo - s * u
        spec.append((u, v, c, s))
        mass += (c * (v - u) + 0.5 * s * (v * v - u * u)) / TWO_PI
    rescaled = [(u, v, c / mass, s / mass) for (u, v, c, s) in spec]
    return CircleDensity.from_pieces(rescaled)


def interpolant(values):
    """The continuous piece table through samples of a periodic function at
    the m points of ``grid_points(m)``."""
    m = len(values)
    xs = np.arange(m + 1) * (TWO_PI / m)
    vals = np.append(values, values[0])
    s = np.diff(vals) / np.diff(xs)
    return CircleDensity.from_pieces(np.column_stack([xs[:-1], xs[1:], vals[:-1] - s * xs[:-1], s]))


def sinc2(t):
    """(sin t / t)^2: the factor by which linear interpolation on a grid of
    spacing h scales the Fourier coefficient at k, with t = k h / 2."""
    return (math.sin(t) / t) ** 2


class TestRepresentation:
    def test_uniform_density(self):
        one = CircleDensity.uniform()
        assert one.mass() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(one.evaluate(grid_points(1024)), 1.0, atol=1e-15)

    def test_pieces_must_tile_the_circle(self):
        with pytest.raises(ValueError, match="tile"):
            CircleDensity.from_pieces([(0.0, 3.0, 1.0, 0.0)])

    def test_pieces_are_sorted_and_must_be_contiguous(self):
        halves = [(math.pi, TWO_PI, 0.0, 0.0), (0.0, math.pi, 2.0, 0.0)]
        f = CircleDensity.from_pieces(halves)
        np.testing.assert_array_equal(f.breaks, [0.0, math.pi, TWO_PI])
        np.testing.assert_array_equal(f.coefs, [[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="contiguous"):
            CircleDensity.from_pieces([(0.0, 3.0, 2.0, 0.0), (3.2, TWO_PI, 0.0, 0.0)])
        for bad in ([], [(0.0, TWO_PI, 1.0)]):
            with pytest.raises(ValueError, match="rows tiling"):
                CircleDensity.from_pieces(bad)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CircleDensity.from_pieces([(0.0, TWO_PI, -1.0, 0.0)])

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            CircleDensity.from_pieces([(0.0, TWO_PI, 2.0, 0.0)])

    def test_negative_piece_between_samples_rejected(self):
        # -0.5 on a piece lying between the samples x_1 and x_2 of a
        # 1024-point grid: only the piece table shows it
        h = TWO_PI / 1024
        a, b = 1.2 * h, 1.8 * h
        v = (TWO_PI + 0.5 * (b - a)) / (TWO_PI - (b - a))  # unit mass
        with pytest.raises(ValueError, match="negative"):
            CircleDensity.from_pieces([(0.0, a, v, 0.0), (a, b, -0.5, 0.0),
                                       (b, TWO_PI, v, 0.0)])

    @pytest.mark.parametrize("pieces", [
        [(0.0, TWO_PI, math.nan, 0.0)],
        [(0.0, math.nan, 1.0, 0.0), (math.nan, TWO_PI, 1.0, 0.0)],
        [(math.nan, TWO_PI, 1.0, 0.0)],
        [(0.0, TWO_PI, 1.0, math.inf)],
    ], ids=["nan-value", "nan-break", "nan-first-break", "inf-slope"])
    def test_non_finite_pieces_rejected(self, pieces):
        with pytest.raises(ValueError, match="finite"):
            CircleDensity.from_pieces(pieces)

    def test_affine_densities_hold_no_grid(self, monkeypatch):
        # densities are piece tables only: no iterate of lambda_classical
        # and no push-forward carries samples
        outputs = []

        def recording_pf_apply(f, r):
            g = pf_apply(f, r)
            outputs.append(g)
            return g

        monkeypatch.setattr(circle, "pf_apply", recording_pf_apply)
        probes = [sawtooth_density(k) for k in (1, 2, 3)]
        lambda_classical(CircleDensity.uniform(), probes, 2, n_max=6)
        assert len(outputs) == 4 * 6
        rng = np.random.default_rng(37)
        for r in (2, 3, 5):
            outputs.append(pf_apply(random_affine_density(rng), r))
        assert not any(hasattr(g, "grid") for g in outputs)

    def test_evaluate_matches_grid_sampling(self):
        f = sawtooth_density(2)
        xs = np.array([0.1, 1.0, 4.0, 6.0])
        np.testing.assert_allclose(f.evaluate(xs), 0.5 + xs / (2 * math.pi), atol=1e-12)


class TestTransferOperator:
    def test_uniform_is_fixed_in_both_modes(self):
        one = CircleDensity.uniform()
        out = pf_apply(one, 2)
        np.testing.assert_allclose(out.evaluate(grid_points(1024)), 1.0, atol=1e-12)
        # a uniform table split into unequal pieces stays uniform, at every radix
        split = CircleDensity.from_pieces([(0.0, 1.0, 1.0, 0.0), (1.0, 4.5, 1.0, 0.0),
                                           (4.5, TWO_PI, 1.0, 0.0)])
        for r in (2, 3, 1024):
            np.testing.assert_allclose(pf_apply(split, r).evaluate(grid_points(1024)), 1.0,
                                       atol=1e-12)

    def test_ramp_iterates_have_the_known_closed_form(self):
        # P^n ramp = x / (pi r^n) + (r^n - 1) / r^n, exactly
        f = linear_ramp_density()
        for n in (1, 2, 3):
            f = pf_apply(f, 2)
        assert len(f.coefs) == 1
        c, s = f.coefs[0]
        assert c == pytest.approx(7.0 / 8.0, rel=1e-14)
        assert s == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)

    def test_ramp_distance_to_uniform_halves_each_step(self):
        f = linear_ramp_density()
        one = CircleDensity.uniform()
        for n in range(1, 6):
            f = pf_apply(f, 2)
            assert l1_distance(f, one) == pytest.approx(1.0 / (2.0 * 2.0 ** n), rel=1e-13)

    def test_half_indicator_mixes_in_one_step(self):
        f = CircleDensity.from_pieces([(0.0, math.pi, 2.0, 0.0),
                                       (math.pi, TWO_PI, 0.0, 0.0)])
        out = pf_apply(f, 2)
        assert l1_distance(out, CircleDensity.uniform()) <= 1e-14

    def test_mass_conserved_for_random_densities(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            f = random_affine_density(rng)
            assert pf_apply(f, 2).mass() == pytest.approx(1.0, abs=1e-12)
            assert pf_apply(f, 3).mass() == pytest.approx(1.0, abs=1e-12)
            assert pf_apply(f, 1024).mass() == pytest.approx(1.0, abs=1e-12)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            pf_apply(CircleDensity.uniform(), 1)

    def test_contraction_at_least_geometric_on_probes(self):
        one = CircleDensity.uniform()
        for r in (2, 3):
            for probe in (sawtooth_density(1), sawtooth_density(3)):
                prev = l1_distance(probe, one)
                f = probe
                for _ in range(6):
                    f = pf_apply(f, r)
                    curr = l1_distance(f, one)
                    assert curr <= prev / r + 1e-12
                    prev = curr


class TestDistancesAndEntropy:
    def test_distance_to_self_is_zero(self):
        f = sawtooth_density(2)
        assert l1_distance(f, f) == 0.0

    def test_ramp_distance_to_uniform(self):
        assert l1_distance(linear_ramp_density(),
                           CircleDensity.uniform()) == pytest.approx(0.5, rel=1e-14)

    def test_sawtooth_family_approaches_uniform(self):
        one = CircleDensity.uniform()
        distances = [l1_distance(sawtooth_density(k), one) for k in range(1, 6)]
        assert all(a > b for a, b in zip(distances, distances[1:]))
        # exact value ||f_k - 1||_1 = 1 / (2 k)
        np.testing.assert_allclose(distances, [0.5 / k for k in range(1, 6)], rtol=1e-13)

    def test_entropy_values(self):
        assert entropy(CircleDensity.uniform()) == pytest.approx(0.0, abs=1e-15)
        half = CircleDensity.from_pieces([(0.0, math.pi, 2.0, 0.0),
                                          (math.pi, TWO_PI, 0.0, 0.0)])
        assert entropy(half) == pytest.approx(-math.log(2.0), rel=1e-13)

    def test_entropy_of_ramp_iterates_rises_to_zero(self):
        f = linear_ramp_density()
        values = [entropy(f)]
        for _ in range(8):
            f = pf_apply(f, 2)
            values.append(entropy(f))
        assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))
        assert values[0] < -0.1
        assert abs(values[-1]) < 1e-4

    def test_entropy_of_nearly_flat_sawtooth_matches_its_series(self):
        # H(1 + (x - pi)/(k pi)) = -sum_m 1/(2m (2m-1) (2m+1) k^(2m)); the
        # r-adic ramp iterates are these densities with k = r^n
        for k in (100, 3 ** 6, 2 ** 20, 3 ** 12):
            series = -1.0 / (6 * k ** 2) - 1.0 / (60 * k ** 4) - 1.0 / (210 * k ** 6)
            assert entropy(sawtooth_density(k)) == pytest.approx(series, rel=0, abs=1e-15)

    def test_relative_entropy_against_uniform_is_minus_entropy(self):
        rng = np.random.default_rng(23)
        one = CircleDensity.uniform()
        for _ in range(5):
            f = random_affine_density(rng)
            assert relative_entropy(f, one) == pytest.approx(-entropy(f), abs=1e-10)

    def test_relative_entropy_monotone_under_push_forward(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            f = random_affine_density(rng)
            g = random_affine_density(rng)
            h_before = relative_entropy(f, g)
            h_after = relative_entropy(pf_apply(f, 2), pf_apply(g, 2))
            assert h_after <= h_before + 1e-9

    def test_entropy_convergence_forces_distance_convergence(self):
        # along the push-forward iterates, ||f - g||_1 <= sqrt(2 H(f|g)),
        # so vanishing relative entropy drags the L1 distance to zero
        rng = np.random.default_rng(57)
        for _ in range(3):
            f = random_affine_density(rng)
            g = random_affine_density(rng)
            for n in range(8):
                h = relative_entropy(f, g)
                d = l1_distance(f, g)
                assert d <= math.sqrt(2.0 * h) + 1e-9
                f, g = pf_apply(f, 2), pf_apply(g, 2)
            assert relative_entropy(f, g) < 1e-3
            assert l1_distance(f, g) < 0.05

    def test_support_violation_flags_infinity(self):
        f = CircleDensity.from_pieces([(0.0, math.pi, 2.0, 0.0),
                                       (math.pi, TWO_PI, 0.0, 0.0)])
        g = CircleDensity.from_pieces([(0.0, math.pi, 0.0, 0.0),
                                       (math.pi, TWO_PI, 2.0, 0.0)])
        assert math.isinf(relative_entropy(f, g))
        assert relative_entropy(f, f) == pytest.approx(0.0, abs=1e-12)


class TestClassicalExponent:
    def test_doubling_map_exponent_is_log_two(self):
        probes = [sawtooth_density(k) for k in range(1, 6)]
        est = lambda_classical(CircleDensity.uniform(), probes, 2)
        assert est.exponent == pytest.approx(math.log(2.0), rel=0.02)

    def test_tripling_map_exponent_is_log_three(self):
        probes = [sawtooth_density(k) for k in range(1, 6)]
        est = lambda_classical(CircleDensity.uniform(), probes, 3, n_max=10)
        assert est.exponent == pytest.approx(math.log(3.0), rel=0.02)

    def test_fit_window_needs_three_iterates(self):
        with pytest.raises(ValueError, match="n_max must be at least 4"):
            lambda_classical(CircleDensity.uniform(), [sawtooth_density(1)], 2, n_max=3)
        est = lambda_classical(CircleDensity.uniform(), [sawtooth_density(1)], 2, n_max=4)
        assert est.fit_window == (2.0, 4.0) and not est.notes

    def test_probe_equal_to_reference_rejected(self):
        with pytest.raises(ValueError, match="equals the reference"):
            lambda_classical(CircleDensity.uniform(), [CircleDensity.uniform()], 2)

    def test_probe_collapsing_to_uniform_is_excluded_with_note(self):
        half = CircleDensity.from_pieces([(0.0, math.pi, 2.0, 0.0),
                                          (math.pi, TWO_PI, 0.0, 0.0)])
        probes = [half, sawtooth_density(1)]
        est = lambda_classical(CircleDensity.uniform(), probes, 2)
        assert math.isnan(est.per_probe_slopes[0])
        assert any("excluded" in n for n in est.notes)
        assert est.exponent == pytest.approx(math.log(2.0), rel=0.02)


class TestDensityInterchange:
    def test_csv_round_trip(self, tmp_path):
        # the file `qmix classical --density-out` writes: the ramp after n_max
        # steps, sampled on the grid at 17 significant digits
        out = tmp_path / "density.csv"
        assert main(["classical", "--r", "3", "--grid-size", "96", "--n-max", "6",
                     "--out", str(tmp_path / "classical.json"),
                     "--density-out", str(out)]) == 0
        g = linear_ramp_density()
        for _ in range(6):
            g = pf_apply(g, 3)
        xs, fs = np.loadtxt(out, delimiter=",", unpack=True)
        np.testing.assert_array_equal(xs, grid_points(96))
        np.testing.assert_array_equal(fs, g.evaluate(grid_points(96)))


class TestFourier:
    def test_uniform_coefficients_vanish(self):
        one = CircleDensity.uniform()
        assert fourier_coefficient(one, 0) == 1.0
        for k in (1, 2, 5, -3):
            assert abs(fourier_coefficient(one, k)) <= 1e-14
        lhs, rhs = fourier_check(one, 2, 1, 2)
        assert abs(lhs) <= 1e-13 and abs(rhs) <= 1e-13

    def test_ramp_coefficients_have_the_closed_form(self):
        # (x / pi)^(k) = i / (pi k), and the real density's coefficients conjugate
        f = linear_ramp_density()
        for k in (1, 2, 7, 300):
            assert fourier_coefficient(f, k) == pytest.approx(1j / (math.pi * k), abs=1e-15)
            assert fourier_coefficient(f, -k) == pytest.approx(-1j / (math.pi * k), abs=1e-15)

    def test_plain_cosine_checks_out(self):
        # the interpolant of 1 + cos x on m points has f^(1) = sinc^2(pi/m) / 2
        # and f^(2) = 0, so its push-forward under doubling has no first mode
        m = 64
        f = interpolant(1.0 + np.cos(grid_points(m)))
        assert fourier_coefficient(f, 1) == pytest.approx(0.5 * sinc2(math.pi / m), abs=1e-15)
        lhs, rhs = fourier_check(f, 2, 1, 1)
        assert abs(rhs) <= 1e-15 and abs(lhs) <= 1e-15

    def test_second_harmonic_payload(self):
        # interpolating 1 + 0.5 cos 2x scales f^(2) = 0.25 by sinc^2(2 pi/m);
        # doubling moves that payload to the first mode
        m = 64
        f = interpolant(1.0 + 0.5 * np.cos(2.0 * grid_points(m)))
        payload = 0.25 * sinc2(TWO_PI / m)
        lhs, rhs = fourier_check(f, 2, 1, 1)
        assert rhs == pytest.approx(payload, abs=1e-15)
        assert lhs == pytest.approx(payload, abs=1e-15)

    def test_random_trig_probes_to_ten_decimals(self):
        # piece-table interpolants of random trigonometric polynomials
        rng = np.random.default_rng(31)
        xs = grid_points(96)
        for _ in range(5):
            a, b = 0.08 * rng.normal(size=5), 0.08 * rng.normal(size=3)
            vals = (1.0 + sum(a[j] * np.cos((j + 1) * xs) for j in range(5))
                    + sum(b[j] * np.sin((j + 1) * xs) for j in range(3)))
            probe = interpolant(vals)
            for r in (2, 3):
                for (k, n) in ((1, 1), (1, 2), (2, 2), (3, 1)):
                    lhs, rhs = fourier_check(probe, r, k, n)
                    assert abs(lhs - rhs) <= 1e-10

    def test_l2_bound_on_the_l1_decay(self):
        # || P^n f - 1 ||_1 <= || P^n f - 1 ||_2 = sqrt(2 sum_k>0 |f^(k r^n)|^2)
        # for a real density; the truncated sum only makes the bound stricter
        one = CircleDensity.uniform()
        peak = 2.0  # an asymmetric tent from 0.4 at 0 and 2pi up to 1.6 at x = 2
        probe = CircleDensity.from_pieces([(0.0, peak, 0.4, 1.2 / peak),
                                           (peak, TWO_PI, 1.6 + 1.2 * peak / (TWO_PI - peak),
                                            -1.2 / (TWO_PI - peak))])
        for r in (2, 3):
            f = probe
            for n in (1, 2, 3):
                f = pf_apply(f, r)
                lhs = l1_distance(f, one)
                tail = sum(abs(fourier_coefficient(probe, k * r ** n)) ** 2
                           for k in range(1, 2048 // r ** n))
                assert 0.0 < lhs <= math.sqrt(2.0 * tail)
