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
    pf_power,
    relative_entropy,
    sawtooth_density,
)
from dense_oracle import iterated_distance_table, pf_affine
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
        # densities are piece tables only: lambda_classical builds no
        # density at all (its table is closed form), and no push-forward
        # carries samples
        built = []

        def recording_init(self, breaks, coefs):
            built.append(self)
            init(self, breaks, coefs)

        init = CircleDensity.__init__
        probes = [sawtooth_density(k) for k in (1, 2, 3)]
        monkeypatch.setattr(CircleDensity, "__init__", recording_init)
        lambda_classical(CircleDensity.uniform(), probes, 2, n_max=6)
        assert len(built) == 1  # the reference density only
        rng = np.random.default_rng(37)
        for r in (2, 3, 5):
            pf_apply(random_affine_density(rng), r)
            pf_power(random_affine_density(rng), r, 4)
        assert len(built) == 13 and not any(hasattr(g, "grid") for g in built)

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
        assert distances == [0.5 / k for k in range(1, 6)]

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


def density_from_ends(edges, lo, hi):
    """Unit-mass piece table running from ``lo[i]`` to ``hi[i]`` on piece i."""
    edges, lo, hi = (np.asarray(a, dtype=float) for a in (edges, lo, hi))
    u, v = edges[:-1], edges[1:]
    s = (hi - lo) / (v - u)
    mass = float(np.sum(0.5 * (lo + hi) * (v - u))) / TWO_PI
    return CircleDensity.from_pieces(np.column_stack([u, v, (lo - s * u) / mass, s / mass]))


def step_density(rng, n_pieces):
    """A random step density, built as the benchmark builds its 1000-piece ones."""
    cuts = np.sort(rng.uniform(0.0, TWO_PI, n_pieces - 1))
    breaks = np.concatenate([[0.0], cuts, [TWO_PI]])
    heights = rng.uniform(0.2, 1.8, n_pieces)
    return density_from_ends(breaks, heights, heights)


def random_probe(rng, kind, pieces=9):
    """A jump-only (steps), kink-only (continuous) or mixed random density."""
    widths = rng.uniform(0.5, 1.5, pieces)
    edges = np.concatenate([[0.0], np.cumsum(widths) * (TWO_PI / widths.sum())])
    edges[-1] = TWO_PI
    values = rng.uniform(0.2, 2.0, pieces)
    lo, hi = {"jump": (values, values), "kink": (values, np.roll(values, -1)),
              "mixed": (values, rng.uniform(0.2, 2.0, pieces))}[kind]
    return density_from_ends(edges, lo, hi)


def difference_amplitudes(f, g):
    """(jumps, kinks) of f - g, merged as the distance table merges them."""
    _, jumps, kinks, _ = circle._merge(*(a[None, :] for a in circle._difference(f, g)))
    return jumps[0], kinks[0]


# continuous, with kinks at 0, 1 and 4 only
KINK_PROBE = density_from_ends([0.0, 1.0, 4.0, TWO_PI], [0.4, 1.6, 0.7], [1.6, 0.7, 0.4])
HALF = CircleDensity.from_pieces([(0.0, math.pi, 2.0, 0.0), (math.pi, TWO_PI, 0.0, 0.0)])
TENT = density_from_ends([0.0, math.pi, TWO_PI], [0.0, 2.0], [2.0, 0.0])


class TestClosedForm:
    """pf_power and the distance table against the iterated push-forward."""

    @pytest.mark.parametrize("r, n_max", [(2, 12), (3, 12), (5, 12), (1024, 6)])
    def test_table_matches_the_iterated_oracle(self, r, n_max):
        rng = np.random.default_rng(r)
        # the oracle gathers r x 1000 pieces a step: one step density at r = 1024
        probes = ([step_density(rng, 1000) for _ in range(4 if r < 1024 else 1)]
                  + [sawtooth_density(k) for k in range(1, 6)]
                  + [random_probe(rng, kind) for kind in ("jump", "kink", "mixed") * 2])
        one = CircleDensity.uniform()
        dists, _, _ = circle.distance_table(one, probes, r, n_max)
        expected = iterated_distance_table(one, probes, r, n_max)
        for row, probe in enumerate(probes):
            # entries up to the certified floor are exact; past it both
            # read at most the floor
            jumps, kinks = difference_amplitudes(probe, one)
            n = np.arange(n_max + 1)
            bound = (np.abs(jumps).sum() / 4 * float(r) ** -n
                     + math.pi / 6 * np.abs(kinks).sum() * float(r) ** (-2 * n))
            exact = bound >= 1e-13
            np.testing.assert_allclose(dists[row, exact], expected[row, exact],
                                       rtol=0, atol=1e-14)
            assert np.all(dists[row, ~exact] <= 1e-13)
            assert np.all(expected[row, ~exact] <= 1e-13 + 1e-14)

    @pytest.mark.parametrize("r", [2, 3, 5, 1024])
    def test_pf_power_matches_the_iterated_oracle(self, r):
        rng = np.random.default_rng(100 + r)
        for probe in [step_density(rng, 50)] + [random_probe(rng, k) for k in ("jump", "kink", "mixed")]:
            g = probe
            for n in range(1, 7):
                g = pf_affine(g, r)
                h = pf_power(probe, r, n)
                np.testing.assert_array_equal(h.breaks, g.breaks)
                np.testing.assert_allclose(h.coefs, g.coefs, rtol=0, atol=1e-14)

    def test_pf_power_of_zero_steps_is_the_density(self):
        f = random_probe(np.random.default_rng(8), "mixed")
        g = pf_power(f, 3, 0)
        np.testing.assert_array_equal(g.breaks, f.breaks)
        np.testing.assert_allclose(g.coefs, f.coefs, rtol=0, atol=1e-14)

    def test_pf_power_validation(self):
        one = CircleDensity.uniform()
        for n in (-1, 1.5, circle.MAX_ITERATES + 1):
            with pytest.raises(ValueError, match="n must be an integer"):
                pf_power(one, 2, n)
        with pytest.raises(ValueError, match="r must be an integer"):
            lambda_classical(one, [sawtooth_density(1)], 1)

    @pytest.mark.parametrize("r", [2, 3, 1024])
    def test_sawtooths_decay_at_log_r(self, r):
        est = lambda_classical(CircleDensity.uniform(), [sawtooth_density(k) for k in (1, 3)], r)
        assert est.exact_rates == [math.log(r)] * 2
        assert est.uniform_at == [None, None]

    @pytest.mark.parametrize("r", [2, 3])
    def test_kinks_alone_decay_at_two_log_r(self, r):
        est = lambda_classical(CircleDensity.uniform(), [KINK_PROBE], r)
        assert est.exact_rates == [2.0 * math.log(r)]
        assert est.uniform_at == [None]
        # the fitted slope wanders with the kinks (1.68 at r = 2, 1.87 at
        # r = 3): the rate is not read off it
        assert abs(est.per_probe_slopes[0] - 2.0 * math.log(r)) > 0.1

    def test_cancelled_jumps_leave_the_kink_rate(self):
        # half the half indicator (jumps at 0 and pi, which meet under
        # doubling) plus half the kink probe
        edges = [0.0, 1.0, math.pi, 4.0, TWO_PI]
        mid = KINK_PROBE.evaluate([math.pi])[0]
        probe = density_from_ends(edges, np.array([0.4, 1.6, mid, 0.7]) / 2 + [1, 1, 0, 0],
                                  np.array([1.6, mid, 0.7, 0.4]) / 2 + [1, 1, 0, 0])
        est = lambda_classical(CircleDensity.uniform(), [probe, sawtooth_density(1)], 2)
        assert est.exact_rates == [2.0 * math.log(2.0), math.log(2.0)]
        assert est.uniform_at == [None, None]

    @pytest.mark.parametrize("probe", [HALF, TENT], ids=["half-indicator", "tent"])
    def test_symmetric_probes_reach_uniform_in_one_doubling(self, probe):
        one = CircleDensity.uniform()
        est = lambda_classical(one, [probe, sawtooth_density(1)], 2)
        assert est.exact_rates == [math.inf, math.log(2.0)]
        assert est.uniform_at == [1, None]
        assert l1_distance(pf_power(probe, 2, 1), one) <= 1e-15
        assert "probe 0 excluded" in est.notes[0]

    def test_rows_stop_at_the_floor(self):
        # r = 1024: the sawtooth of k = 1 is 4.5e-13 at n = 4, and its bound
        # 0.5 r^-n falls below 1e-13 at n = 5; later entries hold the bound
        dists, _, _ = circle.distance_table(CircleDensity.uniform(), [sawtooth_density(1)],
                                             1024, 1000)
        n = np.arange(1001)
        np.testing.assert_allclose(dists[0, :5], 0.5 / 1024.0 ** n[:5], rtol=1e-13)
        np.testing.assert_array_equal(dists[0, 5:], 0.5 * 1024.0 ** -n[5:])


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
