import math
from collections import Counter

import numpy as np
import pytest

from nsklab import calibrate
from nsklab.calibrate import calibrate_bernstein, calibrate_hs_equivalence
from nsklab.calibration import CONSTANTS, DRIFT_FACTOR, calibrated
from nsklab.dyadic import (
    BesovIndex,
    TimeSeriesField,
    bernstein_audit,
    bernstein_ratios,
    besov_norm,
    block_norm_table,
    block_norms,
    build_dyadic_family,
    chemin_lerner_norm,
    dyadic_block,
    heat_evolve,
    heat_regularity_audit,
    heat_terms,
    interpolation_terms,
    lq_besov_norm,
    optimal_interpolation_audit,
    select_frequency_cut,
)
from nsklab.fields import (
    FieldError,
    ScalarField,
    constant_field,
    hs_norm,
    l2_norm,
    lp_norm,
    make_grid,
    random_band_limited,
)
from nsklab.solver import FlowState


@pytest.fixture(scope="module")
def halfgrid():
    # L = 4*pi makes the frequency lattice the half-integers
    return make_grid(2, 64, 4 * np.pi, 1.0)


@pytest.fixture(scope="module")
def family(halfgrid):
    return build_dyadic_family(halfgrid)


@pytest.fixture(scope="module")
def fam64(grid64):
    return build_dyadic_family(grid64)


class TestFamily:
    def test_low_cap_at_origin(self, family):
        origin = (0, 0)
        assert family.chi[origin] == pytest.approx(1.0, abs=1e-12)
        for phi in family.phis:
            assert phi[origin] == 0.0

    def test_partition_of_unity(self, family):
        total = family.chi + sum(family.phis)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_supports(self, family, halfgrid):
        kmag = np.sqrt(halfgrid.rk2)
        assert np.all(family.chi[kmag >= 4.0 / 3.0] == 0.0)
        for j, phi in enumerate(family.phis):
            lo, hi = 0.75 * 2.0**j, 8.0 / 3.0 * 2.0**j
            assert np.all(phi[(kmag <= lo) | (kmag >= hi)] == 0.0)

    def test_annulus_multiplier_vanishes_at_half(self, family, halfgrid):
        # |xi| = 1/2 lies below the first annulus
        kmag = np.sqrt(halfgrid.rk2)
        pts = np.isclose(kmag, 0.5)
        assert np.any(pts)
        assert np.all(family.phis[0][pts] == 0.0)

    def test_too_coarse_grid_rejected(self):
        g = make_grid(2, 8, 100.0, 1.0)
        with pytest.raises(FieldError, match="too coarse"):
            build_dyadic_family(g)


class TestBlocks:
    def test_reconstruction(self, family, halfgrid):
        rng = np.random.default_rng(31)
        f = random_band_limited(halfgrid, rng)
        rec = sum(dyadic_block(family, f, j).values for j in family.blocks())
        assert np.max(np.abs(rec - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_low_single_mode_lands_in_cap(self, family, halfgrid):
        x, _ = halfgrid.meshgrid()
        u = ScalarField(halfgrid, np.cos(0.5 * x))  # |xi| = 1/2 < 4/3
        low = dyadic_block(family, u, -1)
        assert np.max(np.abs(low.values - u.values)) <= 1e-12
        for j in range(family.j_max + 1):
            assert np.max(np.abs(dyadic_block(family, u, j).values)) <= 1e-12

    def test_below_range_is_zero(self, family, halfgrid):
        f = constant_field(halfgrid, 2.0)
        assert np.all(dyadic_block(family, f, -3).values == 0.0)

    def test_beyond_resolution_rejected(self, family, halfgrid):
        f = constant_field(halfgrid, 1.0)
        with pytest.raises(FieldError, match="beyond grid resolution"):
            dyadic_block(family, f, family.j_max + 1)

    def test_zero_field(self, family, halfgrid):
        z = constant_field(halfgrid, 0.0)
        for j in family.blocks():
            assert np.all(dyadic_block(family, z, j).values == 0.0)

    def test_quasi_orthogonality(self, family, halfgrid):
        rng = np.random.default_rng(32)
        f = random_band_limited(halfgrid, rng)
        scale = np.max(np.abs(f.values))
        for j in family.blocks():
            for jp in family.blocks():
                if abs(j - jp) >= 2:
                    twice = dyadic_block(family, dyadic_block(family, f, j), jp)
                    assert np.max(np.abs(twice.values)) <= 1e-12 * scale


class TestBlockNorms:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_equal_to_one_block_at_a_time(self, fam64, corpus64, p):
        for f in corpus64[:4]:
            by_hand = [lp_norm(dyadic_block(fam64, f, j), p) for j in fam64.blocks()]
            assert block_norms(fam64, f, p).tolist() == by_hand


class TestTransformBudget:
    """numpy.fft calls per dyadic norm or audit on 2D 128^2, L = 2*pi (8 blocks):
    one forward transform per field, one inverse per block."""

    @pytest.fixture(scope="class")
    def setup(self):
        grid = make_grid(2, 128, 2 * np.pi, 1.0)
        fam = build_dyadic_family(grid)
        assert len(fam.blocks()) == 8
        rng = np.random.default_rng(90)
        f = random_band_limited(grid, rng, max_mode=20)
        base = random_band_limited(grid, rng, max_mode=20)
        times = np.linspace(0.0, 0.4, 5)
        series = TimeSeriesField(
            times, [ScalarField(grid, math.cos(t) * base.values) for t in times]
        )
        return fam, f, series

    def _count(self, transforms, call):
        transforms.clear()
        call()
        return Counter(transforms)

    def test_besov_norm(self, transforms, setup):
        fam, f, _ = setup
        counts = self._count(transforms, lambda: besov_norm(fam, f, BesovIndex(1, 2, 2)))
        assert counts == {"rfft": 1, "irfft": 8}

    def test_interpolation_audit(self, transforms, setup):
        fam, f, _ = setup
        counts = self._count(
            transforms, lambda: optimal_interpolation_audit(fam, f, 0.0, 2.0, 0.5, 2.0)
        )
        assert counts == {"rfft": 1, "irfft": 8}

    def test_chemin_lerner_norm(self, transforms, setup):
        fam, _, series = setup
        counts = self._count(
            transforms, lambda: chemin_lerner_norm(fam, series, 2.0, BesovIndex(1, 2, 2))
        )
        assert counts == {"rfft": 5, "irfft": 40}

    def test_heat_regularity_audit(self, transforms, setup):
        # heat_evolve: 5 forcing + 1 data forward, 4 inverse; then two
        # Chemin-Lerner norms over 5 snapshots and one Besov norm
        fam, f, series = setup
        counts = self._count(
            transforms,
            lambda: heat_regularity_audit(fam, f, series, 1.0, 4.0, 2.0, BesovIndex(0, 2, 2)),
        )
        assert sum(counts.values()) == 109
        assert counts == {"rfft": 6 + 5 + 1 + 5, "irfft": 4 + 40 + 8 + 40}


class TestBesovNorm:
    def test_zero_field(self, family, halfgrid):
        z = constant_field(halfgrid, 0.0)
        for idx in (BesovIndex(0, 2, 2), BesovIndex(1.5, math.inf, 1), BesovIndex(-1, 4, math.inf)):
            assert besov_norm(family, z, idx) == 0.0

    def test_single_block_hand_sum(self, fam64, grid64):
        # field supported in block 3: only blocks 2..4 can see it
        rng = np.random.default_rng(44)
        f = random_band_limited(grid64, rng, max_mode=31)
        w = dyadic_block(fam64, f, 3)
        s, p = 1.25, 2.0
        terms = []
        for j in fam64.blocks():
            block = dyadic_block(fam64, w, j)
            norm = l2_norm(block)
            if j not in (2, 3, 4):
                assert norm <= 1e-12
            terms.append((2.0 ** (j * s) if j >= 0 else 1.0) * norm)
        for r in (1.0, 2.0, math.inf):
            hand = max(terms) if r == math.inf else sum(t**r for t in terms) ** (1.0 / r)
            assert besov_norm(fam64, w, BesovIndex(s, p, r)) == pytest.approx(hand, rel=1e-12)

    def test_hs_equivalence_ratio_bounded(self, fam64, corpus64):
        for s in (-1, 0, 1, 2):
            c_allowed = DRIFT_FACTOR * calibrated(f"besov.hs_equiv.s{s}")
            for f in corpus64:
                ratio = besov_norm(fam64, f, BesovIndex(s, 2, 2)) / hs_norm(f, s)
                assert 1.0 / c_allowed <= ratio <= c_allowed

    def test_monotone_in_regularity(self, fam64, corpus64):
        for f in corpus64[:8]:
            for r in (1.0, 2.0, math.inf):
                norms = [besov_norm(fam64, f, BesovIndex(s, 2, r)) for s in (-2, -1, 0, 1, 2)]
                assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_monotone_in_summation_exponent(self, fam64, corpus64):
        for f in corpus64[:8]:
            n1 = besov_norm(fam64, f, BesovIndex(0.5, 2, 1))
            n2 = besov_norm(fam64, f, BesovIndex(0.5, 2, 2))
            ninf = besov_norm(fam64, f, BesovIndex(0.5, 2, math.inf))
            assert ninf <= n2 * (1 + 1e-12) <= n1 * (1 + 1e-12) ** 2


def _random_series(grid, n_times, seed, t_end=1.0):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, t_end, n_times)
    base = random_band_limited(grid, rng, max_mode=12)
    other = random_band_limited(grid, rng, max_mode=12)
    snaps = [
        ScalarField(grid, math.cos(1.7 * t) * base.values + math.sin(0.9 * t) * other.values)
        for t in times
    ]
    return TimeSeriesField(times, snaps)


class TestCheminLerner:
    def test_time_constant_equals_scaled_besov(self, fam64, grid64):
        f = random_band_limited(grid64, np.random.default_rng(50), max_mode=10)
        times = np.linspace(0.0, 2.0, 9)
        series = TimeSeriesField(times, [f] * times.size)
        for q in (1.0, 2.0, 5.0):
            idx = BesovIndex(0.75, 2, 2)
            expected = 2.0 ** (1.0 / q) * besov_norm(fam64, f, idx)
            assert chemin_lerner_norm(fam64, series, q, idx) == pytest.approx(expected, rel=1e-12)
        assert chemin_lerner_norm(fam64, series, math.inf, BesovIndex(0.75, 2, 2)) == pytest.approx(
            besov_norm(fam64, f, BesovIndex(0.75, 2, 2)), rel=1e-12
        )

    def test_orderings_coincide_when_r_equals_q(self, fam64, grid64):
        series = _random_series(grid64, 7, seed=51)
        for q in (1.0, 2.0, 3.0):
            idx = BesovIndex(0.5, 2, q)
            a = chemin_lerner_norm(fam64, series, q, idx)
            b = lq_besov_norm(fam64, series, q, idx)
            assert a == pytest.approx(b, rel=1e-12)

    def test_minkowski_orderings(self, fam64, grid64):
        series = _random_series(grid64, 7, seed=52)
        # r >= q: inside-first is smaller; r <= q: inside-first is larger
        for q, r in ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf)):
            idx = BesovIndex(0.5, 2, r)
            assert chemin_lerner_norm(fam64, series, q, idx) <= lq_besov_norm(
                fam64, series, q, idx
            ) * (1 + 1e-12)
        for q, r in ((2.0, 1.0), (math.inf, 2.0), (3.0, 1.0)):
            idx = BesovIndex(0.5, 2, r)
            assert chemin_lerner_norm(fam64, series, q, idx) >= lq_besov_norm(
                fam64, series, q, idx
            ) * (1 - 1e-12)

    def test_zero_series(self, fam64, grid64):
        times = np.linspace(0.0, 1.0, 5)
        series = TimeSeriesField(times, [constant_field(grid64, 0.0)] * 5)
        assert chemin_lerner_norm(fam64, series, 2.0, BesovIndex(1, 2, 2)) == 0.0

    def test_empty_series_rejected(self, grid64):
        with pytest.raises(FieldError, match="non-empty"):
            TimeSeriesField(np.array([]), [])

    def test_nonincreasing_times_rejected(self, grid64):
        f = constant_field(grid64, 1.0)
        with pytest.raises(FieldError, match="strictly increasing"):
            TimeSeriesField(np.array([0.0, 0.0]), [f, f])


class TestBernstein:
    def test_single_axis_mode_ratios_are_one(self, grid64):
        fam = build_dyadic_family(grid64)
        x, _ = grid64.meshgrid()
        m = 8  # sits in the annulus (6, 21.3) of block 3
        u = ScalarField(grid64, np.cos(m * x))
        for k in (1, 2, 3):
            ratios = bernstein_ratios(fam, u, 3, k, 2.0, 2.0)
            assert ratios["scale"] == pytest.approx(m, rel=1e-12)
            assert ratios["ball"] == pytest.approx(1.0, abs=1e-10)
            assert ratios["annulus"] == pytest.approx(1.0, abs=1e-10)
            assert ratios["multiplier"] == pytest.approx(1.0, abs=1e-10)

    def test_zero_field_vacuous_pass(self, fam64, grid64):
        z = constant_field(grid64, 0.0)
        for rep in bernstein_audit(fam64, z, 2, 1, 2.0, 2.0):
            assert rep.passed

    def test_rejects_unlocalized_input(self, fam64, grid64):
        f = random_band_limited(grid64, np.random.default_rng(60))
        with pytest.raises(FieldError, match="band-limited"):
            bernstein_ratios(fam64, f, 3, 1, 2.0, 2.0)

    def test_rejects_bad_exponents(self, fam64, grid64):
        u = dyadic_block(fam64, random_band_limited(grid64, np.random.default_rng(61)), 3)
        with pytest.raises(FieldError, match="1 <= a <= b"):
            bernstein_ratios(fam64, u, 3, 1, 4.0, 2.0)

    def test_corpus_within_drift_envelope(self, fam64, grid64):
        rng = np.random.default_rng(62)
        for trial in range(10):
            j = int(rng.integers(1, fam64.j_max + 1))
            f = random_band_limited(grid64, rng, max_mode=31)
            w = dyadic_block(fam64, f, j)
            hat = grid64.rfft(w.values)
            hat[~(fam64.multiplier(j) > 0)] = 0.0
            w = ScalarField(grid64, grid64.irfft(hat))
            for k in (1, 2):
                for rep in bernstein_audit(fam64, w, j, k, 2.0, 2.0):
                    assert rep.passed, rep


@pytest.fixture(scope="module")
def preset_runs():
    """The calibration's three runs, each made once for the frozen-table checks."""
    return calibrate._preset_runs()


class TestFrozenTable:
    def test_dyadic_constants_at_or_below_frozen(self):
        # the frozen table is the re-measured value rounded upward, so a
        # re-measurement above it means the table no longer describes the code
        out = {}
        calibrate_hs_equivalence(out)
        calibrate_bernstein(out)
        assert len(out) == 13
        over = {key: (value, CONSTANTS[key]) for key, value in out.items() if value > CONSTANTS[key]}
        assert not over

    def test_trajectory_constants_at_or_below_frozen(self, preset_runs):
        # the calibration reads what its runs' observers kept of each stored
        # state, the values the audits it calibrates read, and no stored state
        kept = [value for _, ctx in preset_runs.values() for values in ctx.values() if isinstance(values, list)
                for value in values]
        assert not any(isinstance(value, FlowState) for value in kept)
        out = {}
        calibrate.calibrate_trajectories(out, preset_runs)
        kinds, presets = ("venergy.C", "loglaw.cv", "psi.C3"), ("gaussian-bump", "random-large")
        assert sorted(out) == sorted(f"{kind}.{preset}" for kind in kinds for preset in presets)
        over = {key: (value, CONSTANTS[key]) for key, value in out.items() if value > CONSTANTS[key]}
        assert not over

    def test_certificate_constant_at_or_below_frozen(self, monkeypatch, preset_runs):
        # the calibration reads its truncated integrals from the helper the
        # certificate's U0 reads, so certificate.C describes the certificate
        levels = []

        def recording_terms(inverse, times, k):
            levels.append(k)
            return terms(inverse, times, k)

        terms = calibrate.truncation_terms
        monkeypatch.setattr(calibrate, "truncation_terms", recording_terms)
        out = {}
        calibrate.calibrate_certificate(out, preset_runs)
        assert len(levels) == 9  # three levels on each of three runs
        assert out["certificate.C"] <= CONSTANTS["certificate.C"]


class TestInterpolation:
    def test_frequency_cut_examples(self):
        assert select_frequency_cut(1.0, 1.0, 2.0) == 0
        assert select_frequency_cut(1.0, 8.0, 1.0) == 3
        assert select_frequency_cut(8.0, 1.0, 1.0) == -3

    def test_frequency_cut_sandwich_randomized(self):
        rng = np.random.default_rng(70)
        for _ in range(300):
            m1 = float(rng.uniform(1e-6, 1e6))
            m2 = float(rng.uniform(1e-6, 1e6))
            gap = float(rng.uniform(0.1, 4.0))
            n = select_frequency_cut(m1, m2, gap)
            assert 2.0 ** (n * gap) <= m2 / m1 < 2.0 ** ((n + 1) * gap)

    def test_zero_field_trivial(self, fam64, grid64):
        z = constant_field(grid64, 0.0)
        for rep in optimal_interpolation_audit(fam64, z, 0.0, 2.0, 0.5, 2.0):
            assert rep.passed
            assert rep.lhs == 0.0

    def test_degenerate_theta_rejected(self, fam64, grid64):
        f = constant_field(grid64, 1.0)
        for theta in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(FieldError, match="degenerate|theta"):
                optimal_interpolation_audit(fam64, f, 0.0, 2.0, theta, 2.0)

    def test_audit_scales_the_shared_terms(self, fam64, corpus64):
        f = corpus64[0]
        lhs, m1, m2, rhs = interpolation_terms(fam64, block_norms(fam64, f, 2.0), -1.0, 1.0, 0.25)
        assert (m1, m2) == (
            besov_norm(fam64, f, BesovIndex(-1.0, 2.0, math.inf)),
            besov_norm(fam64, f, BesovIndex(1.0, 2.0, math.inf)),
        )
        main, _ = optimal_interpolation_audit(fam64, f, -1.0, 1.0, 0.25, 2.0)
        assert main.lhs == lhs
        assert main.rhs == DRIFT_FACTOR * calibrated("interpolation.C") * rhs

    def test_corpus_passes_with_frozen_constant(self, fam64, corpus64):
        for f in corpus64[:10]:
            for theta in (0.25, 0.5, 0.75):
                reports = optimal_interpolation_audit(fam64, f, 0.0, 2.0, theta, 2.0)
                assert all(r.passed for r in reports), reports


class TestHeat:
    def test_single_mode_decay_closed_form(self, grid64):
        fam = build_dyadic_family(grid64)
        x, _ = grid64.meshgrid()
        m, mu = 5, 0.7
        u0 = ScalarField(grid64, np.cos(m * x))
        times = np.linspace(0.0, 0.3, 7)
        zero = constant_field(grid64, 0.0)
        forcing = TimeSeriesField(times, [zero] * times.size)
        sol = heat_evolve(u0, forcing, mu)
        for t, snap in zip(times, sol.snapshots):
            exact = math.exp(-mu * m * m * t) * u0.values
            assert np.max(np.abs(snap.values - exact)) <= 1e-12
        rep = heat_regularity_audit(fam, u0, forcing, mu, math.inf, 2.0, BesovIndex(0, 2, 2))
        assert rep.passed
        assert math.isfinite(rep.ratio)

    def test_linear_in_time_forcing_exact(self, grid64):
        # hand-derived variation-of-constants solution for f = (alpha + beta t) g
        m, mu, alpha, beta = 3, 1.3, 0.8, -0.4
        x, _ = grid64.meshgrid()
        g = np.cos(m * x)
        a = mu * m * m
        times = np.linspace(0.0, 0.5, 6)
        u0 = constant_field(grid64, 0.0)
        forcing = TimeSeriesField(
            times, [ScalarField(grid64, (alpha + beta * t) * g) for t in times]
        )
        sol = heat_evolve(u0, forcing, mu)
        for t, snap in zip(times, sol.snapshots):
            coef = alpha * (1 - math.exp(-a * t)) / a + beta * (
                t / a - (1 - math.exp(-a * t)) / a**2
            )
            assert np.max(np.abs(snap.values - coef * g)) <= 1e-12 * max(1.0, abs(coef))

    def test_zero_data_ratio_zero(self, fam64, grid64):
        zero = constant_field(grid64, 0.0)
        times = np.linspace(0.0, 1.0, 4)
        forcing = TimeSeriesField(times, [zero] * 4)
        rep = heat_regularity_audit(fam64, zero, forcing, 1.0, math.inf, 1.0, BesovIndex(0, 2, 2))
        assert rep.passed and rep.ratio == 0.0

    def test_rejects_q2_above_q1(self, fam64, grid64):
        zero = constant_field(grid64, 0.0)
        times = np.linspace(0.0, 1.0, 4)
        forcing = TimeSeriesField(times, [zero] * 4)
        with pytest.raises(FieldError, match="q2"):
            heat_regularity_audit(fam64, zero, forcing, 1.0, 2.0, 4.0, BesovIndex(0, 2, 2))

    def test_audit_scales_the_shared_terms(self, fam64, corpus64):
        times = np.linspace(0.0, 0.5, 4)
        forcing = TimeSeriesField(times, [corpus64[1]] * 4)
        args = (fam64, corpus64[0], forcing, 1.0, 4.0, 2.0, BesovIndex(0.5, 2, 2))
        p = args[-1].p
        tables = (
            block_norm_table(fam64, heat_evolve(corpus64[0], forcing, 1.0), p),
            block_norms(fam64, corpus64[0], p),
            block_norm_table(fam64, forcing, p),
        )
        lhs, rhs = heat_terms(fam64, times, tables, 4.0, 2.0, args[-1])
        rep = heat_regularity_audit(*args)
        assert rep.lhs == lhs
        assert rep.rhs == DRIFT_FACTOR * calibrated("heat.C") * rhs

    def test_random_corpus_within_envelope(self, fam64, grid64):
        rng = np.random.default_rng(80)
        times = np.linspace(0.0, 0.5, 6)
        for trial in range(5):
            u0 = random_band_limited(grid64, rng, max_mode=10)
            base = random_band_limited(grid64, rng, max_mode=10)
            forcing = TimeSeriesField(
                times, [ScalarField(grid64, math.cos(2 * t) * base.values) for t in times]
            )
            for q1, q2 in ((math.inf, math.inf), (2.0, 2.0), (4.0, 2.0)):
                rep = heat_regularity_audit(fam64, u0, forcing, 1.0, q1, q2, BesovIndex(0, 2, 2))
                assert rep.passed, rep
