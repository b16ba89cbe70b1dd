import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsklab.dyadic import TimeSeriesField, build_dyadic_family, dyadic_block, heat_evolve
from nsklab.fields import (
    FieldError,
    PositivityError,
    Grid,
    ScalarField,
    VectorField,
    constant_field,
    divergence,
    gradient,
    gradient_energy,
    hessian,
    hs_norm,
    integral,
    jacobian,
    l2_norm,
    laplacian,
    log_field,
    lp_norm,
    make_grid,
    power_field,
    random_band_limited,
    read_snapshot,
    sobolev_norm,
    spectral_l2_norm,
    sqrt_field,
    sup_norm,
    write_snapshot,
)
from nsklab.selftest import div_grad_deviation, snapshot_round_trip_deviation


class TestGrid:
    def test_frequencies_are_integers_for_2pi_box(self):
        g = make_grid(2, 64, 2 * np.pi, 1.0)
        assert sorted(np.rint(g.frequencies).astype(int)) == list(range(-32, 32))
        assert np.allclose(g.frequencies, np.rint(g.frequencies), atol=1e-12)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(FieldError, match="unsupported dimension"):
            make_grid(4, 64, 2 * np.pi, 1.0)
        with pytest.raises(FieldError, match="unsupported dimension"):
            make_grid(1, 64, 2 * np.pi, 1.0)

    def test_rejects_nonpositive_far_field_density(self):
        with pytest.raises(FieldError, match="far-field density must be positive"):
            make_grid(3, 8, 1.0, 0.0)

    def test_rejects_bad_resolution(self):
        for n in (7, 10, 20, 4, 9):
            with pytest.raises(FieldError, match="resolution"):
                make_grid(2, n, 1.0, 1.0)
        # powers of two and 3-smooth sizes are fine
        for n in (8, 16, 96, 12, 24):
            make_grid(2, n, 1.0, 1.0)

    def test_rejects_nonpositive_box(self):
        with pytest.raises(FieldError, match="box length"):
            make_grid(2, 16, 0.0, 1.0)

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 36), (3, 12), (3, 24)])
    def test_rim_mask_is_the_index_construction(self, dim, n):
        g = make_grid(dim, n, 3.0, 1.0)
        index = np.indices(g.shape)
        expected = np.any((index < 2) | (index >= n - 2), axis=0)
        assert g.rim_mask.dtype == bool
        assert np.array_equal(g.rim_mask, expected)

    def test_cell_volume(self):
        g = make_grid(2, 16, 4.0, 1.0)
        assert g.cell_volume == pytest.approx((4.0 / 16) ** 2)
        assert g.volume == pytest.approx(16.0)


class TestFieldConstruction:
    def test_rejects_nan(self, grid64):
        vals = np.zeros(grid64.shape)
        vals[0, 0] = np.nan
        with pytest.raises(FieldError, match="non-finite"):
            ScalarField(grid64, vals)

    def test_rejects_shape_mismatch(self, grid64):
        with pytest.raises(FieldError, match="shape"):
            ScalarField(grid64, np.zeros((4, 4)))

    def test_vector_grid_mismatch(self, grid64):
        other = make_grid(2, 32, 2 * np.pi, 1.0)
        with pytest.raises(FieldError, match="grid mismatch"):
            VectorField.from_scalars(
                [constant_field(grid64, 1.0), constant_field(other, 1.0)]
            )


class TestOperators:
    def test_gradient_of_sine(self, grid64):
        x, y = grid64.meshgrid()
        f = ScalarField(grid64, np.sin(x))
        g = gradient(f)
        assert np.max(np.abs(g.components[0] - np.cos(x))) <= 1e-12
        assert np.max(np.abs(g.components[1])) <= 1e-12

    def test_gradient_of_constant_is_exactly_zero(self, grid64):
        g = gradient(constant_field(grid64, 3.7))
        assert np.all(g.components == 0.0)

    def test_gradient_mixed_modes(self, grid64):
        x, y = grid64.meshgrid()
        f = ScalarField(grid64, np.sin(2 * x) * np.cos(3 * y))
        g = gradient(f)
        assert np.max(np.abs(g.components[0] - 2 * np.cos(2 * x) * np.cos(3 * y))) <= 1e-12
        assert np.max(np.abs(g.components[1] + 3 * np.sin(2 * x) * np.sin(3 * y))) <= 1e-12

    def test_laplacian_of_sine(self, grid64):
        x, _ = grid64.meshgrid()
        f = ScalarField(grid64, np.sin(x))
        assert np.max(np.abs(laplacian(f).values + np.sin(x))) <= 1e-12

    def test_laplacian_of_constant(self, grid64):
        assert np.all(laplacian(constant_field(grid64, 2.0)).values == 0.0)

    def test_div_grad_equals_laplacian(self, grid64):
        assert div_grad_deviation([grid64], 10, seed=7) <= 1e-12

    def test_roundtrip(self, grid64, grid3d):
        rng = np.random.default_rng(8)
        for g in (grid64, grid3d):
            f = random_band_limited(g, rng)
            back = np.fft.ifftn(np.fft.fftn(f.values)).real
            assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))


class TestCompositeMaps:
    def test_log_of_e(self, grid64):
        f = constant_field(grid64, math.e)
        assert np.allclose(log_field(f).values, 1.0, atol=1e-15)

    def test_sqrt_of_four(self, grid64):
        assert np.all(sqrt_field(constant_field(grid64, 4.0)).values == 2.0)
        assert np.all(power_field(constant_field(grid64, 4.0), 0.5).values == 2.0)

    def test_log_rejects_zero_entry(self, grid64):
        vals = np.ones(grid64.shape)
        vals[3, 5] = 0.0
        with pytest.raises(PositivityError, match="density not strictly positive"):
            log_field(ScalarField(grid64, vals))

    def test_error_reports_min_location(self, grid64):
        vals = np.ones(grid64.shape)
        vals[3, 5] = -2.0
        with pytest.raises(PositivityError, match=r"\(3, 5\)"):
            sqrt_field(ScalarField(grid64, vals))

    def test_negative_integer_power_rejects_zero(self, grid64):
        vals = np.ones(grid64.shape)
        vals[0, 0] = 0.0
        with pytest.raises(PositivityError):
            power_field(ScalarField(grid64, vals), -1.0)

    def test_integer_power_allows_sign_changes(self, grid64):
        x, _ = grid64.meshgrid()
        f = ScalarField(grid64, np.sin(x))
        assert np.allclose(power_field(f, 2.0).values, np.sin(x) ** 2)


class TestNorms:
    def test_constant_lp(self):
        g = make_grid(2, 16, 2.0, 1.0)  # volume 4
        f = constant_field(g, -3.0)
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(f, p) == pytest.approx(3.0 * 4.0 ** (1.0 / p), rel=1e-13)

    def test_zero_field(self, grid64):
        z = constant_field(grid64, 0.0)
        for p in (1.0, 2.0, np.inf):
            assert lp_norm(z, p) == 0.0

    def test_sine_l2_closed_form_and_quadrature_oracle(self, grid64):
        x, _ = grid64.meshgrid()
        f = ScalarField(grid64, np.sin(x))
        # oracle: dense 1d trapezoid of sin^2 times the transverse length
        t = np.linspace(0.0, 2 * np.pi, 16385)
        oracle = math.sqrt(np.trapezoid(np.sin(t) ** 2, t) * 2 * np.pi)
        assert l2_norm(f) == pytest.approx(oracle, rel=1e-6)
        assert l2_norm(f) == pytest.approx(math.sqrt(2 * np.pi**2), rel=1e-13)

    def test_rejects_p_below_one(self, grid64):
        with pytest.raises(FieldError, match="p >= 1"):
            lp_norm(constant_field(grid64, 1.0), 0.5)

    def test_lp_inf_is_sup(self, grid64):
        x, _ = grid64.meshgrid()
        f = ScalarField(grid64, np.sin(x))
        assert lp_norm(f, np.inf) == sup_norm(f)

    def test_parseval(self, corpus64):
        for f in corpus64:
            assert abs(l2_norm(f) - spectral_l2_norm(f)) <= 1e-10 * max(1.0, l2_norm(f))

    @given(c=st.floats(-10, 10, allow_nan=False), p=st.floats(1.0, 6.0))
    @settings(max_examples=25, deadline=None)
    def test_lp_homogeneity(self, c, p):
        g = make_grid(2, 16, 2 * np.pi, 1.0)
        rng = np.random.default_rng(99)
        f = random_band_limited(g, rng)
        scaled = ScalarField(g, c * f.values)
        assert lp_norm(scaled, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-12)

    def test_sobolev_single_mode(self, grid64):
        eps = 0.3
        x, _ = grid64.meshgrid()
        f = ScalarField(grid64, eps * np.sin(x))
        expected = eps * math.sqrt(grid64.volume / 2.0) * math.sqrt(3.0)
        assert sobolev_norm(f, 2) == pytest.approx(expected, rel=1e-12)
        assert sobolev_norm(f, 0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_sobolev_monotone_in_order(self, corpus64):
        for f in corpus64[:5]:
            norms = [sobolev_norm(f, k) for k in range(4)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_hs_matches_l2_at_zero(self, corpus64):
        for f in corpus64[:5]:
            assert hs_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_integral_of_constant(self):
        g = make_grid(3, 8, 2.0, 1.0)
        assert integral(constant_field(g, 1.5)) == pytest.approx(1.5 * 8.0, rel=1e-14)


class TestRandomFields:
    def test_deterministic_given_seed(self, grid64):
        a = random_band_limited(grid64, np.random.default_rng(5))
        b = random_band_limited(grid64, np.random.default_rng(5))
        assert np.array_equal(a.values, b.values)

    def test_amplitude_normalization(self, grid64):
        f = random_band_limited(grid64, np.random.default_rng(5), amplitude=0.25)
        assert sup_norm(f) == pytest.approx(0.25, rel=1e-12)


class TestSnapshots:
    def test_roundtrip(self, tmp_path, grid64):
        # values bit for bit, time and grid exactly
        assert snapshot_round_trip_deviation(grid64, 3, 1.5, tmp_path / "field.nskf") == 0.0

    def test_header_contents(self, tmp_path):
        g = make_grid(3, 8, 2.5, 0.75)
        f = constant_field(g, 0.75)
        path = tmp_path / "f.nskf"
        write_snapshot(f, 0.0, path)
        header = path.read_bytes().split(b"\n", 1)[0].split()
        assert header[0] == b"NSKF1"
        assert header[1:3] == [b"3", b"8"]

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nskf"
        path.write_bytes(b"NOPE 2 8 1.0 1.0 0.0\n" + b"\x00" * 64)
        with pytest.raises(FieldError, match="NSKF1"):
            read_snapshot(path)

    def test_rejects_truncated_payload(self, tmp_path, grid64):
        f = constant_field(grid64, 1.0)
        path = tmp_path / "t.nskf"
        write_snapshot(f, 0.0, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(FieldError, match="payload"):
            read_snapshot(path)


class TestRealTransformLayer:
    """The half-lattice operators against the complex full-lattice forms."""

    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 24), (3, 12)])
    def test_operators_match_complex_transforms(self, dim, n):
        g = make_grid(dim, n, 2 * np.pi * 1.3, 1.0)
        rng = np.random.default_rng(11)
        f = ScalarField(g, rng.standard_normal(g.shape))
        F = VectorField(g, rng.standard_normal((dim,) + g.shape))
        hat = np.fft.fftn(f.values)
        for axis in range(dim):  # white noise carries every Nyquist plane
            plane = np.take(hat, n // 2, axis=axis)
            assert np.max(np.abs(plane)) > 1.0
        # the full-lattice reference is built here from the frequencies alone
        ks = [g.frequencies.reshape([-1 if a == i else 1 for a in range(dim)]) for i in range(dim)]
        k2 = sum(k * k for k in ks)

        def full(symbol, spectrum=hat):
            return np.fft.ifftn(symbol * spectrum).real

        cases = [
            (gradient(f).components, [full(1j * k) for k in ks]),
            (hessian(f), [[full(-(ki * kj)) for kj in ks] for ki in ks]),
            (jacobian(F), [[full(1j * kj, np.fft.fftn(c)) for kj in ks] for c in F.components]),
            (
                divergence(F).values,
                np.fft.ifftn(sum(1j * k * np.fft.fftn(c) for k, c in zip(ks, F.components))).real,
            ),
            (laplacian(f).values, full(-k2)),
        ]
        # every derivative up to third order, mixed ones included
        rhat = g.rfft(f.values)
        for alpha in itertools.product(range(4), repeat=dim):
            order = sum(alpha)
            if 1 <= order <= 3:
                new = g.irfft(1j**order * g.rmonomial(alpha) * rhat)
                cases.append((new, full(1j**order * math.prod(k**a for k, a in zip(ks, alpha)))))
        # dyadic blocks: the multipliers are radial, so mirroring the last axis
        # of the half lattice gives the full lattice
        fam = build_dyadic_family(g)
        for j in fam.blocks():
            m = fam.multiplier(j)
            m_full = np.concatenate([m, m[..., n // 2 - 1 : 0 : -1]], axis=-1)
            cases.append((dyadic_block(fam, f, j).values, full(m_full)))
        # one heat step with forcing linear in time, exact per mode
        mu, h = 0.7, 0.05
        forcing = TimeSeriesField(np.array([0.0, h]), (F.component(0), F.component(1)))
        f0, f1 = (np.fft.fftn(c) for c in F.components[:2])
        x = mu * h * k2
        xs = np.where(x > 0, x, 1.0)  # the lattice keeps x >= 0.02 off the origin
        p1 = np.where(x > 0, -np.expm1(-x) / xs, 1.0)
        p2 = np.where(x > 0, (1.0 - np.exp(-x) * (1.0 + x)) / xs**2, 0.5)
        stepped = np.exp(-x) * hat + h * (f0 * p1 + (f1 - f0) * (p1 - p2))
        cases.append((heat_evolve(f, forcing, mu).snapshots[1].values, full(1.0, stepped)))
        for new, old in cases:
            old = np.asarray(old)
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    @pytest.mark.parametrize("dim,n", [(2, 24), (2, 36), (3, 24), (3, 36)])
    def test_irfft_is_numpys_irfftn(self, dim, n):
        g = make_grid(dim, n, 3.0, 1.0)
        rng = np.random.default_rng(5)
        half = g.shape[:-1] + (n // 2 + 1,)
        # any half-lattice spectrum: its zero and Nyquist columns need not be
        # Hermitian, and every Nyquist plane carries content
        hat = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        for axis in range(dim):
            assert np.min(np.abs(np.take(hat, n // 2, axis=axis))) > 0.0
        reference = np.fft.irfftn(hat, s=g.shape, axes=tuple(range(dim)))
        out = np.empty(g.shape)
        assert g.irfft(hat.copy()).tobytes() == reference.tobytes()
        assert g.irfft(hat.copy(), out=out) is out
        assert out.tobytes() == reference.tobytes()

    def test_irfft_allocates_only_its_output(self, grid3d):
        # numpy's irfftn allocates one complex intermediate per leading axis,
        # about 2R at 32^3 on top of the output R
        hat = grid3d.rfft(np.random.default_rng(7).standard_normal(grid3d.shape))
        grid3d.irfft(hat.copy())  # the first call may fill the FFT library's caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = grid3d.irfft(hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.1 * samples.nbytes

    @pytest.mark.parametrize("dim,n", [(2, 24), (2, 36), (2, 128), (3, 24), (3, 36)])
    def test_rfft_is_numpys_in_a_fresh_array(self, dim, n):
        g = make_grid(dim, n, 3.0, 1.0)
        values = np.random.default_rng(3).standard_normal(g.shape)
        kept = values.copy()
        for axis in range(dim):  # white noise carries every Nyquist plane
            assert np.max(np.abs(np.take(np.fft.fftn(values), n // 2, axis=axis))) > 1.0
        first, second = g.rfft(values), g.rfft(values)
        reference = np.fft.rfftn(values)
        for hat in (first, second):
            assert hat.shape == reference.shape and hat.dtype == reference.dtype
            assert hat.tobytes() == reference.tobytes()
        # the effective step overwrites its carried spectra in place, so no
        # spectrum may share memory with its samples or with another spectrum
        assert not np.shares_memory(first, values)
        assert not np.shares_memory(first, second)
        assert values.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_parseval_gradient_energy_is_exact(self, dim, n):
        g = make_grid(dim, n, 4 * np.pi, 1.0)
        f = ScalarField(g, np.random.default_rng(n).standard_normal(g.shape))
        for axis in range(dim):  # white noise carries every Nyquist plane
            assert np.max(np.abs(np.take(np.fft.fftn(f.values), n // 2, axis=axis))) > 1.0
        ref = float(np.sum(gradient(f).components ** 2) * g.cell_volume)
        hat = g.rfft(f.values)
        assert gradient_energy(g, hat) == pytest.approx(ref, rel=1e-13, abs=0.0)
        # rk2 keeps the Nyquist planes that gradient zeroes
        with_nyquist = float(np.sum(g.rk2 * g.rweight * np.abs(hat) ** 2)) * g.cell_volume / f.values.size
        assert with_nyquist > ref * (1.0 + 1e-3)

    @pytest.mark.parametrize("dim,n", [(2, 24), (2, 32), (2, 48), (3, 24)])
    def test_half_spectrum_parseval(self, dim, n):
        g = make_grid(dim, n, 3.0, 1.0)
        f = ScalarField(g, np.random.default_rng(n).standard_normal(g.shape))
        assert spectral_l2_norm(f) == pytest.approx(l2_norm(f), rel=1e-12)
        assert sobolev_norm(f, 0) == pytest.approx(l2_norm(f), rel=1e-12)
