import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsklab.audits import csv_line
from nsklab.degiorgi import (
    IterationSpec,
    WindowCertificate,
    closed_form_bound,
    closed_form_log,
    flat_aware_gradient,
    inverse_density,
    inverse_density_pde_residual,
    ladder,
    level_set_measure,
    lower_bound_certificate,
    recurrence_equality,
    recurrence_log,
    theta,
    truncate,
    truncation_terms,
)
from nsklab.experiment import CERTIFICATE_HEADER
from nsklab.fields import FieldError, ScalarField, VectorField, constant_field, make_grid
from nsklab.probes import audit_observer
from nsklab.solver import (
    FlowState,
    SolverConfig,
    TrajectoryRecord,
    Workspace,
    make_preset,
    run,
    to_effective,
    veff_max,
)


class TestTheta:
    def test_unit_constants(self):
        for nu in (0.5, 1.0, 2.0):
            assert theta(IterationSpec(1.0, 1.0, nu, 0.0)) == pytest.approx(1.0)

    def test_direct_substitution(self):
        assert theta(IterationSpec(1.0, 2.0, 1.0, 0.0)) == pytest.approx(0.5)

    def test_arithmetic_oracle(self):
        # 4^(-1/2) * 2^(-1/4) = 2^(-5/4)
        assert theta(IterationSpec(4.0, 2.0, 2.0, 0.0)) == pytest.approx(2.0 ** (-1.25), rel=1e-14)


class TestClosedForm:
    def test_zero_start(self):
        spec = IterationSpec(2.0, 3.0, 0.7, 0.0)
        for k in range(1, 10):
            assert closed_form_bound(spec, k) == 0.0

    def test_index_zero_returns_start(self):
        spec = IterationSpec(2.0, 3.0, 0.7, 0.37)
        assert closed_form_bound(spec, 0) == pytest.approx(0.37)

    def test_pure_squaring(self):
        # K = A = 1, nu = 1: X_k = X0^(2^k), so X0 = 1/2, k = 3 gives 1/256
        spec = IterationSpec(1.0, 1.0, 1.0, 0.5)
        x = 0.5
        for _ in range(3):
            x = x * x
        assert x == 0.5**8
        assert closed_form_bound(spec, 3) == pytest.approx(1.0 / 256.0, rel=1e-14)

    def test_matches_recurrence_on_random_specs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            spec = IterationSpec(
                K=float(rng.uniform(0.1, 10.0)),
                A=float(rng.uniform(1.0, 5.0)),
                nu=float(rng.uniform(0.1, 2.5)),
                X0=float(rng.uniform(0.0, 0.9)),
            )
            rec = recurrence_log(spec, 20)
            for k in range(21):
                cf = closed_form_log(spec, k)
                if math.isinf(cf) and math.isinf(rec[k]):
                    continue
                assert abs(cf - rec[k]) <= 1e-12 * max(1.0, abs(cf))

    def test_threshold_halving_case(self):
        # at the threshold with A = 2, nu = 1 the sequence halves each step
        spec = IterationSpec(K=1.0, A=2.0, nu=1.0, X0=theta(IterationSpec(1.0, 2.0, 1.0, 0.0)))
        seq = recurrence_equality(spec, 8)
        for k, x in enumerate(seq):
            assert x == pytest.approx(0.5 * 2.0**-k, rel=1e-13)

    def test_zero_start_recurrence(self):
        assert recurrence_equality(IterationSpec(3.0, 2.0, 1.0, 0.0), 5) == [0.0] * 6

    def test_overflow_reported(self):
        spec = IterationSpec(K=2.0, A=2.0, nu=1.0, X0=10.0)
        with pytest.raises(OverflowError):
            recurrence_equality(spec, 12)
        with pytest.raises(OverflowError):
            closed_form_bound(spec, 12)

    @given(
        k_const=st.floats(0.5, 20.0),
        a_const=st.floats(1.01, 8.0),
        nu=st.floats(0.2, 2.0),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_decay_below_threshold(self, k_const, a_const, nu, frac):
        # at frac = 1 the bound holds with equality, so the tolerance must
        # cover the recurrence's forward error, which the superlinear update
        # amplifies by (1 + nu) per step
        spec0 = IterationSpec(k_const, a_const, nu, 0.0)
        spec = IterationSpec(k_const, a_const, nu, frac * theta(spec0))
        logs = recurrence_log(spec, 60)
        log_theta = math.log(theta(spec0))
        log_a = math.log(a_const)
        scale = max(1.0, abs(math.log(k_const)), abs(log_a), abs(log_theta))
        for k, lg in enumerate(logs):
            if lg == -math.inf:
                continue
            slack = (1.0 + nu) ** k * 64 * np.finfo(float).eps * scale + 1e-9
            assert lg <= log_theta - (k / nu) * log_a + slack


class TestLevelSets:
    def test_truncate_examples(self, grid64):
        f = constant_field(grid64, 3.0)
        assert np.all(truncate(f, 2.0).values == 1.0)
        assert np.all(truncate(f, 5.0).values == 0.0)

    def test_truncate_pointwise_oracle(self, grid64):
        rng = np.random.default_rng(21)
        vals = rng.normal(size=grid64.shape)
        f = ScalarField(grid64, vals)
        for k in (-0.5, 0.0, 0.7):
            assert np.array_equal(truncate(f, k).values, np.maximum(vals - k, 0.0))

    @given(k1=st.floats(-2, 2), k2=st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_truncate_monotone_in_level(self, k1, k2):
        g = make_grid(2, 16, 1.0, 1.0)
        rng = np.random.default_rng(22)
        f = ScalarField(g, rng.normal(size=g.shape))
        lo, hi = min(k1, k2), max(k1, k2)
        assert np.all(truncate(f, lo).values >= truncate(f, hi).values)

    def test_measure_of_constant(self, grid64):
        f = constant_field(grid64, 2.0)
        assert level_set_measure(f, 1.0) == pytest.approx(grid64.volume)
        assert level_set_measure(f, 2.0) == 0.0
        assert level_set_measure(f, 3.0) == 0.0

    def test_measure_half_domain(self):
        g = make_grid(2, 32, 2.0, 1.0)
        x, _ = g.meshgrid()
        f = ScalarField(g, (x < 1.0).astype(float))
        assert level_set_measure(f, 0.5) == pytest.approx(0.5 * g.volume, rel=1e-12)

    def test_measure_nonincreasing_in_level(self, grid64):
        rng = np.random.default_rng(23)
        f = ScalarField(grid64, rng.normal(size=grid64.shape))
        levels = np.linspace(-2, 2, 17)
        measures = [level_set_measure(f, k) for k in levels]
        assert all(a >= b for a, b in zip(measures, measures[1:]))

    def test_right_continuity_up_to_one_cell_layer(self):
        # on a tent profile a tiny raise of the level can only drop one layer
        g, h, _, _ = _tent_field()
        f = ScalarField(g, h)
        layer = g.n * g.cell_volume  # one column of cells (tent varies in x only)
        for k in (0.05, 0.1, 0.25):
            jump = level_set_measure(f, k) - level_set_measure(f, k + 1e-12)
            assert 0.0 <= jump <= 2 * layer + 1e-12


class TestLadder:
    def test_explicit_levels(self):
        lad = ladder(4.0, 2.0, 2)
        assert lad.levels == pytest.approx([2.0, 4.0, 5.0])
        assert lad.limit == pytest.approx(6.0)

    def test_starts_at_base(self):
        assert ladder(7.0, 1.25, 0).levels[0] == 1.25

    def test_monotone(self):
        lad = ladder(3.0, 1.0, 12)
        assert np.all(np.diff(lad.levels) > 0)

    def test_warns_when_scale_too_small(self):
        with pytest.warns(UserWarning, match="twice the base"):
            ladder(1.0, 2.0, 3)


def _tent_field(n=64, L=2.0, m=8, amp=0.5):
    g = make_grid(2, n, L, 1.0)
    dx = g.dx
    x, _ = g.meshgrid()
    c = L / 2.0
    s = m * dx
    h = np.maximum(0.0, 1.0 - np.abs(x - c) / s) * amp
    return g, h, amp / s, m


class TestFlatAwareGradient:
    def test_tent_hand_quadrature(self):
        g, h, slope, m = _tent_field()
        grad = flat_aware_gradient(ScalarField(g, h))
        # per-column hand values: full slope on 2(m-1) columns, half slope on
        # the two foot columns, zero at the apex and outside
        energy = float(np.sum(grad**2) * g.cell_volume)
        hand_1d = 2 * (m - 1) * slope**2 + 2 * (slope / 2.0) ** 2
        hand = hand_1d * g.n * g.cell_volume
        assert energy == pytest.approx(hand, rel=1e-12)

    def test_zero_on_flat_regions(self, grid64):
        f = constant_field(grid64, 0.0)
        assert np.all(flat_aware_gradient(f) == 0.0)


def _traj(states):
    rec = TrajectoryRecord(states[0].grid)
    # the per-step columns a run records, at the given states only
    rec.times = np.array([s.t for s in states])
    rec.scalars = {
        "density.min": np.array([float(np.min(s.rho.values)) for s in states]),
        "veff.max": np.array([veff_max(Workspace(s)) for s in states]),
    }
    return rec


def _inverse(observed, states):
    """The states' times and inverse densities, as the certificate's per-state part keeps them."""
    ctx = observed(states, ("certificate",), {})
    return ctx["stored_times"], ctx["inverse_density"]


def _const_state(grid, rho_val, t, formulation="effective"):
    return FlowState(
        t,
        constant_field(grid, rho_val),
        VectorField(grid, np.zeros((grid.dim,) + grid.shape)),
        formulation,
    )


def _truncation_energy(states, k):
    """sup-in-time L2 mass of (1/rho - k)_+ plus its time-integrated squared gradient."""
    return sum(truncation_terms(map(inverse_density, states), [s.t for s in states], k))


class TestTruncationEnergy:
    def test_level_above_sup_gives_zero(self, grid64):
        states = [_const_state(grid64, 1.0, 0.0), _const_state(grid64, 1.0, 1.0)]
        assert _truncation_energy(states, 2.0) == 0.0

    def test_static_field_time_scaling(self):
        g, h, slope, m = _tent_field()
        rho = 1.0 / (1.0 + h)  # inverse density is 1 + tent
        zero_vel = VectorField(g, np.zeros((2,) + g.shape))
        states = [
            FlowState(t, ScalarField(g, rho), zero_vel, "effective") for t in (0.0, 0.5, 1.0)
        ]
        w = truncate(ScalarField(g, 1.0 + h), 1.0)
        grad_sq = float(np.sum(flat_aware_gradient(w) ** 2) * g.cell_volume)
        l2_sq = float(np.sum(w.values**2) * g.cell_volume)
        expected = l2_sq + 1.0 * grad_sq
        assert _truncation_energy(states, 1.0) == pytest.approx(expected, rel=1e-12)


class TestCertificate:
    def test_constant_state_trivially_certified(self, grid64, observed):
        states = [_const_state(grid64, 1.0, t) for t in np.linspace(0.0, 1.0, 5)]
        cert = lower_bound_certificate(_traj(states), c_v_estimate=0.0, stored=_inverse(observed, states))
        assert cert.certified and cert.sound
        # base 2 * sup(1/rho) = 2, minimal admissible scale 2 * base = 4
        assert cert.bound == pytest.approx(6.0)
        assert cert.observed == pytest.approx(1.0)

    def test_windowing_follows_velocity_control(self, grid64, observed):
        states = [_const_state(grid64, 1.0, t) for t in np.linspace(0.0, 1.0, 11)]
        cert = lower_bound_certificate(_traj(states), c_v_estimate=2.0, stored=_inverse(observed, states))
        # window length 1/(2 c_v^2) = 1/8 over a unit horizon
        assert len(cert.windows) == 8
        assert cert.sound

    def test_adversarial_collapse_flagged(self, grid64, observed):
        # density collapses while the velocity stays at rest: the certificate
        # cannot account for the collapse, so soundness must fail
        times = np.linspace(0.0, 1.0, 6)
        states = [_const_state(grid64, 1.0 / (1.0 + 20.0 * t), t) for t in times]
        cert = lower_bound_certificate(_traj(states), c_v_estimate=0.0, stored=_inverse(observed, states))
        assert cert.certified
        assert not cert.sound
        assert cert.observed > cert.bound

    def test_invalid_velocity_estimate(self, grid64, observed):
        states = [_const_state(grid64, 1.0, 0.0)]
        cert = lower_bound_certificate(_traj(states), c_v_estimate=-1.0, stored=_inverse(observed, states))
        assert not cert.certified
        assert "invalid" in cert.reason

    def test_csv_shape(self, grid64, observed):
        states = [_const_state(grid64, 1.0, t) for t in (0.0, 1.0)]
        cert = lower_bound_certificate(_traj(states), c_v_estimate=0.0, stored=_inverse(observed, states))
        # certificate.csv has one column per window field, in field order
        assert len(CERTIFICATE_HEADER) == len(fields(WindowCertificate))
        assert {len(csv_line(astuple(w)).split(",")) for w in cert.windows} == {len(CERTIFICATE_HEADER)}


class _CountedDensity(np.ndarray):
    """A density array that counts the divisions by it: the forming of 1/rho."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.true_divide and inputs[-1] is self:
            self.divisions += 1
        plain = [x.view(np.ndarray) if isinstance(x, _CountedDensity) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _counted(states) -> list:
    """Each state's density array, swapped for one that counts the divisions by it."""
    arrays = []
    for s in states:
        counted = s.rho.values.view(_CountedDensity)
        counted.divisions = 0
        object.__setattr__(s.rho, "values", counted)
        arrays.append(counted)
    return arrays


class TestCertificateReadsTheRecord:
    """The base, |v|_inf and the observed sup 1/rho come from the per-step
    columns at the stored rows; U0 from one inverse density per stored state."""

    def _record(self):
        """A run's record and what the certificate's per-state part kept of its stored states."""
        g = make_grid(2, 32, 4 * np.pi, 1.0)
        s = to_effective(make_preset("gaussian-bump", g))
        ctx = {}
        observe = audit_observer(("certificate",), ctx)
        rec = run(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=4e-3), state_stride=2, observe=observe)
        return rec, (ctx["stored_times"], ctx["inverse_density"])

    def test_window_values_follow_the_columns(self):
        rec, stored = self._record()
        assert rec.stored_rows(stored[0]) == [0, 2, 4]
        before = lower_bound_certificate(rec, c_v_estimate=0.0, stored=stored)
        assert before.windows[0].v_max == np.max(rec.scalars["veff.max"][[0, 2, 4]])
        assert before.observed == 1.0 / np.min(rec.scalars["density.min"][[0, 2, 4]])

        # rows between the stored states are not read
        rec.scalars["veff.max"][1] *= 10.0
        rec.scalars["density.min"][3] *= 0.5
        assert lower_bound_certificate(rec, c_v_estimate=0.0, stored=stored) == before

        rec.scalars["veff.max"][2] *= 10.0
        rec.scalars["density.min"][4] *= 0.5
        after = lower_bound_certificate(rec, c_v_estimate=0.0, stored=stored)
        assert after.windows[0].v_max == rec.scalars["veff.max"][2]
        assert after.windows[0].observed == after.observed == 1.0 / rec.scalars["density.min"][4]
        assert after.windows[0].u0 == before.windows[0].u0

    def test_lowered_base_row_moves_the_base(self):
        rec, stored = self._record()
        rec.scalars["density.min"][0] *= 0.5
        cert = lower_bound_certificate(rec, c_v_estimate=0.0, stored=stored)
        assert cert.windows[0].base == 2.0 / rec.scalars["density.min"][0]

    @pytest.mark.parametrize(
        "c_v,rate", [(0.0, 1.0), (2.0, 1.0), (0.0, 3.0), (2.0, 3.0)], ids=["0.0", "2.0", "0.0-rate3", "2.0-rate3"]
    )
    def test_one_inverse_density_per_stored_state(self, grid64, observed, c_v, rate):
        # one 1/rho per state a window can read, none for the others: 1/rho =
        # 1 + rate t tops the first base 2 for t > 1/rate only (at rate 1 it
        # reaches 2 at t = 1, which truncates to zero at every window's level)
        times = np.linspace(0.0, 1.0, 11)
        states = [_const_state(grid64, 1.0 / (1.0 + rate * t), t) for t in times]
        rec = _traj(states)
        arrays = _counted(states)
        cert = lower_bound_certificate(rec, c_v_estimate=c_v, stored=_inverse(observed, states))
        assert len(cert.windows) == (1 if c_v == 0.0 else 8)
        assert [a.divisions for a in arrays] == [int(t > 1.0 / rate) for t in times]

    def test_stored_state_without_a_row_is_an_error(self, grid64, observed):
        states = [_const_state(grid64, 1.0, t) for t in (0.0, 1.0)]
        rec = _traj(states)
        rec.times = np.array([0.0, 0.5])
        with pytest.raises(FieldError, match="no row"):
            lower_bound_certificate(rec, c_v_estimate=0.0, stored=_inverse(observed, states))


class TestCertificateKeepsWhatItsWindowsRead:
    """The certificate's per-state part keeps a state's 1/rho only where it
    tops the first base, and the certificate is the one every 1/rho gives."""

    @pytest.mark.parametrize("c_v", [0.0, 1.0, 2.0])
    def test_kept_fields_give_the_certificate_of_every_field(self, observed, c_v):
        # 1/rho = (1 + 3t)(1 + tent) tops the first base 3 (twice its first max) for t > 1/3
        g, h, _, _ = _tent_field()
        vel = VectorField(g, np.full((2,) + g.shape, 0.5))
        states = [
            FlowState(t, ScalarField(g, 1.0 / ((1.0 + 3.0 * t) * (1.0 + h))), vel, "effective")
            for t in np.linspace(0.0, 1.0, 11)
        ]
        rec = _traj(states)
        times, kept = _inverse(observed, states)
        assert [w is not None for w in kept] == [t > 1.0 / 3.0 for t in times]
        cert = lower_bound_certificate(rec, c_v_estimate=c_v, stored=(times, kept))
        every = [inverse_density(s) for s in states]
        assert cert == lower_bound_certificate(rec, c_v_estimate=c_v, stored=(times, every))
        assert cert.windows[0].u0 > 0.0 or c_v == 2.0  # at c_v = 2 the first window ends at t = 1/8

    def test_none_adds_what_a_field_below_the_level_adds(self):
        g, h, _, _ = _tent_field()
        w, below = ScalarField(g, 2.0 + h), ScalarField(g, 1.0 + h)
        times = [0.0, 0.3, 1.0]
        assert truncation_terms([None, w, None], times, 1.5) == truncation_terms([below, w, below], times, 1.5)

    def test_run_like_demo_keeps_no_field(self):
        g = make_grid(2, 32, 4 * np.pi, 1.0)
        bump = make_preset("gaussian-bump", g, {"amplitude": 0.5, "width": 0.1 * g.box_length})
        ctx, every = {}, []
        part = audit_observer(("certificate",), ctx)

        def observe(ws, stored):
            part(ws, stored)
            if stored:
                every.append(inverse_density(ws.state))

        rec = run(to_effective(bump), SolverConfig(gamma=2.0, dt=1e-3, t_end=0.02), state_stride=5, observe=observe)
        times, kept = ctx["stored_times"], ctx["inverse_density"]
        assert kept == [None] * 5
        assert lower_bound_certificate(rec, 1.0, (times, kept)) == lower_bound_certificate(rec, 1.0, (times, every))


def _manufactured_states(grid, times, mu=2.0, amp=0.4):
    # rho = 1 + amp e^(-mu t) cos x with the velocity solving the mass
    # equation exactly through a spectral potential
    x, _ = grid.meshgrid()
    states = []
    for t in times:
        e = amp * math.exp(-mu * t)
        rho = 1.0 + e * np.cos(x)
        # div(rho v) must equal lap(rho) - d_t rho = (mu - 1) e cos x,
        # solved by v = grad(phi)/rho with phi = -(mu - 1) e cos x
        vx = (mu - 1.0) * e * np.sin(x) / rho
        vel = np.zeros((grid.dim,) + grid.shape)
        vel[0] = vx
        states.append(FlowState(float(t), ScalarField(grid, rho), VectorField(grid, vel), "effective"))
    return states


class TestInverseDensityResidual:
    def test_constant_state_zero_residual(self, grid64):
        states = [_const_state(grid64, 1.0, t) for t in (0.0, 0.1, 0.2)]
        _, res = inverse_density_pde_residual(states)
        assert np.max(res) <= 1e-12

    def test_manufactured_solution_second_order_sampling(self, grid64):
        # states satisfy the dynamics exactly; the residual comes only from
        # the centered time difference and must shrink quadratically
        res_by_dt = {}
        for dt in (2e-2, 1e-2):
            times = np.arange(0.0, 0.2 + dt / 2, dt)
            states = _manufactured_states(grid64, times)
            _, res = inverse_density_pde_residual(states)
            res_by_dt[dt] = float(np.max(res))
        ratio = res_by_dt[2e-2] / res_by_dt[1e-2]
        assert 3.3 <= ratio <= 4.7
        assert res_by_dt[1e-2] <= 5e-3

    def test_needs_three_states(self, grid64):
        states = [_const_state(grid64, 1.0, t) for t in (0.0, 0.1)]
        with pytest.raises(Exception, match="three stored states"):
            inverse_density_pde_residual(states)
