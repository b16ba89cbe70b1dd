import math

import numpy as np
import pytest

from nsklab.audits import bound_report
from nsklab.calibration import DRIFT_FACTOR, calibrated
from nsklab.estimates import (
    HOLDER_EXPONENT,
    LOG_FLOOR,
    EnergyBreakdown,
    bd_identity_audit,
    dissipation_rate,
    energy,
    equivalence_constants,
    jungel_bounds,
    log_law_audit,
    log_law_constant,
    pi_equivalence_audit,
    potential_energy_density,
    psi,
    region_split,
    reverse_holder_audit,
    second_order_terms,
    velocity_moments,
)
from nsklab.fields import (
    ScalarField,
    VectorField,
    constant_field,
    jacobian,
    make_grid,
    random_band_limited,
    sqrt_field,
)
from nsklab.probes import REVERSE_HOLDER_PS, ProbeError, _merge_worst, audit_observer, resolve_probes
from nsklab.selftest import lower_constant_min
from nsklab.solver import (
    FlowState,
    SolverConfig,
    Workspace,
    from_effective,
    make_preset,
    run,
    to_effective,
)
from oracles import hessian


def _bd_terms(observed, states):
    """Each state's integrals, as the bd-identity audit's per-state part keeps them."""
    return observed(states, ("bd-identity",), {})["second_order_terms"]


def _moments(states, exponents):
    """The states' times and ``velocity_moments``, as the reverse-Hoelder audit's per-state part keeps them."""
    return [s.t for s in states], [velocity_moments(Workspace(s), exponents) for s in states]


def _state(grid, rho_vals, vel_vals=None, formulation="primitive", t=0.0):
    vel = np.zeros((grid.dim,) + grid.shape) if vel_vals is None else vel_vals
    return FlowState(t, ScalarField(grid, rho_vals), VectorField(grid, vel), formulation)


def _v_energy(s):
    return velocity_moments(Workspace(s))[0]


def _jungel_terms(rho):
    """A density's D, A and B', as the jungel probes and audit read them."""
    return second_order_terms(Workspace(_state(rho.grid, rho.values)), identity=False)


def _jungel(rho):
    t = _jungel_terms(rho)
    return t["D"], t["A"], t["Bp"]


def _jungel_rows(rho):
    return jungel_bounds(_jungel_terms(rho), rho.grid.dim)


class TestPotentialEnergyDensity:
    def test_far_field_value_is_minimum(self, grid64):
        pi = potential_energy_density(constant_field(grid64, 1.0), 1.0, 2.0)
        assert np.all(pi.values == 0.0)

    def test_closed_form_gamma_two(self, grid64):
        pi = potential_energy_density(constant_field(grid64, 3.0), 1.0, 2.0)
        assert pi.values.flat[0] == pytest.approx(2.0, rel=1e-14)
        # (rho - 1)^2 / 2 in closed form for gamma = 2
        rng = np.random.default_rng(5)
        vals = 1.0 + 0.8 * random_band_limited(grid64, rng).values
        pi2 = potential_energy_density(ScalarField(grid64, vals), 1.0, 2.0)
        assert np.max(np.abs(pi2.values - 0.5 * (vals - 1.0) ** 2)) <= 1e-12

    def test_gamma_one_substitution(self, grid64):
        pi = potential_energy_density(constant_field(grid64, math.e), 1.0, 1.0)
        assert pi.values.flat[0] == pytest.approx(1.0, rel=1e-14)

    def test_nonnegative_on_corpus(self, grid64, corpus64):
        for f in corpus64[:6]:
            rho = ScalarField(grid64, 1.0 + 0.9 * f.values)
            for gamma in (1.0, 1.5, 2.0, 2.7):
                pi = potential_energy_density(rho, 1.0, gamma)
                assert np.min(pi.values) >= 0.0

    def test_gamma_one_needs_positive_density(self, grid64):
        vals = np.ones(grid64.shape)
        vals[0, 0] = 0.0
        with pytest.raises(Exception):
            potential_energy_density(ScalarField(grid64, vals), 1.0, 1.0)

    def test_strictly_positive_away_from_far_field(self, grid64):
        for gamma in (1.0, 1.5, 2.0):
            for shift in (-0.5, -1e-3, 1e-3, 0.5, 3.0):
                rho = constant_field(grid64, 1.0 + shift)
                pi = potential_energy_density(rho, 1.0, gamma)
                assert np.min(pi.values) > 0.0, (gamma, shift)


class TestEquivalence:
    def test_explicit_constants_gamma_two(self):
        c1, c2 = equivalence_constants(2.0)
        assert c1 == pytest.approx(0.25)
        assert c2 == pytest.approx(8.0 / 9.0)

    def test_lower_constant_positive_on_gamma_grid(self):
        assert lower_constant_min(np.linspace(1.0, 3.0, 101)[1:]) > 0.0

    @pytest.mark.parametrize("broken", [lambda c1: -c1, lambda c1: math.nan], ids=["negated", "nan"])
    def test_positivity_check_sees_a_bad_constant(self, monkeypatch, broken):
        # broken for gamma > 2 only, past the grid's first point
        def constants(gamma):
            c1, c2 = equivalence_constants(gamma)
            return (broken(c1) if gamma > 2.0 else c1), c2

        monkeypatch.setattr("nsklab.selftest.equivalence_constants", constants)
        assert not lower_constant_min(np.linspace(1.0, 3.0, 101)[1:]) > 0.0

    def test_point_example(self, grid64):
        # rho = 5, rho_bar = 1, gamma = 2: pi = 8 between 4 and 128/9
        pi = potential_energy_density(constant_field(grid64, 5.0), 1.0, 2.0).values.flat[0]
        c1, c2 = equivalence_constants(2.0)
        assert pi == pytest.approx(8.0)
        assert c1 * 16.0 <= pi <= c2 * 16.0

    def test_pointwise_high_branch_zero_violations(self, grid64):
        rng = np.random.default_rng(9)
        base = np.abs(random_band_limited(grid64, rng).values)
        for gamma in (1.1, 1.5, 2.0, 2.5):
            rho = ScalarField(grid64, 4.0 + 96.0 * base)  # all >= 4 rho_bar
            reps = pi_equivalence_audit(rho, 1.0, gamma)
            assert all(r.passed for r in reps), (gamma, reps)

    def test_constant_far_field_vacuous(self, grid64):
        reps = pi_equivalence_audit(constant_field(grid64, 1.0), 1.0, 2.0)
        assert all(r.passed for r in reps)

    def test_mixed_field_passes(self, grid64):
        rng = np.random.default_rng(10)
        vals = 1.0 + 0.9 * random_band_limited(grid64, rng).values
        vals[0:4, 0:4] = 7.5  # force a populated high branch
        for gamma in (1.1, 1.5, 2.0, 2.5):
            reps = pi_equivalence_audit(ScalarField(grid64, vals), 1.0, gamma)
            assert all(r.passed for r in reps)


class TestEnergy:
    def test_constant_state_zero(self, grid64_wide):
        eb = energy(Workspace(make_preset("constant", grid64_wide)), 2.0)
        assert eb.kinetic == eb.potential == eb.fisher == 0.0
        assert eb.total == 0.0

    def test_kinetic_closed_form(self, grid64):
        x, _ = grid64.meshgrid()
        vel = np.zeros((2,) + grid64.shape)
        vel[0] = np.sin(x)
        eb = energy(Workspace(_state(grid64, np.ones(grid64.shape), vel)), 2.0)
        assert eb.kinetic == pytest.approx(0.25 * grid64.volume, rel=1e-12)
        assert eb.potential == 0.0
        assert eb.fisher == 0.0

    def test_total_is_sum(self):
        eb = EnergyBreakdown(1.0, 2.0, 3.5)
        assert eb.total == 6.5

    def test_resolution_robustness_of_initial_energy(self):
        values = []
        for n in (64, 128):
            g = make_grid(2, n, 4 * np.pi, 1.0)
            values.append(energy(Workspace(make_preset("gaussian-bump", g)), 2.0).total)
        assert abs(values[0] - values[1]) <= 1e-6 * values[1]

    def test_dissipation_balances_energy_rate(self, grid64_wide):
        # (E(t+dt) - E(t))/dt must converge to -(dissipation) as dt -> 0
        gamma = 2.0
        s = make_preset("random-large", grid64_wide, seed=6)
        errs = []
        for dt in (2e-4, 1e-4):
            cfg = SolverConfig(gamma=gamma, dt=dt, t_end=dt)
            rec = run(s, cfg, probes={"E": lambda ws: energy(ws, gamma).total})
            rate = (rec.scalars["E"][1] - rec.scalars["E"][0]) / dt
            errs.append(abs(rate + dissipation_rate(Workspace(s))) / dissipation_rate(Workspace(s)))
        assert errs[1] <= 0.6 * errs[0]
        assert errs[1] <= 0.05


class TestVEnergy:
    def test_zero_velocity(self, grid64_wide):
        s = to_effective(make_preset("constant", grid64_wide))
        assert _v_energy(s) == 0.0

    def test_closed_form(self, grid64):
        x, _ = grid64.meshgrid()
        vel = np.zeros((2,) + grid64.shape)
        vel[0] = np.sin(x)
        s = _state(grid64, np.ones(grid64.shape), vel, formulation="effective")
        assert _v_energy(s) == pytest.approx(0.5 * grid64.volume, rel=1e-12)

    def test_trajectory_bound_with_frozen_constant(self, grid64_wide, collecting):
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.1)
        s = to_effective(make_preset("gaussian-bump", grid64_wide))
        states = []
        run(s, cfg, state_stride=10, observe=collecting(states))
        e0 = energy(Workspace(s), 2.0).total
        sup_v = max(_v_energy(st) for st in states)
        c_allowed = DRIFT_FACTOR * calibrated("venergy.C.gaussian-bump")
        assert sup_v <= c_allowed * (1.0 + e0)


    @pytest.mark.parametrize(
        "exponents",
        [(4, 8, 16, 32), (32, 4.0, 3, 2.5, 8), (1, 2, 0.5, 6.0, 7, 4), (5.5, 12, 10, 2)],
    )
    def test_moments_equal_their_own_powers(self, exponents):
        # every even q's |v|^q is a prefix of one shared chain of products,
        # so each moment is the one its own chain v2 * v2 * ... gives
        g = make_grid(2, 32, 4 * np.pi, 1.0)
        rng = np.random.default_rng(11)
        rho = 0.5 + rng.random(g.shape)
        s = _state(g, rho, rng.normal(size=(2,) + g.shape), formulation="effective")
        ws = Workspace(s)
        energy_v, moments = velocity_moments(ws, exponents)
        v2 = ws.v2
        assert energy_v == float(np.sum(rho * v2) * g.cell_volume)
        assert list(moments) == list(exponents)
        for q in exponents:
            if q % 2 == 0:
                power = v2
                for _ in range(int(q) // 2 - 1):
                    power = power * v2
            else:
                power = v2 ** (q / 2.0)
            assert moments[q] == float(np.sum(rho * power) * g.cell_volume), q


class TestBdIdentity:
    def test_constant_state(self, grid64_wide, observed):
        rep = bd_identity_audit(_bd_terms(observed, [make_preset("constant", grid64_wide)]))
        assert rep.passed
        assert rep.lhs == rep.rhs == 0.0

    def test_static_density_reduces_to_hessian_term(self, grid64, observed):
        x, y = grid64.meshgrid()
        rho = 1.0 + 0.25 * np.cos(x) + 0.1 * np.sin(y)
        rep = bd_identity_audit(_bd_terms(observed, [_state(grid64, rho)]), tolerance=1e-10)
        assert rep.passed

    def test_moving_state_residual_small(self, grid64_wide, observed):
        s = make_preset("random-large", grid64_wide, seed=8)
        rep = bd_identity_audit(_bd_terms(observed, [s]))
        assert rep.passed, rep

    def test_along_run(self, grid64_wide):
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.05)
        for preset in ("gaussian-bump", "random-large"):
            ctx = {}
            observe = audit_observer(("bd-identity",), ctx)
            run(make_preset(preset, grid64_wide, seed=12), cfg, state_stride=10, observe=observe)
            rep = bd_identity_audit(ctx["second_order_terms"], tolerance=1e-6)
            assert rep.passed, (preset, rep)

    def test_reports_the_failing_state_not_the_largest_scaled_residual(self, grid64):
        # a 1e-10 residual on lhs = 1e-3 beside unit terms fails (ratio 1e-7 of
        # the asserted scale max(|lhs|, |rhs|)); a 1e-9 residual on unit terms
        # passes.  Scaled by the largest term the second looks worse.
        small = _state(grid64, np.ones(grid64.shape), t=0.0)
        unit = _state(grid64, np.ones(grid64.shape), t=1.0)
        fake = {
            small: {"lhs": 1e-3, "u": 1.0, "D": -1.0, "dt": 1e-3 + 1e-10},
            unit: {"lhs": 1.0, "u": 1.0, "D": 0.0, "dt": 1e-9},
        }
        rep = bd_identity_audit([fake[small], fake[unit]])
        assert not rep.passed
        assert rep.lhs == 1e-3
        assert rep.ratio == pytest.approx(1e-7, rel=1e-5)
        # and the row does not depend on the order of the states
        assert bd_identity_audit([fake[unit], fake[small]]) == rep


def _explicit_lhs(s) -> float:
    """int rho |grad v|^2 with v built by to_effective and differentiated by jacobian."""
    prim = s if s.formulation == "primitive" else from_effective(s)
    jv = jacobian(to_effective(prim).vel)
    return float(np.sum(s.rho.values * np.sum(jv**2, axis=(0, 1))) * s.grid.cell_volume)


def _band_limited_state(grid, seed):
    # log rho band-limited: no Nyquist-plane content, where the two forms differ
    rng = np.random.default_rng(seed)
    rho = np.exp(random_band_limited(grid, rng, amplitude=0.4).values)
    vel = np.stack([random_band_limited(grid, rng, amplitude=0.3).values for _ in range(grid.dim)])
    return _state(grid, rho, vel)


class TestBdExpansion:
    """grad v = grad u + hess log rho against differentiating v = u + grad log rho."""

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_band_limited_states(self, dim, n, formulation):
        g = make_grid(dim, n, 4 * np.pi, 1.0)
        for seed in (1, 2, 3):
            s = _band_limited_state(g, seed)
            if formulation == "effective":
                s = to_effective(s)
            lhs = second_order_terms(Workspace(s), convexity=False)["lhs"]
            assert lhs == pytest.approx(_explicit_lhs(s), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("preset", ["gaussian-bump", "random-large"])
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_along_run(self, grid64_wide, collecting, preset, formulation):
        s = make_preset(preset, grid64_wide, seed=12)
        if formulation == "effective":
            s = to_effective(s)
        states = []
        run(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=0.01), state_stride=2, observe=collecting(states))
        assert len(states) == 6
        for st in states:
            lhs = second_order_terms(Workspace(st), convexity=False)["lhs"]
            assert lhs == pytest.approx(_explicit_lhs(st), rel=1e-12, abs=0.0)

    def test_audit_reads_the_shared_terms(self, grid64_wide, observed):
        s = make_preset("random-large", grid64_wide, seed=8)
        t = second_order_terms(Workspace(s))
        rep = bd_identity_audit(_bd_terms(observed, [s]))
        assert (rep.lhs, rep.rhs) == (t["lhs"], t["u"] + t["D"] + t["dt"])


def _analytic_jungel(grid, amp=0.5):
    """Independent oracle: closed-form derivatives of rho = 1 + amp * exp(-r^2)."""
    coords = grid.meshgrid()
    c = 0.5 * grid.box_length
    d = grid.dim
    diffs = [x - c for x in coords]
    r2 = sum(t**2 for t in diffs)
    g = amp * np.exp(-r2)
    rho = 1.0 + g
    dg = [-2.0 * t * g for t in diffs]
    hess_g = np.empty((d, d) + grid.shape)
    for i in range(d):
        for j in range(d):
            hess_g[i, j] = (4.0 * diffs[i] * diffs[j] - (2.0 if i == j else 0.0)) * g
    cell = grid.cell_volume

    hess_log = np.empty_like(hess_g)
    hess_sqrt = np.empty_like(hess_g)
    for i in range(d):
        for j in range(d):
            hess_log[i, j] = hess_g[i, j] / rho - dg[i] * dg[j] / rho**2
            hess_sqrt[i, j] = hess_g[i, j] / (2.0 * np.sqrt(rho)) - dg[i] * dg[j] / (
                4.0 * rho**1.5
            )
    d_val = float(np.sum(rho * np.sum(hess_log**2, axis=(0, 1))) * cell)
    a_val = float(np.sum(hess_sqrt**2) * cell)
    grad_q = np.stack([t / (4.0 * rho**0.75) for t in dg])
    b_val = float(np.sum(np.sum(grad_q**2, axis=0) ** 2) * cell)
    return d_val, a_val, b_val


class TestJungel:
    def test_constant_density_all_zero(self, grid3d):
        d_val, a_val, b_val = _jungel(constant_field(grid3d, 2.0))
        assert d_val == a_val == b_val == 0.0

    def test_analytic_oracle_3d(self, grid3d):
        c = 0.5 * grid3d.box_length
        coords = grid3d.meshgrid()
        rho = ScalarField(
            grid3d, 1.0 + 0.5 * np.exp(-sum((x - c) ** 2 for x in coords))
        )
        d_val, a_val, b_val = _jungel(rho)
        d_ref, a_ref, b_ref = _analytic_jungel(grid3d)
        assert d_val == pytest.approx(d_ref, rel=1e-6)
        assert a_val == pytest.approx(a_ref, rel=1e-6)
        # quartic gradients of fractional powers resolve more slowly at 32^3
        assert b_val == pytest.approx(b_ref, rel=1e-4)
        assert d_val >= a_val / 7.0
        assert d_val >= b_val / 8.0

    def test_random_positive_densities_3d(self, grid3d):
        rng = np.random.default_rng(77)
        for _ in range(10):
            f = random_band_limited(grid3d, rng, max_mode=5, amplitude=0.5)
            reps = _jungel_rows(ScalarField(grid3d, 1.0 + f.values))
            assert all(r.passed for r in reps)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_parseval_hessian_of_sqrt_is_exact(self, dim, n):
        g = make_grid(dim, n, 4 * np.pi, 1.0)
        rho = ScalarField(g, 1.0 + 0.3 * np.random.default_rng(n).uniform(-1.0, 1.0, g.shape))
        srho = sqrt_field(rho)
        hat = np.fft.fftn(srho.values)
        for axis in range(dim):  # white noise carries every Nyquist plane
            assert np.max(np.abs(np.take(hat, n // 2, axis=axis))) > 1.0
        ref = float(np.sum(hessian(srho) ** 2) * g.cell_volume)
        _, a_val, _ = _jungel(rho)
        assert a_val == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert a_val == second_order_terms(Workspace(_state(g, rho.values)))["A"]

    def test_2d_reports_without_assertion(self, grid64):
        rng = np.random.default_rng(78)
        f = random_band_limited(grid64, rng, amplitude=0.5)
        reps = _jungel_rows(ScalarField(grid64, 1.0 + f.values))
        assert all(r.passed for r in reps)
        assert all("measured" in r.inequality_id for r in reps)
        assert all(r.kind == "measured" for r in reps)

    def test_3d_rows_are_asserted(self, grid3d):
        f = random_band_limited(grid3d, np.random.default_rng(79), max_mode=5, amplitude=0.5)
        assert [r.kind for r in _jungel_rows(ScalarField(grid3d, 1.0 + f.values))] == ["asserted"] * 2


class TestMergeWorst:
    def test_measured_rows_keep_the_largest_value(self):
        # one row per stored state, as the 2D jungel audit gives: the value
        # grows over the run, and a measured row's ratio is always 0
        measured = [
            bound_report("jungel.A.measured", lhs, math.inf, 0.0, "", kind="measured")
            for lhs in (1.0, 2.0, 3.0)
        ]
        asserted = [bound_report("pi.lower", lhs, 4.0, 0.0, "") for lhs in (1.0, 5.0, 3.0, 2.0)]
        merged = _merge_worst(measured + asserted)
        assert [(r.inequality_id, r.lhs) for r in merged] == [("jungel.A.measured", 3.0), ("pi.lower", 5.0)]


class TestWeightedNorm:
    """The ``norm.weighted.p<P>`` probe: (int rho |v|^(P+2))^(1/(P+2)) in effective form."""

    def test_constant_profile(self):
        g = make_grid(2, 16, 2.0, 1.0)  # volume 4
        vel = np.full((2,) + g.shape, 0.0)
        vel[0] = 3.0
        s = _state(g, np.ones(g.shape), vel, formulation="effective")
        probes = resolve_probes(["norm.weighted.p0", "norm.weighted.p2", "norm.weighted.p6"], 2.0)
        ws = Workspace(s)
        for p in (0.0, 2.0, 6.0):
            assert probes[f"norm.weighted.p{p:g}"](ws) == pytest.approx(3.0 * 4.0 ** (1.0 / (p + 2.0)), rel=1e-12)

    def test_zero_velocity(self, grid64_wide):
        s = to_effective(make_preset("constant", grid64_wide))
        assert resolve_probes(["norm.weighted.p4"], 2.0)["norm.weighted.p4"](Workspace(s)) == 0.0

    def test_rejects_negative_exponent(self):
        with pytest.raises(ProbeError, match="exponent must be a finite number >= 0"):
            resolve_probes(["norm.weighted.p-1"], 2.0)


class TestRegionSplit:
    def test_no_high_region(self, grid64_wide):
        s = make_preset("gaussian-bump", grid64_wide)
        row = region_split(s, 2.0)
        assert row.inequality_id == "region.chebyshev"
        assert row.lhs == 0.0
        assert row.passed

    def test_single_cell_spike(self, grid64_wide):
        g = grid64_wide
        vals = np.ones(g.shape)
        vals[5, 7] = 10.0
        row = region_split(_state(g, vals), 2.0)
        assert row.lhs == pytest.approx(g.cell_volume, rel=1e-12)
        assert row.passed

    def test_constant_far_field(self, grid64_wide):
        row = region_split(make_preset("constant", grid64_wide), 2.0)
        assert row.lhs == row.rhs == 0.0
        assert row.passed


class TestPsiAndLogLaw:
    def test_constant_profile_time_scaling(self):
        g = make_grid(2, 16, 2.0, 1.0)
        vel = np.zeros((2,) + g.shape)
        vel[0] = 2.0
        states = [
            _state(g, np.ones(g.shape), vel, formulation="effective", t=t)
            for t in (0.0, 0.5, 1.0)
        ]
        expected = {p: 1.0 * g.volume * 2.0**p for p in (1.0, 3.0)}
        assert psi(_moments(states, (1.0, 3.0)), (1.0, 3.0)) == pytest.approx(expected, rel=1e-12)

    def test_zero_velocity(self, grid64_wide):
        states = [to_effective(make_preset("constant", grid64_wide))]
        assert psi(_moments(states, (2.0,)), (2.0,)) == {2.0: 0.0}

    def test_log_floor_value(self):
        assert LOG_FLOOR == pytest.approx(math.exp(25.0 / 9.0), rel=1e-15)
        assert HOLDER_EXPONENT == pytest.approx(5.0 / 3.0)

    def test_constant_state_log_law(self, grid64_wide):
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.01)
        rec = run(to_effective(make_preset("constant", grid64_wide)), cfg)
        assert log_law_constant(rec) == 0.0
        assert log_law_audit(rec, preset="gaussian-bump").passed

    def test_preset_run_audits(self, grid64_wide):
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.1)
        ctx = {}
        observe = audit_observer(("reverse-holder",), ctx)
        rec = run(to_effective(make_preset("gaussian-bump", grid64_wide)), cfg, state_stride=10, observe=observe)
        assert log_law_audit(rec, preset="gaussian-bump").passed
        stored = ctx["stored_times"], ctx["velocity_moments"]
        rows = reverse_holder_audit(rec, REVERSE_HOLDER_PS, stored, preset="gaussian-bump")
        assert len(rows) == 3 and all(r.passed for r in rows)

    @pytest.mark.parametrize("preset", ["constant", None])
    def test_rows_without_a_frozen_constant_are_measured(self, grid64_wide, preset):
        # no psi.C3.<preset> or loglaw.cv.<preset> key: the rows record their
        # value and assert nothing, for both audits alike
        ctx = {}
        observe = audit_observer(("reverse-holder",), ctx)
        s = to_effective(make_preset("gaussian-bump", grid64_wide))
        rec = run(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=0.02), state_stride=10, observe=observe)
        stored = ctx["stored_times"], ctx["velocity_moments"]
        rows = [*reverse_holder_audit(rec, REVERSE_HOLDER_PS, stored, preset=preset), log_law_audit(rec, preset=preset)]
        assert [r.kind for r in rows] == ["measured"] * 4
        assert all(r.rhs == math.inf and r.lhs > 0.0 for r in rows)
