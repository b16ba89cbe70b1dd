"""Derived data computed once per state and shared.

Each sampled state gets one ``Workspace`` that holds the log-density
spectrum, grad(log rho), |v|^2 and, for an effective state, the spectra of
rho and v; the step, the far-field check, the always-recorded columns and
the probes read it, and probe families that read one underlying evaluation
share it through the workspace's floats.  None of this may change a single
output bit, and no derived array may outlive the step it belongs to.  The
run loop carries the spectra of rho and v from one effective step to the
next, which moves the trajectory by round-off only.  The bd-identity and
jungel audits share one derivation per stored state through the run's audit
context, in either order, and keep only its floats; the ``jungel.*`` probes
share it too where their flags agree.
"""

import dataclasses
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from nsklab import estimates, solver
from nsklab.fields import ScalarField, jacobian, make_grid
from nsklab.probes import audit_observer, resolve_audits, resolve_probes
from nsklab.solver import (
    FlowState,
    SolverConfig,
    TrajectoryRecord,
    Workspace,
    far_field_defect,
    from_effective,
    make_preset,
    run,
    step,
    to_effective,
)
from oracles import hessian

pytest_plugins = ["pytester"]

DEMO_PROBES = (
    "energy.total", "energy.kinetic", "venergy",
    "norm.weighted.p2", "norm.weighted.p6", "sobolev.rho.H2",
)


def _bump(dim: int) -> FlowState:
    g = make_grid(dim, 32 if dim == 2 else 16, 4 * np.pi, 1.0)
    return to_effective(make_preset("gaussian-bump", g))


def _carried(s: FlowState, spectra: bool = True) -> Workspace:
    """s's workspace as the run loop hands it to the step: the log-density
    pair computed and, if asked, the spectra of rho and v."""
    ws = Workspace(s)
    ws.grad_log_rho
    if spectra:
        ws.spectra
    return ws


def _held(ws: Workspace) -> set:
    """The names of the derived arrays ws holds."""
    return set(vars(ws)) - {"state", "floats"}


COUNTED = """
import numpy as np
from nsklab.fields import make_grid


def test_counted(transforms):
    g = make_grid(3, 8, 1.0, 1.0)
    g.irfft(g.rfft(np.zeros(g.shape)))
    assert transforms == ["rfft", "irfft"]


def test_stray(transforms):
    np.fft.rfftn(np.zeros((8, 8)))


def test_stray_swallowed(transforms):
    try:
        np.fft.ifft(np.zeros(8))
    except AssertionError:
        pass
"""


def test_the_counter_fails_a_transform_it_cannot_count(pytester):
    # the ``transforms`` fixture counts Grid.rfft/Grid.irfft calls, and a
    # numpy.fft call from anywhere else fails the test, even when the code
    # under test swallows the error
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyfile(COUNTED)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=2, failed=1, errors=2)


class TestCarriedStep:
    @pytest.mark.parametrize("dim,expected", [(2, 11), (3, 19)])
    def test_carried_state_steps_with_fewer_transforms(self, transforms, dim, expected):
        s = _bump(dim)
        ws = _carried(s)
        transforms.clear()
        step(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3), ws)
        assert len(transforms) == expected

    @pytest.mark.parametrize("dim,expected", [(2, 18), (3, 30)])
    def test_sampled_primitive_state_steps_with_one_transform_fewer(self, transforms, dim, expected):
        # the sample's veff.max formed the log-density spectrum the step reads
        s = from_effective(_bump(dim))
        ws = Workspace(s)
        solver.veff_max(ws)
        ws.drop_sample_data()
        transforms.clear()
        step(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3), ws)
        assert len(transforms) == expected

    @pytest.mark.parametrize("dim,expected", [(2, 17), (3, 27)])
    def test_gamma_one_budget(self, transforms, dim, expected):
        s = _bump(dim)
        transforms.clear()
        step(s, SolverConfig(gamma=1.0, dt=1e-3, t_end=1e-3))
        assert len(transforms) == expected
        assert set(transforms) == {"rfft", "irfft"}

    @pytest.mark.parametrize("dim,expected", [(2, 17), (3, 27)])
    def test_gamma_one_carry_plus_step_keeps_budget(self, transforms, dim, expected):
        # the run loop's own derivation plus the step costs what one bare step does
        s = _bump(dim)
        transforms.clear()
        step(s, SolverConfig(gamma=1.0, dt=1e-3, t_end=1e-3), _carried(s, spectra=False))
        assert len(transforms) == expected

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_carried_step_is_bit_identical(self, dim, gamma):
        s = _bump(dim)
        cfg = SolverConfig(gamma=gamma, dt=1e-3, t_end=1e-3)
        a = step(s, cfg)
        for ws in (Workspace(s), _carried(s, spectra=False), _carried(s)):
            b = step(s, cfg, ws)
            assert np.array_equal(a.rho.values, b.rho.values)
            assert np.array_equal(a.vel.components, b.vel.components)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_step_replaces_the_carried_spectra_by_the_new_states(self, dim):
        s = _bump(dim)
        ws = _carried(s)
        new = step(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3), ws)
        (r_hat, v_hat), (fresh_r, fresh_v) = ws.spectra, Workspace(new).spectra
        for carried, recomputed in zip((r_hat, *v_hat), (fresh_r, *fresh_v)):
            scale = np.max(np.abs(recomputed))
            assert np.max(np.abs(carried - recomputed)) <= 1e-13 * scale

    @pytest.mark.parametrize("gamma,budget", [(1.0, (14, 23)), (2.0, (14, 23)), (2.5, (15, 24))])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_step_consumes_grad_log_rho(self, transforms, dim, gamma, budget):
        # the step forms v - 2 grad log rho in grad log rho's storage and takes
        # it out of the workspace, so a later read derives it afresh; each
        # gamma forms its pressure from another spectrum (log rho, rho, rho^(gamma-1))
        s = _bump(dim)
        cfg = SolverConfig(gamma=gamma, dt=1e-3, t_end=1e-3)
        fresh = Workspace(s)
        for read in (lambda ws: ws.grad_log_rho, lambda ws: ws.primitive.vel.components):
            ws = _carried(s, spectra=False)
            transforms.clear()
            step(s, cfg, ws)
            assert len(transforms) == budget[dim - 2]
            assert "grad_log_rho" not in _held(ws)
            assert np.array_equal(read(ws), read(fresh))

    @pytest.mark.parametrize("formulation", ["effective", "primitive"])
    def test_step_builds_its_state_without_revalidating(self, monkeypatch, formulation):
        # _new_state has checked positivity and finiteness once; the
        # constructors' own checks must not run a second pass
        s = _bump(3) if formulation == "effective" else from_effective(_bump(3))
        checks = []
        for cls in (solver.ScalarField, solver.VectorField, FlowState):
            monkeypatch.setattr(cls, "__post_init__", lambda self, _c=cls: checks.append(_c))
        new = step(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3))
        assert checks == []
        assert new.formulation == formulation and new.t == s.t + 1e-3
        assert new.rho.values.dtype == new.vel.components.dtype == np.float64

    def test_formulation_changes_use_and_drop_the_carried_copy(self, transforms):
        # the workspace's views read its grad(log rho) and are never kept
        s = _bump(2)
        ws = _carried(s, spectra=False)
        transforms.clear()
        prim = ws.primitive
        assert transforms == []
        assert _held(ws) == {"log_rho_hat", "grad_log_rho"}
        assert ws.primitive is not prim
        assert np.array_equal(prim.vel.components, from_effective(s).vel.components)
        assert far_field_defect(prim) == far_field_defect(s)
        assert Workspace(s).effective is s and Workspace(prim).primitive is prim

    def test_primitive_states_carry_nothing(self):
        # the primitive step reads only the log-density spectrum of the sample, so only it is held across it
        g = make_grid(2, 32, 4 * np.pi, 1.0)
        ws = Workspace(make_preset("gaussian-bump", g))
        resolve_probes(DEMO_PROBES, 2.0)["venergy"](ws)
        assert _held(ws) == {"log_rho_hat", "grad_log_rho", "v2"}
        ws.drop_sample_data()
        assert _held(ws) == {"log_rho_hat"}
        effective = _carried(_bump(2))
        effective.v2
        effective.drop_sample_data()
        assert _held(effective) == {"log_rho_hat", "grad_log_rho", "spectra"}


class TestRunLoop:
    CFG = SolverConfig(gamma=2.0, dt=1e-3, t_end=6e-3)

    def test_demo_loop_costs_16_transforms_per_step(self, transforms):
        # one more step costs the step, the next state's grad(log rho) and one sample
        s = _bump(2)
        counts = []
        for n_steps in (1, 2):
            transforms.clear()
            cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=n_steps * 1e-3)
            run(s, cfg, probes=resolve_probes(DEMO_PROBES, 2.0))
            counts.append(len(transforms))
        assert counts[1] - counts[0] == 16

    @pytest.mark.parametrize("formulation,horizon", [("effective", 3), ("primitive", 0)])
    def test_a_per_step_read_costs_no_transform_per_step(self, transforms, formulation, horizon):
        # an observer that reads the log-density pair and |v|^2 on every sample
        # reads what the sample or the next step forms anyway.  Only the
        # effective horizon state, which no step follows, forms its log
        # spectrum and both gradient components for the read: 3 transforms per run
        s = _bump(2) if formulation == "effective" else from_effective(_bump(2))
        extra = []
        for n_steps in (5, 10):
            counts = []
            for observe in (None, lambda ws, stored: (ws.grad_log_rho, ws.log_rho_hat, ws.v2)):
                transforms.clear()
                run(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=n_steps * 1e-3), observe=observe)
                counts.append(len(transforms))
            extra.append(counts[1] - counts[0])
        assert extra == [horizon, horizon]

    def test_stored_states_carry_nothing(self, collecting):
        s = _bump(2)
        states = []
        run(s, self.CFG, probes=resolve_probes(DEMO_PROBES, 2.0), observe=collecting(states))
        assert len(states) == 7
        assert states[0] is s
        fields = [f.name for f in dataclasses.fields(FlowState)]
        assert fields == ["t", "rho", "vel", "formulation"]
        assert all(sorted(vars(st)) == sorted(fields) for st in states)

    def test_trajectory_matches_bare_stepping(self, collecting):
        # run() is stepping with carried spectra, bit for bit
        s = _bump(2)
        states = []
        run(s, self.CFG, observe=collecting(states))
        ws = Workspace(s)
        for k in range(6):
            new = step(ws.state, self.CFG, ws)
            assert np.array_equal(states[k + 1].rho.values, new.rho.values)
            assert np.array_equal(states[k + 1].vel.components, new.vel.components)
            ws = Workspace(new, ws.spectra)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_carried_spectra_stay_within_round_off_of_bare_stepping(self, dim):
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=20e-3)
        s = _bump(dim)
        # the 3D test bump on 16^3 sits above the far-field tolerance at the rim
        rec = run(s, cfg, check_far_field=False)
        bare = s
        for _ in range(20):
            bare = step(bare, cfg)
        last = rec.final
        pairs = ((last.rho.values, bare.rho.values), (last.vel.components, bare.vel.components))
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_series_match_probes_on_fresh_states(self, collecting):
        states = []
        rec = run(_bump(2), self.CFG, probes=resolve_probes(DEMO_PROBES, 2.0), observe=collecting(states))
        assert len(states) == len(rec.times)
        fresh_probes = resolve_probes(DEMO_PROBES, 2.0)
        for i, s in enumerate(states):
            assert rec.scalars["veff.max"][i] == solver.veff_max(Workspace(s))
            for name, fn in fresh_probes.items():
                assert rec.scalars[name][i] == fn(Workspace(s)), (name, i)

    @pytest.mark.parametrize("formulation", ["effective", "primitive"])
    def test_one_v2_gives_the_former_veff_max_and_moments(self, formulation):
        # the former veff.max summed c * c per component and velocity_moments
        # took np.sum(c**2, axis=0) of a converted state; one |v|^2 gives both
        rng = np.random.default_rng(5)
        for dim, n in ((2, 128), (3, 64)):
            g = make_grid(dim, n, 4 * np.pi, 1.0)
            s = make_preset("random-large", g, seed=int(rng.integers(100)))
            if formulation == "effective":
                s = to_effective(s)
            ws = Workspace(s)
            v = ws.effective.vel.components
            assert solver.veff_max(ws) == np.sqrt(np.max(sum(c * c for c in v)))
            rho, cell = s.rho.values, g.cell_volume
            former = np.sum(v**2, axis=0)
            energy_v, moments = estimates.velocity_moments(ws, (4.0,))
            assert energy_v == float(np.sum(rho * former) * cell)
            assert moments[4.0] == float(np.sum(rho * np.sqrt(former) ** 4.0) * cell)


class TestProbeFamiliesEvaluateOnce:
    @pytest.mark.parametrize(
        "attr,names",
        [
            ("energy", ("energy.total", "energy.kinetic", "energy.potential", "energy.fisher")),
            ("second_order_terms", ("jungel.D", "jungel.A", "jungel.Bp")),
            (
                "v_energy_dissipations",
                ("venergy.pressure_dissipation", "venergy.velocity_dissipation"),
            ),
            ("velocity_moments", ("venergy", "norm.weighted.p2", "norm.weighted.p6")),
            ("velocity_moments", ("psi.p3", "psi.p5.5")),
            ("velocity_moments", ("venergy", "psi.p3", "norm.weighted.p2", "psi.p4")),
        ],
    )
    def test_one_call_per_sampled_state(self, monkeypatch, attr, names):
        original = getattr(estimates, attr)
        seen = []

        def counted(*args, **kwargs):
            seen.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(estimates, attr, counted)
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=4e-3)
        rec = run(_bump(2), cfg, probes=resolve_probes(names, 2.0))
        assert len(seen) == len(rec.times) == 5
        # and each family member reads its own entry of the shared evaluation
        monkeypatch.setattr(estimates, attr, original)
        fresh = resolve_probes(names, 2.0)
        for name in names:
            assert rec.scalars[name][-1] == fresh[name](Workspace(rec.final))

    def test_memo_tells_states_apart(self):
        probes = resolve_probes(("energy.total",), 2.0)
        a = _bump(2)
        b = step(a, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3))
        ea, eb = probes["energy.total"](Workspace(a)), probes["energy.total"](Workspace(b))
        assert ea == estimates.energy(Workspace(a), 2.0).total
        assert eb == estimates.energy(Workspace(b), 2.0).total
        assert ea != eb

    def test_memo_does_not_keep_states_alive(self):
        # the shared evaluations live on the workspace as floats, never in the probes
        probes = resolve_probes(("energy.total", "venergy", "norm.weighted.p2"), 2.0)
        s = _bump(2)
        ws = Workspace(s)
        for fn in probes.values():
            fn(ws)
        ref = weakref.ref(s)
        del s, ws
        assert ref() is None


class TestVelocityFunctionalsReadOnePass:
    """The reverse-Hoelder audit reads its six psi exponents and c4's initial
    v-energy in one pass."""

    def test_one_velocity_moments_call_per_stored_state(self, monkeypatch, observed, collecting):
        original = estimates.velocity_moments
        seen = []

        def counted(ws, exponents=()):
            seen.append((ws.state, tuple(exponents)))
            return original(ws, exponents)

        monkeypatch.setattr(estimates, "velocity_moments", counted)
        states = []
        rec = run(_bump(2), SolverConfig(gamma=2.0, dt=1e-3, t_end=0.02), observe=collecting(states))
        assert len(states) == 21
        audit = resolve_audits(("reverse-holder",))["reverse-holder"]
        rows = audit(rec, observed(states, ("reverse-holder",), {"preset": "gaussian-bump"}))
        assert [row.inequality_id for row in rows] == ["psi.reverse_holder"]
        # one pass over the stored states, which also gives c4 the initial v-energy
        assert len(seen) == 21
        assert [s for s, _ in seen] == states
        assert all(len(exps) == 5 for _, exps in seen)  # q = 5/3 * 3 = 5 is shared



def _record(dim: int, formulation: str, n_steps: int = 2) -> tuple[TrajectoryRecord, list]:
    """An empty record of the bump's grid and the bump's states at each step."""
    s = _bump(dim)
    if formulation == "primitive":
        s = from_effective(s)
    states = [s]
    for _ in range(n_steps):
        states.append(step(states[-1], SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3)))
    return TrajectoryRecord(s.grid), states


def _audit_rows(observed, names, record, states, ctx=None):
    """The rows of the named audits, run as one run's audits: the states fed
    to their per-state parts, then their finishes, with one context."""
    audits = resolve_audits(names)
    ctx = observed(states, names, {} if ctx is None else ctx)
    return [row for name in names for row in audits[name](record, ctx)]


class TestSecondOrderAudits:
    """bd-identity and jungel: one derivation per stored state through the
    run's audit context, floats only."""

    # transforms per stored state (before sharing, 3D: 41, 18, 59 primitive
    # and 45, 18, 63 effective; 2D: 24, 11, 35 and 27, 11, 38).  An effective
    # state took one more, 33 and 21, while the pass formed its own spectrum
    # of log rho beside the workspace's
    @pytest.mark.parametrize(
        "dim,formulation,names,expected",
        [
            (3, "primitive", ("bd-identity",), 25),
            (3, "primitive", ("jungel",), 12),
            (3, "primitive", ("bd-identity", "jungel"), 29),
            (3, "primitive", ("jungel", "bd-identity"), 29),
            (3, "effective", ("bd-identity", "jungel"), 32),
            (2, "primitive", ("bd-identity",), 15),
            (2, "primitive", ("jungel",), 8),
            (2, "primitive", ("bd-identity", "jungel"), 18),
            (2, "primitive", ("jungel", "bd-identity"), 18),
            (2, "effective", ("bd-identity", "jungel"), 20),
        ],
    )
    def test_transforms_per_stored_state(self, transforms, observed, dim, formulation, names, expected):
        rec, states = _record(dim, formulation)
        assert len(states) == 3
        transforms.clear()
        _audit_rows(observed, names, rec, states)
        assert len(transforms) == 3 * expected
        assert set(transforms) == {"rfft", "irfft"}

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_rows_do_not_depend_on_order_or_sharing(self, observed, dim, formulation):
        rec, states = _record(dim, formulation)
        first = _audit_rows(observed, ("bd-identity", "jungel"), rec, states)
        second = _audit_rows(observed, ("jungel", "bd-identity"), rec, states)
        assert first == second[2:] + second[:2]
        # and each audit alone gives the rows it gives when shared
        alone = _audit_rows(observed, ("bd-identity",), rec, states) + _audit_rows(observed, ("jungel",), rec, states)
        assert first == alone

    def test_one_derivation_per_stored_state_and_only_floats_kept(self, monkeypatch, observed):
        original = estimates.second_order_terms
        seen = []

        def counted(ws, **flags):
            out = original(ws, **flags)
            seen.append((ws.state, out))
            return out

        monkeypatch.setattr(estimates, "second_order_terms", counted)
        rec, states = _record(2, "primitive", n_steps=4)
        _audit_rows(observed, ("jungel", "bd-identity"), rec, states)
        assert [s for s, _ in seen] == states
        for _, out in seen:
            assert sorted(out) == ["A", "Bp", "D", "dt", "lhs", "u"]
            assert all(type(v) is float for v in out.values())

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_stored_pass_runs_without_the_sample_data(self, monkeypatch, dim, formulation):
        # the workspace as the pass leaves it holds all it held during the
        # pass: no |v|^2, and grad log rho only where the step consumes it
        original, held = estimates.second_order_terms, []

        def recorded(ws, **flags):
            out = original(ws, **flags)
            held.append({"v2", "grad_log_rho"} & set(ws.__dict__))
            return out

        monkeypatch.setattr(estimates, "second_order_terms", recorded)
        s = _bump(dim)
        if formulation == "primitive":
            s = from_effective(s)
        ctx = {}
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=3e-3)
        run(s, cfg, check_far_field=False, observe=audit_observer(("bd-identity", "jungel"), ctx))
        assert len(held) == len(ctx["stored_times"]) == 4
        expected = set() if formulation == "primitive" else {"grad_log_rho"}
        assert held == [expected] * 4

    @pytest.mark.parametrize("dim", [2, 3])
    def test_entrywise_sums_equal_the_full_tensors(self, dim):
        # the reference builds the d x d tensors that the pass adds up one entry at a time
        g = make_grid(dim, 32 if dim == 2 else 16, 4 * np.pi, 1.0)
        s = make_preset("random-large", g, seed=3)
        hess, jac = hessian(ScalarField(g, np.log(s.rho.values))), jacobian(s.vel)

        def weighted(tensor):
            return float(np.sum(s.rho.values * np.sum(tensor**2, axis=(0, 1))) * g.cell_volume)

        t = estimates.second_order_terms(Workspace(s))
        assert (t["D"], t["u"], t["lhs"]) == (weighted(hess), weighted(jac), weighted(jac + hess))

    @pytest.mark.parametrize("audit,calls", [("jungel", 51), ("bd-identity", 57)])
    def test_jungel_probes_share_the_stored_states_derivation(self, monkeypatch, audit, calls):
        # jungel's flags are the probes' (no identity, convexity): its 6 stored
        # states reuse the probes' derivation; bd-identity's flags differ
        original, seen = estimates.second_order_terms, []
        monkeypatch.setattr(
            estimates, "second_order_terms", lambda ws, **flags: seen.append(flags) or original(ws, **flags)
        )

        def audited(probes):
            ctx = {}
            rec = run(
                make_preset("random-large", make_grid(2, 64, 4 * np.pi, 1.0), seed=3),
                SolverConfig(gamma=2.0, dt=1e-3, t_end=0.05),
                probes=resolve_probes(probes, 2.0),
                state_stride=10,
                observe=audit_observer((audit,), ctx),
            )
            return rec, ctx, resolve_audits((audit,))[audit](rec, ctx)

        rec, ctx, rows = audited(("jungel.D", "jungel.A", "jungel.Bp"))
        assert (len(rec.times), len(ctx["stored_times"])) == (51, 6)
        assert len(seen) == calls
        stored = rec.stored_rows(ctx["stored_times"])
        assert rec.scalars["jungel.D"][stored].tolist() == [terms["D"] for terms in ctx["second_order_terms"]]
        seen.clear()
        assert audited(())[2] == rows  # the rows the audit gives without the probes
        assert len(seen) == 6

    def test_memo_does_not_keep_states_alive(self, observed):
        ctx = {}
        rec, states = _record(2, "primitive")
        _audit_rows(observed, ("bd-identity", "jungel"), rec, states, ctx)
        assert len(ctx["second_order_terms"]) == len(states)
        assert all(type(v) is float for t in ctx["second_order_terms"] for v in t.values())
        refs = [weakref.ref(s) for s in states]
        del rec, states
        assert all(r() is None for r in refs)


class TestEstimatesReadTheWorkspace:
    """Every estimate that derives a field from a state reads the state's
    workspace: no estimate builds a workspace or converts a state of its own."""

    def test_one_workspace_per_sample_and_no_conversion(self, monkeypatch):
        s = _bump(2)
        built, converted = [], []
        init = Workspace.__init__
        monkeypatch.setattr(Workspace, "__init__", lambda ws, *a, **k: built.append(ws) or init(ws, *a, **k))
        # every module that binds from_effective, under whatever name it imported
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("nsklab") and hasattr(module, "from_effective"):
                original = module.from_effective
                monkeypatch.setattr(module, "from_effective", lambda s, _f=original: converted.append(s) or _f(s))
        ctx = {}
        # the far-field check converts the initial state through a workspace of its own
        rec = run(
            s,
            SolverConfig(gamma=2.0, dt=1e-3, t_end=4e-3),
            probes=resolve_probes(("energy.total",), 2.0),
            check_far_field=False,
            observe=audit_observer(("bd-identity", "jungel"), ctx),
        )
        assert len(ctx["second_order_terms"]) == len(rec.times) == 5
        assert len(built) == 5
        assert converted == []

    @pytest.mark.parametrize("probes", [(), ("energy.total",)], ids=["bare", "energy"])
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 2.5])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("formulation", ["effective", "primitive"])
    def test_run_terms_equal_those_of_a_fresh_workspace(self, collecting, formulation, dim, gamma, probes):
        # the energy probe decides whether the workspace already holds
        # grad(log rho) when the observer reads it
        s = _bump(dim) if formulation == "effective" else from_effective(_bump(dim))
        ctx, states = {}, []
        observe = audit_observer(("bd-identity", "jungel"), ctx)
        run(
            s,
            SolverConfig(gamma=gamma, dt=1e-3, t_end=3e-3),
            probes=resolve_probes(probes, gamma),
            check_far_field=False,  # the 3D test bump on 16^3 sits above the tolerance at the rim
            observe=collecting(states, observe),
        )
        assert len(states) == 4
        assert ctx["second_order_terms"] == [estimates.second_order_terms(Workspace(st)) for st in states]
