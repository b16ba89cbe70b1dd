"""Derived fields computed once per state and shared.

The run loop attaches grad(log rho) and the log-density spectrum to the
current effective state, and the stepper, the formulation changes and the
probes read that copy; probe families that read one underlying evaluation
share it.  None of this may change a single output bit, and none of the
carried arrays may outlive the step they belong to.  The run loop also
carries the spectra of rho and v from one effective step to the next, which
moves the trajectory by round-off only.  The bd-identity and jungel audits
share one derivation per stored state, in either order, and keep only its
floats.
"""

import weakref

import numpy as np
import pytest

from nsklab import estimates, solver
from nsklab.fields import hessian, jacobian, log_field, make_grid
from nsklab.probes import resolve_audits, resolve_probes
from nsklab.solver import (
    FlowState,
    SolverConfig,
    TrajectoryRecord,
    far_field_defect,
    from_effective,
    make_preset,
    run,
    step,
    to_effective,
)

DEMO_PROBES = (
    "energy.total", "energy.kinetic", "venergy",
    "norm.weighted.p2", "norm.weighted.p6", "sobolev.rho.H2",
)
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


@pytest.fixture
def transforms(monkeypatch):
    """A list that records the name of every numpy.fft call made from now on."""
    calls = []
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
        )
    return calls


def _bump(dim: int) -> FlowState:
    g = make_grid(dim, 32 if dim == 2 else 16, 4 * np.pi, 1.0)
    return to_effective(make_preset("gaussian-bump", g))


def _fresh(s: FlowState) -> FlowState:
    return FlowState(s.t, s.rho, s.vel, s.formulation)


def _carries(s: FlowState) -> bool:
    return s.log_rho_hat is not None or s.grad_log_rho is not None


class TestCarriedStep:
    @pytest.mark.parametrize("dim,expected", [(2, 11), (3, 19)])
    def test_carried_state_steps_with_fewer_transforms(self, transforms, dim, expected):
        s = solver._carrying(_bump(dim))
        spectra = solver._spectra(s)
        transforms.clear()
        step(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3), spectra)
        assert len(transforms) == expected

    @pytest.mark.parametrize("dim,expected", [(2, 17), (3, 27)])
    def test_gamma_one_budget(self, transforms, dim, expected):
        s = _bump(dim)
        transforms.clear()
        step(s, SolverConfig(gamma=1.0, dt=1e-3, t_end=1e-3))
        assert len(transforms) == expected
        assert set(transforms) == {"rfftn", "irfftn"}

    @pytest.mark.parametrize("dim,expected", [(2, 17), (3, 27)])
    def test_gamma_one_carry_plus_step_keeps_budget(self, transforms, dim, expected):
        # the run loop's own derivation plus the step costs what one bare step does
        s = _bump(dim)
        transforms.clear()
        step(solver._carrying(s), SolverConfig(gamma=1.0, dt=1e-3, t_end=1e-3))
        assert len(transforms) == expected

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_carried_step_is_bit_identical(self, dim, gamma):
        s = _bump(dim)
        cfg = SolverConfig(gamma=gamma, dt=1e-3, t_end=1e-3)
        a = step(s, cfg)
        for b in (step(solver._carrying(s), cfg), step(s, cfg, solver._spectra(s))):
            assert np.array_equal(a.rho.values, b.rho.values)
            assert np.array_equal(a.vel.components, b.vel.components)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_step_replaces_the_carried_spectra_by_the_new_states(self, dim):
        s = _bump(dim)
        spectra = solver._spectra(s)
        new = step(s, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3), spectra)
        fresh = solver._spectra(new)
        for carried, recomputed in zip((spectra[0], *spectra[1]), (fresh[0], *fresh[1])):
            scale = np.max(np.abs(recomputed))
            assert np.max(np.abs(carried - recomputed)) <= 1e-13 * scale

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
        s = _bump(2)
        carried = solver._carrying(s)
        transforms.clear()
        prim = from_effective(carried)
        assert transforms == []
        assert not _carries(prim)
        assert np.array_equal(prim.vel.components, from_effective(s).vel.components)
        assert far_field_defect(carried) == far_field_defect(s)
        assert not _carries(to_effective(prim))

    def test_primitive_states_carry_nothing(self):
        g = make_grid(2, 32, 4 * np.pi, 1.0)
        s = make_preset("gaussian-bump", g)
        assert solver._carrying(s) is s


class TestRunLoop:
    CFG = SolverConfig(gamma=2.0, dt=1e-3, t_end=6e-3)

    def test_demo_loop_costs_18_transforms_per_step(self, transforms):
        # one more step costs the step, the next state's grad(log rho) and one sample
        s = _bump(2)
        counts = []
        for n_steps in (1, 2):
            transforms.clear()
            cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=n_steps * 1e-3)
            run(s, cfg, probes=resolve_probes(DEMO_PROBES, 2.0))
            counts.append(len(transforms))
        assert counts[1] - counts[0] == 18

    def test_stored_states_carry_nothing(self):
        rec = run(_bump(2), self.CFG, probes=resolve_probes(DEMO_PROBES, 2.0))
        assert len(rec.states) == 7
        assert not any(_carries(s) for s in rec.states)

    def test_carrying_initial_state_is_stored_bare(self):
        rec = run(solver._carrying(_bump(2)), self.CFG, state_stride=6)
        assert not any(_carries(s) for s in rec.states)

    def test_trajectory_matches_bare_stepping(self):
        # run() is stepping with carried spectra, bit for bit
        s = _bump(2)
        rec = run(s, self.CFG)
        carried, spectra = s, solver._spectra(s)
        for k in range(6):
            carried = step(carried, self.CFG, spectra)
            assert np.array_equal(rec.states[k + 1].rho.values, carried.rho.values)
            assert np.array_equal(rec.states[k + 1].vel.components, carried.vel.components)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_carried_spectra_stay_within_round_off_of_bare_stepping(self, dim):
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=20e-3)
        s = _bump(dim)
        # the 3D test bump on 16^3 sits above the far-field tolerance at the rim
        rec = run(s, cfg, check_far_field=False)
        bare = s
        for _ in range(20):
            bare = step(bare, cfg)
        last = rec.states[-1]
        pairs = ((last.rho.values, bare.rho.values), (last.vel.components, bare.vel.components))
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_series_match_probes_on_fresh_states(self):
        rec = run(_bump(2), self.CFG, probes=resolve_probes(DEMO_PROBES, 2.0))
        assert len(rec.states) == len(rec.times)
        fresh_probes = resolve_probes(DEMO_PROBES, 2.0)
        for i, s in enumerate(rec.states):
            f = _fresh(s)
            assert rec.scalars["veff.max"][i] == solver.veff_max(f)
            for name, fn in fresh_probes.items():
                assert rec.scalars[name][i] == fn(f), (name, i)


class TestProbeFamiliesEvaluateOnce:
    @pytest.mark.parametrize(
        "attr,names",
        [
            ("energy", ("energy.total", "energy.kinetic", "energy.potential", "energy.fisher")),
            ("jungel_terms", ("jungel.D", "jungel.A", "jungel.Bp")),
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

        def counted(*args):
            seen.append(args[0])
            return original(*args)

        monkeypatch.setattr(estimates, attr, counted)
        cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=4e-3)
        rec = run(_bump(2), cfg, probes=resolve_probes(names, 2.0))
        assert len(seen) == len(rec.times) == 5
        # and each family member reads its own entry of the shared evaluation
        monkeypatch.setattr(estimates, attr, original)
        fresh = resolve_probes(names, 2.0)
        for name in names:
            assert rec.scalars[name][-1] == fresh[name](_fresh(rec.states[-1]))

    def test_memo_tells_states_apart(self):
        probes = resolve_probes(("energy.total",), 2.0)
        a = _bump(2)
        b = step(a, SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3))
        ea, eb = probes["energy.total"](a), probes["energy.total"](b)
        assert ea == estimates.energy(a, 2.0).total
        assert eb == estimates.energy(b, 2.0).total
        assert ea != eb

    def test_memo_does_not_keep_states_alive(self):
        probes = resolve_probes(("energy.total",), 2.0)
        s = _bump(2)
        probes["energy.total"](s)
        ref = weakref.ref(s)
        del s
        assert ref() is None


class TestVelocityFunctionalsReadOnePass:
    """The reverse-Hoelder audit reads its six psi exponents in one pass."""

    def test_one_velocity_moments_call_per_stored_state_plus_one(self, monkeypatch):
        original = estimates.velocity_moments
        seen = []

        def counted(s, exponents=()):
            seen.append((s, tuple(exponents)))
            return original(s, exponents)

        monkeypatch.setattr(estimates, "velocity_moments", counted)
        rec = run(_bump(2), SolverConfig(gamma=2.0, dt=1e-3, t_end=0.02))
        assert len(rec.states) == 21
        audit = resolve_audits(("reverse-holder",))["reverse-holder"]
        rows = audit(rec, {"preset": "gaussian-bump"})
        assert [row.inequality_id for row in rows] == ["psi.reverse_holder"]
        # one pass over the stored states, plus the initial v-energy for c4
        assert len(seen) == 22
        assert [s for s, exps in seen if exps] == rec.states
        assert all(len(exps) == 5 for s, exps in seen if exps)  # q = 5/3 * 3 = 5 is shared



def _record(dim: int, formulation: str, n_steps: int = 2) -> TrajectoryRecord:
    s = _bump(dim)
    if formulation == "primitive":
        s = from_effective(s)
    rec = TrajectoryRecord(s.grid, formulation)
    rec.states = [s]
    for _ in range(n_steps):
        rec.states.append(step(rec.states[-1], SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3)))
    return rec


def _audit_rows(names, record):
    audits = resolve_audits(names)
    return [row for name in names for row in audits[name](record, {})]


class TestSecondOrderAudits:
    """bd-identity and jungel: one derivation per stored state, floats only."""

    # transforms per stored state (before sharing, 3D: 41, 18, 59 primitive
    # and 45, 18, 63 effective; 2D: 24, 11, 35 and 27, 11, 38)
    @pytest.mark.parametrize(
        "dim,formulation,names,expected",
        [
            (3, "primitive", ("bd-identity",), 25),
            (3, "primitive", ("jungel",), 12),
            (3, "primitive", ("bd-identity", "jungel"), 29),
            (3, "primitive", ("jungel", "bd-identity"), 29),
            (3, "effective", ("bd-identity", "jungel"), 33),
            (2, "primitive", ("bd-identity",), 15),
            (2, "primitive", ("jungel",), 8),
            (2, "primitive", ("bd-identity", "jungel"), 18),
            (2, "primitive", ("jungel", "bd-identity"), 18),
            (2, "effective", ("bd-identity", "jungel"), 21),
        ],
    )
    def test_transforms_per_stored_state(self, transforms, dim, formulation, names, expected):
        rec = _record(dim, formulation)
        assert len(rec.states) == 3
        transforms.clear()
        _audit_rows(names, rec)
        assert len(transforms) == 3 * expected
        assert set(transforms) == {"rfftn", "irfftn"}

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_rows_do_not_depend_on_order_or_sharing(self, dim, formulation):
        rec = _record(dim, formulation)
        first = _audit_rows(("bd-identity", "jungel"), rec)
        second = _audit_rows(("jungel", "bd-identity"), rec)
        assert first == second[2:] + second[:2]
        # and each audit alone gives the rows it gives when shared
        assert first == _audit_rows(("bd-identity",), rec) + _audit_rows(("jungel",), rec)

    def test_one_derivation_per_stored_state_and_only_floats_kept(self, monkeypatch):
        original = estimates.second_order_terms
        seen = []

        def counted(s, **flags):
            out = original(s, **flags)
            seen.append((s, out))
            return out

        monkeypatch.setattr(estimates, "second_order_terms", counted)
        rec = _record(2, "primitive", n_steps=4)
        _audit_rows(("jungel", "bd-identity"), rec)
        assert [s for s, _ in seen] == rec.states
        for _, out in seen:
            assert sorted(out) == ["A", "Bp", "D", "dt", "lhs", "u"]
            assert all(type(v) is float for v in out.values())

    @pytest.mark.parametrize("dim", [2, 3])
    def test_entrywise_sums_equal_the_full_tensors(self, dim):
        # the reference builds the d x d tensors that the pass adds up one entry at a time
        g = make_grid(dim, 32 if dim == 2 else 16, 4 * np.pi, 1.0)
        s = make_preset("random-large", g, seed=3)
        hess, jac = hessian(log_field(s.rho)), jacobian(s.vel)

        def weighted(tensor):
            return float(np.sum(s.rho.values * np.sum(tensor**2, axis=(0, 1))) * g.cell_volume)

        t = estimates.second_order_terms(s)
        assert (t["D"], t["u"], t["lhs"]) == (weighted(hess), weighted(jac), weighted(jac + hess))

    def test_memo_does_not_keep_states_alive(self):
        audits = resolve_audits(("bd-identity", "jungel"))
        rec = _record(2, "primitive")
        for name in ("bd-identity", "jungel"):
            audits[name](rec, {})
        refs = [weakref.ref(s) for s in rec.states]
        del rec
        assert all(r() is None for r in refs)
