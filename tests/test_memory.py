"""Working-set guards for the per-step and per-audit spectral passes, and for a whole run.

The steppers, the second-order pass and the probes hold one spectrum per
field and form each derivative as a transient; none builds a (d, d, n, ...)
tensor of derivative fields, and each step lets a spectrum go after its last
reader.
A run's audits keep no stored state, the certificate keeps a stored state's
1/rho only where one of its windows can read it, and a run lets go of its
initial state once it has stepped past it, so its peak does not grow with
the number of stored states while they stay below the certificate's first
base.  The peak is what tracemalloc sees numpy allocate during one
call at 3D 32^3 (3D 16^3 for the probes), in units of one real field R,
above what was live before the call (the inputs, and the workspace's carried
spectra where a step reads them, or the sampled workspace's |v|^2 and
grad log rho where a probe reads it).  Each bound is the measured peak plus
0.5R.

On glibc a run keeps the memory it frees for the fields it allocates next,
so a second run faults in next to no fresh pages; elsewhere the run is the
same run without that policy.  A run whose preset draws no random numbers
maps no OpenSSL.
"""

import ctypes
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from nsklab import estimates, experiment, solver
from nsklab.config import parse_config
from nsklab.fields import make_grid
from nsklab.probes import resolve_probes
from nsklab.solver import SolverConfig, make_preset, to_effective

CFG = SolverConfig(gamma=2.0, dt=1e-3, t_end=1e-3)


@pytest.fixture(scope="module")
def primitive():
    return make_preset("random-large", make_grid(3, 32, 4 * np.pi, 1.0), seed=3)


def _peak_in_fields(call, state) -> float:
    call()  # the first call may fill numpy's and the FFT library's caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / state.rho.values.nbytes


def test_primitive_step(primitive):
    # a full velocity-gradient and log-density-Hessian tensor pair peaked at
    # 44R; 21.2R while the step's last spectra all lived to its end; 18.8R
    # while the right-hand side and the momentum spectra both lived through the
    # stress loop; 15.1R now: y = m_hat + dt rhs is built in m_hat's storage,
    # the new density is formed before the loop, and each stress pair takes one
    # inverse transform
    assert _peak_in_fields(lambda: solver.step_primitive(primitive, CFG), primitive) <= 15.6


def test_second_order_pass(primitive):
    # on a workspace that holds the log-density spectrum, as a stored sample's
    # does.  The hess log rho, grad u and grad v tensors peaked at 33R; 11.3R
    # both with the pass's own spectrum of log rho and with the workspace's,
    # while each inverse transform allocated a complex intermediate per
    # leading axis; 10.2R now, with the transforms in the spectrum's storage
    ws = solver.Workspace(primitive)
    ws.log_rho_hat
    assert _peak_in_fields(lambda: estimates.second_order_terms(ws), primitive) <= 10.7


def test_second_order_pass_on_an_effective_state(primitive):
    # on a workspace that holds the log-density pair, as a stored effective
    # sample's does.  13.2R while the pass built the whole primitive velocity
    # u = v - grad log rho beside them; 10.8R now, with u read one component
    # at a time from Workspace.velocity
    s = to_effective(primitive)
    ws = solver.Workspace(s)
    ws.log_rho_hat, ws.grad_log_rho
    assert _peak_in_fields(lambda: estimates.second_order_terms(ws), s) <= 11.3


def test_effective_step_with_carried_spectra(primitive):
    s = to_effective(primitive)
    # one workspace per call, each as the run loop hands it over: each call overwrites its spectra
    workspaces = [solver.Workspace(s) for _ in range(2)]
    for ws in workspaces:
        ws.grad_log_rho, ws.spectra
    calls = iter(workspaces)
    # 9.8R while the new density's transform ran with the velocity's live;
    # 8.8R while the new velocity, the pressure spectrum and v - 2 grad log rho
    # lived through the transport loop; 4.2R in a transport transform once
    # w = v - 2 grad log rho took grad log rho's storage and the new velocity
    # took w's after the last reader of w; 3.7R now: each inverse transform
    # runs in its spectrum's storage, each transport product and the mass
    # flux are formed in place
    assert _peak_in_fields(lambda: solver.step_effective(s, CFG, next(calls)), s) <= 4.2


# per probe family, the bound on one sample's transient on a primitive and on
# an effective 3D 16^3 state (at 16^3 a half-lattice spectrum is 1.125R).
# energy.dissipation formed the (d, d, ...) velocity gradient, its transpose
# sum and its square: 28.0R and 31.1R; the venergy dissipations the gradient
# and its square beside a converted velocity: 22.1R and 19.0R.  Both now sum
# the gradient's entries one at a time and convert the velocity one
# component at a time: 8.7R (the d velocity spectra and the held
# off-diagonal entries of D(u)) and 4.5R.  The energy read a whole converted
# velocity for its kinetic term, 7.5R on an effective state; 4.4R now.
# sobolev.v.H<k> converted a primitive state's whole velocity, 6.5R; 4.5R
# now, one component at a time
PROBE_BOUNDS = {
    "energy.total": (4.9, 4.9),
    "energy.dissipation": (9.2, 9.2),
    "venergy": (1.6, 1.6),
    "venergy.velocity_dissipation": (5.0, 5.0),
    "jungel.D": (10.1, 10.1),
    "norm.weighted.p6": (2.6, 2.6),
    "psi.p4": (2.6, 2.6),
    "sobolev.rho.H2": (4.9, 4.9),
    "sobolev.v.H1": (5.0, 4.0),
    "besov.rho.1.2.2": (6.0, 6.0),
}


@pytest.fixture(scope="module")
def small_states():
    s = make_preset("random-large", make_grid(3, 16, 4 * np.pi, 1.0), seed=3)
    return {"primitive": s, "effective": to_effective(s)}


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
@pytest.mark.parametrize("name", list(PROBE_BOUNDS))
def test_probe_transient(small_states, name, formulation):
    state = small_states[formulation]
    probe = resolve_probes([name], 2.0)[name]

    def sampled():
        # a workspace as the run hands it to the probes: |v|^2 and grad log rho formed
        ws = solver.Workspace(state)
        ws.v2, ws.grad_log_rho
        return ws

    # fresh workspaces: a probe keeps its value in the workspace it read
    workspaces = iter([sampled(), sampled()])
    bound = PROBE_BOUNDS[name][formulation == "effective"]
    assert _peak_in_fields(lambda: probe(next(workspaces)), state) <= bound


WHOLE_RUN = """
[grid]
dim = 3
n = 32
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = random-large

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.004
formulation = {formulation}

[probes]
names = energy.total

[audits]
names = {audits}

[output]
directory = stride{stride}
state_stride = {stride}

[rng]
seed = 3
"""


SECOND_ORDER_AND_POINTWISE = "bd-identity, jungel, pi-equivalence, region-split"


def _whole_run_peaks(tmp_path, formulation, state, audits=SECOND_ORDER_AND_POINTWISE) -> dict:
    peaks = {}
    for stride in (1, 4):
        cfg = parse_config(WHOLE_RUN.format(formulation=formulation, stride=stride, audits=audits))
        peaks[stride] = _peak_in_fields(lambda: experiment.run_experiment(cfg, tmp_path), state)
    return peaks


def test_whole_run_peak_does_not_grow_with_the_stored_states(tmp_path, primitive):
    # the audits see each stored state as the run stores it and keep floats, so
    # storing all five states costs what storing the first and last does; when
    # the run kept its stored states (4R each: rho and three velocity
    # components), stride 1 peaked 8R above stride 4.  Both peaked at 30.0R
    # while the run held its initial state to the end, and at 23.6R in the step
    # before it built y in the momentum spectra's storage, and at 21.2R in a
    # stored state's second-order pass while the workspace still held |v|^2
    # and grad log rho.  19.9R in the step's stress loop, where the step sets
    # the run's peak with or without the second-order audits (at 64^3, 19.0R);
    # 20.1R now, the same peak with the grid's rim mask (R/8) kept for the run
    peaks = _whole_run_peaks(tmp_path, "primitive", primitive)
    assert abs(peaks[1] - peaks[4]) <= 1.0, peaks
    assert max(peaks.values()) <= 20.4, peaks


def test_effective_whole_run_peak(tmp_path, primitive):
    # 32.4R while the run held its initial state to the end; 28.4R while the
    # second-order pass ran beside |v|^2; 27.4R in that pass, where
    # ws.primitive built u beside v and grad log rho, while each inverse
    # transform allocated a complex intermediate per leading axis; 26.4R
    # with the transforms in the spectrum's storage and the grid's rim mask
    # (R/8) kept for the run, 25.6R at the last whole-u pass; 23.1R now,
    # still in that pass, which reads u one component at a time from
    # Workspace.velocity.  With the
    # certificate, 33.5R at stride 1 and 30.4R at stride 4 while it kept
    # every stored state's 1/rho; no state here tops its first base, so none now
    peaks = _whole_run_peaks(tmp_path, "effective", primitive, SECOND_ORDER_AND_POINTWISE + ", certificate")
    assert abs(peaks[1] - peaks[4]) <= 1.0, peaks
    assert max(peaks.values()) <= 23.7, peaks


SMALL_RUN = """
[grid]
dim = 2
n = 32
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = gaussian-bump

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.003
formulation = {formulation}

[probes]
names = energy.total, venergy

[audits]
names = bd-identity, jungel, pi-equivalence, region-split, log-law, reverse-holder, certificate

[output]
directory = small

[rng]
seed = 0
"""


def _watch_steps(monkeypatch, refs) -> list:
    """Wrap ``solver.step``: each call records whether every state in ``refs`` is gone."""
    gone, step = [], solver.step

    def watched(*args, **kwargs):
        gone.append([ref() is None for ref in refs])
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", watched)
    return gone


def _tracked(refs, state):
    refs.append(weakref.ref(state))
    return state


def _bump(formulation):
    bump = make_preset("gaussian-bump", make_grid(2, 32, 4 * np.pi, 1.0))
    return to_effective(bump) if formulation == "effective" else bump


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_run_lets_go_of_its_initial_state(monkeypatch, formulation):
    refs = []
    gone = _watch_steps(monkeypatch, refs)
    cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=3e-3)
    # the state reaches run() through no named reference
    solver.run(_tracked(refs, _bump(formulation)), cfg)
    assert gone == [[False], [True], [True]]


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_run_experiment_lets_go_of_its_initial_state(tmp_path, monkeypatch, formulation):
    refs = []
    gone = _watch_steps(monkeypatch, refs)
    initial_state = experiment._initial_state
    monkeypatch.setattr(experiment, "_initial_state", lambda config: _tracked(refs, initial_state(config)))
    manifest = experiment.run_experiment(parse_config(SMALL_RUN.format(formulation=formulation)), tmp_path)
    assert manifest.exit_code == 0 and manifest.audit_total > 0
    assert gone == [[False], [True], [True]]


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


DEMO_PROBES = (
    "energy.total", "energy.kinetic", "venergy",
    "norm.weighted.p2", "norm.weighted.p6", "sobolev.rho.H2",
)


def _demo_bump(n: int) -> solver.FlowState:
    grid = make_grid(2, n, 4 * np.pi, 1.0)
    return to_effective(make_preset("gaussian-bump", grid, {"amplitude": 0.5, "width": 0.4 * np.pi}))


def _demo_run(state, steps: int) -> solver.TrajectoryRecord:
    cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=steps * 1e-3)
    return solver.run(state, cfg, probes=resolve_probes(DEMO_PROBES, 2.0))


@pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is set on glibc only")
def test_a_second_run_faults_in_no_fresh_memory():
    # with glibc's default trim threshold the second run took 19,228 minor faults; 0-1 now
    _demo_run(_demo_bump(128), 50)
    state = _demo_bump(128)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _demo_run(state, 50)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50


class _Libc:
    """A C library whose ``mallopt`` records its calls and returns ``accepts``."""

    def __init__(self, accepts: int):
        self.calls, self.accepts = [], accepts

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.accepts


@pytest.mark.parametrize("accepts", [1, 0])
def test_policy_sets_the_mmap_threshold_before_the_trim_threshold(monkeypatch, accepts):
    # the trim threshold alone would switch off glibc's dynamic mmap threshold,
    # so it is set only once the mmap threshold is
    libc = _Libc(accepts)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    solver._keep_freed_memory()
    expected = [(-3, 32 * 2**20), (-1, 64 * 2**20)]
    assert libc.calls == (expected if accepts else expected[:1])


def _no_confstr(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize(
    "confstr,libc",
    [(_no_confstr, None), (lambda name: "glibc 2.36", object())],
    ids=["confstr-raises", "no-mallopt"],
)
def test_run_is_unchanged_off_glibc(monkeypatch, confstr, libc):
    reference = _demo_run(_demo_bump(32), 3)
    opened = []
    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or libc)
    record = _demo_run(_demo_bump(32), 3)
    assert opened == ([] if libc is None else [None])
    assert np.array_equal(record.times, reference.times)
    assert record.scalars.keys() == reference.scalars.keys()
    assert all(np.array_equal(record.scalars[k], reference.scalars[k]) for k in record.scalars)
    assert np.array_equal(record.final.rho.values, reference.final.rho.values)
    assert np.array_equal(record.final.vel.components, reference.final.vel.components)


_FRESH_RUN = f"""
import sys, tempfile
import nsklab.cli
from nsklab.config import parse_config
from nsklab.experiment import run_experiment

with tempfile.TemporaryDirectory() as root:
    assert run_experiment(parse_config({SMALL_RUN.format(formulation='effective')!r}), root).exit_code == 0
print(sorted(name for name in ("_hashlib", "numpy.random") if name in sys.modules))
"""


def test_a_run_without_random_numbers_loads_no_openssl():
    """A 2D run's peak RSS is mostly the process: the interpreter and numpy
    take about 27 MB, and OpenSSL's libcrypto, which `_hashlib` maps, 3.3 MB
    more; `numpy.random` maps it too, through `secrets` and `hmac`.  The
    config hash comes from CPython's built-in sha256, so a run whose preset
    draws no random numbers, here `SMALL_RUN` in effective form with its
    seven audits, loads neither.  The run goes in a fresh interpreter, since
    pytest and hypothesis import hashlib themselves."""
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
