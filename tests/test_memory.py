"""Working-set guards for the per-step and per-audit spectral passes, and for a whole run.

The steppers and the second-order pass hold one spectrum per field and form
each derivative as a transient; none builds a (d, d, n, ...) tensor of
derivative fields.  A run's audits keep no stored state, so its peak does not
grow with the number of stored states.  The peak is what tracemalloc sees
numpy allocate during one call at 3D 32^3, in units of one real field R,
above what was live before the call (the inputs, and the workspace's carried
spectra where a step reads them).
"""

import tracemalloc

import numpy as np
import pytest

from nsklab import estimates, solver
from nsklab.fields import make_grid
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
    # a full velocity-gradient and log-density-Hessian tensor pair peaked at 44R
    assert _peak_in_fields(lambda: solver.step_primitive(primitive, CFG), primitive) <= 30.0


def test_second_order_pass(primitive):
    # the hess log rho, grad u and grad v tensors peaked at 33R
    assert _peak_in_fields(lambda: estimates.second_order_terms(primitive), primitive) <= 20.0


def test_effective_step_with_carried_spectra(primitive):
    s = to_effective(primitive)
    # one workspace per call, each as the run loop hands it over: each call overwrites its spectra
    workspaces = [solver.Workspace(s) for _ in range(2)]
    for ws in workspaces:
        ws.grad_log_rho, ws.spectra
    calls = iter(workspaces)
    assert _peak_in_fields(lambda: solver.step_effective(s, CFG, next(calls)), s) <= 17.6


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
formulation = primitive

[probes]
names = energy.total

[audits]
names = bd-identity, jungel, pi-equivalence, region-split

[output]
directory = stride{stride}
state_stride = {stride}

[rng]
seed = 3
"""


def test_whole_run_peak_does_not_grow_with_the_stored_states(tmp_path, primitive):
    # the audits see each stored state as the run stores it and keep floats, so
    # storing all five states costs what storing the first and last does (both
    # peak at 30R, in the step); when the run kept its stored states (4R each:
    # rho and three velocity components), stride 1 peaked 8R above stride 4
    from nsklab.config import parse_config
    from nsklab.experiment import run_experiment

    peaks = {}
    for stride in (1, 4):
        cfg = parse_config(WHOLE_RUN.format(stride=stride))
        peaks[stride] = _peak_in_fields(lambda: run_experiment(cfg, tmp_path), primitive)
    assert abs(peaks[1] - peaks[4]) <= 1.0, peaks
