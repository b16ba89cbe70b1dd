"""Working-set guards for the per-step and per-audit spectral passes.

The steppers and the second-order pass hold one spectrum per field and form
each derivative as a transient; none builds a (d, d, n, ...) tensor of
derivative fields.  The peak is what tracemalloc sees numpy allocate during
one call at 3D 32^3, in units of one real field R, above what was live before
the call (the inputs, and the workspace's carried spectra where a step reads them).
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
