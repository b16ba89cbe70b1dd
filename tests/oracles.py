"""Reference computations the tests share and no verb runs.

``jacobian`` and ``hessian`` build the full (dim, dim, n, ...) derivative
tensors that ``src/`` never forms: the references for the half-lattice
symbols and for every entrywise sum over them (``estimates.dissipation_rate``,
``estimates.v_energy_dissipations``, ``estimates.second_order_terms``,
``fields.hessian_energy``); ``threshold_decay_excess`` is the decay check of
the De Giorgi recurrence that criterion 5 and ``test_degiorgi`` share.

``effective``, ``primitive``, ``vector_sobolev_norm`` and
``far_field_defect`` are the whole-array forms that ``Workspace.velocity``
replaced: the stacked components +- grad log rho, the H^k norm of a
``VectorField`` and the rim defect read from the velocity magnitude over
every cell.  ``Workspace.velocity`` must give their floats bit for bit.
"""

import math

import numpy as np

from nsklab.degiorgi import IterationSpec, recurrence_log, theta
from nsklab.fields import ScalarField, VectorField, sobolev_norm
from nsklab.solver import FlowState, Workspace


def jacobian(F: VectorField) -> np.ndarray:
    """First derivatives d_j F_i as a (dim, dim, n, ...) array indexed [i, j]."""
    grid = F.grid
    d = grid.dim
    out = np.empty((d, d) + grid.shape)
    for i in range(d):
        hat = grid.rfft(F.components[i])
        for j in range(d):
            out[i, j] = grid.irfft(1j * grid.rwavevectors[j] * hat)
    return out


def hessian(f: ScalarField) -> np.ndarray:
    """All second derivatives as a (dim, dim, n, ...) array."""
    grid = f.grid
    hat = grid.rfft(f.values)
    d = grid.dim
    out = np.empty((d, d) + grid.shape)
    for i in range(d):
        for j in range(i, d):
            out[i, j] = grid.irfft(-grid.rsecond[i][j] * hat)
            out[j, i] = out[i, j]
    return out


def threshold_decay_excess(spec: IterationSpec, steps: int) -> float:
    """Largest excess of log X_k along the recurrence, k = 0..steps, over the bound
    log theta - (k / nu) log A that X0 <= theta promises.  At X0 = theta that is an
    equality, so it allows the forward error, amplified by (1 + nu) per step.
    A NaN at any index is returned."""
    log_theta, log_a = math.log(theta(spec)), math.log(spec.A)
    scale = max(1.0, abs(math.log(spec.K)), abs(log_a), abs(log_theta))
    excess = []
    for k, lg in enumerate(recurrence_log(spec, steps)):
        if lg != -math.inf:
            slack = (1.0 + spec.nu) ** k * 64 * np.finfo(float).eps * scale + 1e-9
            excess.append(lg - (log_theta - (k / spec.nu) * log_a + slack))
    return float(np.max(excess, initial=-math.inf))


def effective(ws: Workspace) -> FlowState:
    """The workspace's state in effective form: itself, or u + grad log rho
    formed as one stacked (d, n, ...) sum."""
    s = ws.state
    if s.formulation == "effective":
        return s
    return FlowState(s.t, s.rho, VectorField(s.grid, s.vel.components + ws.grad_log_rho), "effective")


def primitive(ws: Workspace, sign: float = 1.0) -> FlowState:
    """The workspace's state in primitive form: itself, or v - grad log rho
    formed as one stacked (d, n, ...) difference.  ``sign = -1`` is a wrong
    conversion, v + grad log rho, for the negative control."""
    s = ws.state
    if s.formulation == "primitive":
        return s
    return FlowState(s.t, s.rho, VectorField(s.grid, s.vel.components - sign * ws.grad_log_rho), "primitive")


def vector_sobolev_norm(F: VectorField, k: int) -> float:
    """H^k norm of a vector field, from its components' norms added in order."""
    return float(np.sqrt(sum(sobolev_norm(F.component(i), k) ** 2 for i in range(F.grid.dim))))


def far_field_defect(state: FlowState, sign: float = 1.0) -> float:
    """Largest deviation of (rho, u) from (rho_bar, 0) in the boundary rim, the
    velocity's magnitude taken over every cell of the converted state."""
    prim = primitive(Workspace(state), sign)
    grid = prim.grid
    rim = grid.rim_mask
    dev_rho = float(np.max(np.abs(prim.rho.values[rim] - grid.far_field_density)))
    dev_vel = float(np.max(np.sqrt(np.sum(prim.vel.components**2, axis=0))[rim]))
    return max(dev_rho, dev_vel)
