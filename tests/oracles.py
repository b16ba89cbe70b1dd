"""Reference computations the tests share and no verb runs.

``hessian`` is the reference for ``Grid.rsecond``, ``fields.hessian_energy``
and ``estimates.second_order_terms``; ``threshold_decay_excess`` is the decay
check of the De Giorgi recurrence that criterion 5 and ``test_degiorgi`` share.
"""

import math

import numpy as np

from nsklab.degiorgi import IterationSpec, recurrence_log, theta
from nsklab.fields import ScalarField


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
