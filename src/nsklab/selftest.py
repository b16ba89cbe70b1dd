"""Built-in invariant suite: fast structural checks, one printed line each.

Each invariant has one implementation, a public function here that takes one
field, spec or grid and returns the number its caller holds to a tolerance;
``CHECKS``, the acceptance criteria and the unit tests call it on their own corpora.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from .degiorgi import IterationSpec, closed_form_log, recurrence_log, theta
from .dyadic import BesovIndex, besov_norm, build_dyadic_family, dyadic_block
from .estimates import equivalence_constants, potential_energy_density
from .fields import (
    constant_field,
    divergence,
    gradient,
    l2_norm,
    laplacian,
    make_grid,
    random_band_limited,
    read_snapshot,
    spectral_l2_norm,
    write_snapshot,
)
from .solver import (
    SolverConfig,
    from_effective,
    make_preset,
    step_effective,
    step_primitive,
    to_effective,
)

__all__ = [
    "CHECKS", "run_selftest", "rfft_round_trip_deviation", "parseval_deviation",
    "div_grad_deviation", "reconstruction_deviation", "orthogonality_deviation",
    "closed_form_deviation", "lower_constant_min",
    "steady_state_deviation", "transform_round_trip_deviation", "snapshot_round_trip_deviation",
]


def _relative(diff, ref) -> float:
    return np.max(np.abs(diff)) / np.maximum(1.0, np.max(np.abs(ref)))


def rfft_round_trip_deviation(f) -> float:
    """|Grid.irfft(Grid.rfft f) - f|_inf over max(1, |f|_inf)."""
    return float(_relative(f.grid.irfft(f.grid.rfft(f.values)) - f.values, f.values))


def parseval_deviation(f) -> float:
    """|L2 norm of f - its Fourier-side L2 norm| over max(1, L2 norm of f)."""
    return abs(l2_norm(f) - spectral_l2_norm(f)) / max(1.0, l2_norm(f))


def div_grad_deviation(f) -> float:
    """|div grad f - laplacian f|_inf over max(1, |laplacian f|_inf)."""
    lap = laplacian(f).values
    return float(_relative(divergence(gradient(f)).values - lap, lap))


def reconstruction_deviation(family, f) -> float:
    """|sum of the dyadic blocks of f - f|_inf over |f|_inf."""
    rec = sum(dyadic_block(family, f, j).values for j in family.blocks())
    return float(np.max(np.abs(rec - f.values))) / float(np.max(np.abs(f.values)))


def orthogonality_deviation(family, f) -> float:
    """Largest |block j' of block j of f|_inf over |f|_inf, for |j - j'| >= 2."""
    js = family.blocks()
    twice = (dyadic_block(family, dyadic_block(family, f, j), jp) for j in js for jp in js if abs(j - jp) >= 2)
    return float(np.max([np.max(np.abs(b.values)) for b in twice])) / float(np.max(np.abs(f.values)))


def closed_form_deviation(spec: IterationSpec, steps: int) -> float:
    """Largest |closed form - recurrence| of log X_k over max(1, |closed form|),
    k = 0..steps; an index where both are infinite agrees, one where only one
    is counts as inf, and a NaN at any index makes the result NaN or inf."""
    pairs = ((closed_form_log(spec, k), lg) for k, lg in enumerate(recurrence_log(spec, steps)))
    devs = [abs(cf - lg) / max(1.0, abs(cf)) if math.isfinite(cf) else math.inf
            for cf, lg in pairs if not (math.isinf(cf) and math.isinf(lg))]
    return float(np.max(devs, initial=0.0))


def lower_constant_min(gammas) -> float:
    """Smallest lower equivalence constant c1 over the exponents ``gammas``; NaN if any is."""
    return float(np.min([equivalence_constants(float(gamma))[0] for gamma in gammas]))


def steady_state_deviation(grid) -> float:
    """Largest change of the constant state in one step of either formulation."""
    cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.0)
    s = make_preset("constant", grid)
    after = (step_primitive(s, cfg), step_effective(to_effective(s), cfg))
    worst = [np.max(np.abs([a.rho.values - grid.far_field_density, *a.vel.components])) for a in after]
    return float(np.max(worst))


def transform_round_trip_deviation(grid, preset: str, seed: int = 0) -> float:
    """Velocity error of from_effective(to_effective(state)); inf unless the
    density comes back bit for bit."""
    s = make_preset(preset, grid, seed=seed)
    back = from_effective(to_effective(s))
    if not np.array_equal(back.rho.values, s.rho.values):
        return math.inf
    return float(np.max(np.abs(back.vel.components - s.vel.components)))


def snapshot_round_trip_deviation(grid, seed: int, t: float, path) -> float:
    """Largest change of a random field written to `path` and read back; inf
    if its time or grid changes."""
    f = random_band_limited(grid, np.random.default_rng(seed))
    write_snapshot(f, t, path)
    back, t_back = read_snapshot(path)
    if t_back != t or back.grid != grid:
        return math.inf
    return float(np.max(np.abs(back.values - f.values)))


def _spectral_core() -> bool:
    rng = np.random.default_rng(11)
    grids = [make_grid(dim, n, 2 * np.pi, 1.0) for dim, n in ((2, 32), (2, 64), (3, 16))]
    return all(
        rfft_round_trip_deviation(f) <= 1e-12 and parseval_deviation(f) <= 1e-10 and div_grad_deviation(f) <= 1e-12
        for f in [random_band_limited(g, rng) for g in grids for _ in range(20)]
    )


def _dyadic() -> bool:
    fam = build_dyadic_family(make_grid(2, 64, 2 * np.pi, 1.0))
    f = random_band_limited(fam.grid, np.random.default_rng(5))
    return (
        reconstruction_deviation(fam, f) <= 1e-12
        and orthogonality_deviation(fam, f) <= 1e-12
        and besov_norm(fam, f, BesovIndex(0, 2, 2)) <= besov_norm(fam, f, BesovIndex(1, 2, 2))
    )


def _iteration() -> bool:
    rng = np.random.default_rng(3)
    draw = ((0.2, 5.0), (1.0, 4.0), (0.2, 2.0), (0.0, 1.0))  # K, A, nu, X0
    specs = [IterationSpec(*(float(rng.uniform(lo, hi)) for lo, hi in draw)) for _ in range(20)]
    agrees = all(closed_form_deviation(s, 20) <= 1e-12 for s in specs)
    return agrees and abs(theta(IterationSpec(K=1.0, A=2.0, nu=1.0, X0=0.5)) - 0.5) < 1e-15


def _potential() -> bool:
    rho = constant_field(make_grid(2, 8, 1.0, 1.0), 3.0)
    closed = abs(potential_energy_density(rho, 1.0, 2.0).values.flat[0] - 2.0) <= 1e-14
    return closed and lower_constant_min(np.linspace(1.01, 3.0, 100)) > 0


def _snapshot() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        grid = make_grid(2, 16, 2 * np.pi, 1.25)
        return snapshot_round_trip_deviation(grid, 9, 0.75, Path(tmp) / "f.nskf") == 0.0


_GRID32 = (2, 32, 4 * np.pi, 1.0)
CHECKS = (
    ("spectral core round-trips and operator identities", _spectral_core),
    ("dyadic partition, orthogonality, monotonicity", _dyadic),
    ("iteration closed form vs recurrence", _iteration),
    ("constant state exactly steady", lambda: steady_state_deviation(make_grid(*_GRID32)) <= 1e-14),
    (
        "velocity transform round-trip",
        lambda: transform_round_trip_deviation(make_grid(*_GRID32), "gaussian-bump") <= 1e-12,
    ),
    ("potential energy closed forms and positive constants", _potential),
    ("snapshot file round-trip", _snapshot),
)


def run_selftest() -> bool:
    ok = True
    for label, fn in CHECKS:
        good = bool(fn())
        ok = ok and good
        print(f"[{'ok' if good else 'FAIL'}] {label}")
    return ok
