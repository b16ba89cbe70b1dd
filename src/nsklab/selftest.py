"""Built-in invariant suite: fast structural checks, one printed line each.

The public *_deviation functions take a corpus and return the worst deviation
found; the unit tests call them with their own corpora and tolerances.
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


def _worst(grids, count, seed, deviation) -> float:
    """Largest deviation(f) over `count` random fields per grid, drawn from one generator."""
    rng = np.random.default_rng(seed)
    return max(float(deviation(random_band_limited(g, rng))) for g in grids for _ in range(count))


def _relative(diff, ref) -> float:
    return np.max(np.abs(diff)) / max(1.0, np.max(np.abs(ref)))


def div_grad_deviation(grids, count, seed) -> float:
    """Worst |div grad f - laplacian f|_inf over max(1, |laplacian f|_inf)."""

    def deviation(f):
        lap = laplacian(f).values
        return _relative(divergence(gradient(f)).values - lap, lap)

    return _worst(grids, count, seed, deviation)


def steady_state_deviation(grid) -> float:
    """Largest change of the constant state in one step of either formulation."""
    cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.0)
    s = make_preset("constant", grid)
    after = (step_primitive(s, cfg), step_effective(to_effective(s), cfg))
    return max(np.max(np.abs([a.rho.values - grid.far_field_density, *a.vel.components])) for a in after)


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


def _rfft_round_trip(f) -> float:
    return _relative(f.grid.irfft(f.grid.rfft(f.values)) - f.values, f.values)


def _parseval(f) -> float:
    return abs(l2_norm(f) - spectral_l2_norm(f)) / max(1.0, l2_norm(f))


def _check_spectral_core() -> bool:
    grids = [make_grid(dim, n, 2 * np.pi, 1.0) for dim, n in ((2, 32), (2, 64), (3, 16))]
    return (
        _worst(grids, 20, 11, _rfft_round_trip) <= 1e-12
        and _worst(grids, 20, 11, _parseval) <= 1e-10
        and div_grad_deviation(grids, 20, 11) <= 1e-12
    )


def _check_dyadic() -> bool:
    g = make_grid(2, 64, 2 * np.pi, 1.0)
    fam = build_dyadic_family(g)
    rng = np.random.default_rng(5)
    f = random_band_limited(g, rng)
    rec = sum(dyadic_block(fam, f, j).values for j in fam.blocks())
    if np.max(np.abs(rec - f.values)) > 1e-12 * np.max(np.abs(f.values)):
        return False
    for j in fam.blocks():
        for jp in fam.blocks():
            if abs(j - jp) >= 2:
                twice = dyadic_block(fam, dyadic_block(fam, f, j), jp)
                if np.max(np.abs(twice.values)) > 1e-12 * np.max(np.abs(f.values)):
                    return False
    return besov_norm(fam, f, BesovIndex(0, 2, 2)) <= besov_norm(fam, f, BesovIndex(1, 2, 2))


def _check_iteration() -> bool:
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = IterationSpec(
            K=float(rng.uniform(0.2, 5.0)),
            A=float(rng.uniform(1.0, 4.0)),
            nu=float(rng.uniform(0.2, 2.0)),
            X0=float(rng.uniform(0.0, 1.0)),
        )
        rec = recurrence_log(spec, 20)
        for k in (0, 5, 20):
            cf = closed_form_log(spec, k)
            if cf == -math.inf and rec[k] == -math.inf:
                continue
            if abs(cf - rec[k]) > 1e-12 * max(1.0, abs(cf)):
                return False
    spec = IterationSpec(K=1.0, A=2.0, nu=1.0, X0=0.5)
    return abs(theta(spec) - 0.5) < 1e-15


def _check_potential() -> bool:
    g = make_grid(2, 8, 1.0, 1.0)
    if abs(potential_energy_density(constant_field(g, 3.0), 1.0, 2.0).values.flat[0] - 2.0) > 1e-14:
        return False
    for gamma in np.linspace(1.01, 3.0, 100):
        c1, _ = equivalence_constants(gamma)
        if not c1 > 0:
            return False
    return True


def _check_snapshot_io() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        grid = make_grid(2, 16, 2 * np.pi, 1.25)
        return snapshot_round_trip_deviation(grid, 9, 0.75, Path(tmp) / "f.nskf") == 0.0


_GRID32 = (2, 32, 4 * np.pi, 1.0)
CHECKS = (
    ("spectral core round-trips and operator identities", _check_spectral_core),
    ("dyadic partition, orthogonality, monotonicity", _check_dyadic),
    ("iteration closed form vs recurrence", _check_iteration),
    ("constant state exactly steady", lambda: steady_state_deviation(make_grid(*_GRID32)) <= 1e-14),
    (
        "velocity transform round-trip",
        lambda: transform_round_trip_deviation(make_grid(*_GRID32), "gaussian-bump") <= 1e-12,
    ),
    ("potential energy closed forms and positive constants", _check_potential),
    ("snapshot file round-trip", _check_snapshot_io),
)


def run_selftest() -> bool:
    ok = True
    for label, fn in CHECKS:
        good = bool(fn())
        ok = ok and good
        print(f"[{'ok' if good else 'FAIL'}] {label}")
    return ok
