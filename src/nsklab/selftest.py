"""Built-in invariant suite: fast structural checks, one printed line each."""

from __future__ import annotations

import math

import numpy as np

from .degiorgi import IterationSpec, closed_form_log, recurrence_log, theta
from .dyadic import BesovIndex, besov_norm, build_dyadic_family, dyadic_block
from .estimates import equivalence_constants, potential_energy_density
from .fields import (
    ScalarField,
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


def _check_spectral_core() -> bool:
    rng = np.random.default_rng(11)
    for dim, n in ((2, 32), (2, 64), (3, 16)):
        g = make_grid(dim, n, 2 * np.pi, 1.0)
        for _ in range(20):
            f = random_band_limited(g, rng)
            back = g.irfft(g.rfft(f.values))
            if np.max(np.abs(back - f.values)) > 1e-12 * max(1.0, np.max(np.abs(f.values))):
                return False
            if abs(l2_norm(f) - spectral_l2_norm(f)) > 1e-10 * max(1.0, l2_norm(f)):
                return False
            resid = divergence(gradient(f)).values - laplacian(f).values
            if np.max(np.abs(resid)) > 1e-12 * max(1.0, np.max(np.abs(laplacian(f).values))):
                return False
    return True


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


def _check_steady_state() -> bool:
    g = make_grid(2, 32, 4 * np.pi, 1.0)
    cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.0)
    s = make_preset("constant", g)
    sp = step_primitive(s, cfg)
    se = step_effective(to_effective(s), cfg)
    return (
        np.max(np.abs(sp.rho.values - 1.0)) <= 1e-14
        and np.max(np.abs(sp.vel.components)) <= 1e-14
        and np.max(np.abs(se.rho.values - 1.0)) <= 1e-14
    )


def _check_transform() -> bool:
    g = make_grid(2, 32, 4 * np.pi, 1.0)
    s = make_preset("gaussian-bump", g)
    back = from_effective(to_effective(s))
    return np.max(np.abs(back.vel.components - s.vel.components)) <= 1e-12


def _check_potential() -> bool:
    g = make_grid(2, 8, 1.0, 1.0)
    if abs(potential_energy_density(constant_field(g, 3.0), 1.0, 2.0).values.flat[0] - 2.0) > 1e-14:
        return False
    for gamma in np.linspace(1.01, 3.0, 100):
        c1, _ = equivalence_constants(gamma)
        if not c1 > 0:
            return False
    return True


def _check_snapshot_io(tmpdir="/tmp") -> bool:
    import tempfile

    g = make_grid(2, 16, 2 * np.pi, 1.25)
    rng = np.random.default_rng(9)
    f = random_band_limited(g, rng)
    with tempfile.NamedTemporaryFile(suffix=".nskf") as fh:
        write_snapshot(f, 0.75, fh.name)
        back, t = read_snapshot(fh.name)
    return t == 0.75 and np.array_equal(back.values, f.values) and back.grid == g


CHECKS = (
    ("spectral core round-trips and operator identities", _check_spectral_core),
    ("dyadic partition, orthogonality, monotonicity", _check_dyadic),
    ("iteration closed form vs recurrence", _check_iteration),
    ("constant state exactly steady", _check_steady_state),
    ("velocity transform round-trip", _check_transform),
    ("potential energy closed forms and positive constants", _check_potential),
    ("snapshot file round-trip", _check_snapshot_io),
)


def run_selftest(out=print) -> bool:
    ok = True
    for label, fn in CHECKS:
        good = bool(fn())
        ok = ok and good
        out(f"[{'ok' if good else 'FAIL'}] {label}")
    return ok
