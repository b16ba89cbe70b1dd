"""Recompute the frozen calibration constants on fixed seeded corpora.

Run as ``python -m nsklab.calibrate``; paste the printed table into
``nsklab.calibration.CONSTANTS`` when cutting a release.  Every corpus is
seeded, so the table is reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .degiorgi import inverse_density, truncate, truncation_terms
from .dyadic import (
    BesovIndex,
    TimeSeriesField,
    bernstein_ratios,
    besov_norm,
    block_norm_table,
    block_norms,
    build_dyadic_family,
    dyadic_block,
    heat_evolve,
    heat_terms,
    interpolation_terms,
    select_frequency_cut,
)
from .estimates import energy, log_law_constant, reverse_holder_terms
from .fields import ScalarField, hs_norm, make_grid, random_band_limited
from .probes import REVERSE_HOLDER_PS, audit_observer
from .solver import SolverConfig, Workspace, make_preset, run, to_effective


def _field_corpus(grid, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        max_mode = int(rng.integers(2, grid.n // 3))
        out.append(random_band_limited(grid, rng, max_mode=max_mode))
    return out


def calibrate_hs_equivalence(out):
    grid = make_grid(2, 64, 2 * np.pi, 1.0)
    fam = build_dyadic_family(grid)
    corpus = _field_corpus(grid, 100, seed=101)
    for s in (-1, 0, 1, 2):
        worst = 1.0
        for f in corpus:
            b = besov_norm(fam, f, BesovIndex(s, 2, 2))
            h = hs_norm(f, s)
            ratio = b / h
            worst = max(worst, ratio, 1.0 / ratio)
        out[f"besov.hs_equiv.s{s}"] = worst


def _block_corpus(fam, count, seed):
    grid = fam.grid
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        j = int(rng.integers(1, fam.j_max + 1))
        f = random_band_limited(grid, rng, max_mode=grid.n // 2 - 1)
        hat = grid.rfft(dyadic_block(fam, f, j).values)
        hat[~(fam.multiplier(j) > 0)] = 0.0
        out.append((j, ScalarField(grid, grid.irfft(hat))))
    return out


def calibrate_bernstein(out):
    grid = make_grid(2, 64, 2 * np.pi, 1.0)
    fam = build_dyadic_family(grid)
    corpus = _block_corpus(fam, 40, seed=202)
    combos = ((2.0, 2.0), (2.0, math.inf), (1.0, 2.0))
    for k in (1, 2, 3):
        ball = ann = mult = 1.0
        for j, w in corpus:
            for a, b in combos:
                ratios = bernstein_ratios(fam, w, j, k, a, b)
                ball = max(ball, ratios["ball"])
                ann = max(ann, ratios["annulus"], 1.0 / ratios["annulus"])
                mult = max(mult, ratios["multiplier"])
        out[f"bernstein.ball.k{k}"] = ball
        out[f"bernstein.annulus.k{k}"] = ann
        out[f"bernstein.multiplier.k{k}"] = mult


def calibrate_interpolation(out):
    grid = make_grid(2, 64, 2 * np.pi, 1.0)
    fam = build_dyadic_family(grid)
    corpus = _field_corpus(grid, 30, seed=303)
    worst = 0.0
    for f in corpus:
        for p in (2.0, math.inf):
            norms = block_norms(fam, f, p)
            for s1, s2 in ((0.0, 2.0), (-1.0, 1.0), (0.5, 1.5)):
                for theta in (0.25, 0.5, 0.75):
                    lhs, m1, m2, rhs = interpolation_terms(fam, norms, s1, s2, theta)
                    worst = max(worst, lhs / rhs)
                    select_frequency_cut(m1, m2, s2 - s1)
    out["interpolation.C"] = worst


def calibrate_heat(out):
    grid = make_grid(2, 64, 2 * np.pi, 1.0)
    fam = build_dyadic_family(grid)
    rng = np.random.default_rng(404)
    times = np.linspace(0.0, 0.5, 11)
    indices = (BesovIndex(0, 2, 2), BesovIndex(1, 2, 1), BesovIndex(0, math.inf, math.inf))
    exponents = {idx.p for idx in indices}
    worst = 0.0
    for trial in range(12):
        u0 = random_band_limited(grid, rng, max_mode=int(rng.integers(2, 20)))
        base = random_band_limited(grid, rng, max_mode=int(rng.integers(2, 20)))
        mod = rng.uniform(0.5, 2.0)
        snaps = [ScalarField(grid, base.values * math.cos(mod * t)) for t in times]
        forcing = TimeSeriesField(times, snaps)
        # the data's block norms once per trial, the solution's once per mu
        data = {p: (block_norms(fam, u0, p), block_norm_table(fam, forcing, p)) for p in exponents}
        for mu in (0.5, 1.0, 2.0):
            sol = heat_evolve(u0, forcing, mu)
            tables = {p: (block_norm_table(fam, sol, p), *data[p]) for p in exponents}
            for q1, q2 in ((math.inf, math.inf), (math.inf, 2.0), (2.0, 2.0), (4.0, 2.0)):
                for idx in indices:
                    lhs, rhs = heat_terms(fam, forcing.times, tables[idx.p], q1, q2, idx)
                    if rhs > 0:
                        worst = max(worst, lhs / rhs)
    out["heat.C"] = worst


def _preset_runs():
    """Each calibration run's ``(record, ctx)``.  ctx holds the initial energy
    ``e0``, what the reverse-Hoelder audit's per-state part kept of each stored
    state and each stored state's 1/rho (the certificate sweep reads levels
    below any window's base, so it needs every one): the calibration reads no
    stored state otherwise."""
    # canonical mild runs plus the near-vacuum bump variant, so the frozen
    # trajectory constants envelope both regimes
    runs = {}
    grid = make_grid(2, 64, 4 * np.pi, 1.0)
    cfg = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.5)
    dip = {"amplitude": -0.99, "width": 0.08 * grid.box_length}
    for key, params in (("gaussian-bump", None), ("random-large", None), (("gaussian-bump", "dip"), dip)):
        state = to_effective(make_preset(key if isinstance(key, str) else key[0], grid, params, seed=12))
        ctx = {"e0": energy(Workspace(state), 2.0).total, "inverse_density": []}
        moments = audit_observer(("reverse-holder",), ctx)

        def observe(ws, stored):
            moments(ws, stored)
            if stored:
                ctx["inverse_density"].append(inverse_density(ws.state))

        runs[key] = run(state, cfg, state_stride=25, observe=observe), ctx
    return runs


def calibrate_trajectories(out, runs):
    for key, (record, ctx) in runs.items():
        preset = key[0] if isinstance(key, tuple) else key
        sup_v = max(energy_v for energy_v, _ in ctx["velocity_moments"])
        name_v = f"venergy.C.{preset}"
        name_cv = f"loglaw.cv.{preset}"
        out[name_v] = max(out.get(name_v, 0.0), sup_v / (1.0 + ctx["e0"]))
        out[name_cv] = max(out.get(name_cv, 0.0), log_law_constant(record))

        worst = 0.0
        stored = ctx["stored_times"], ctx["velocity_moments"]
        for lhs, vt, body in reverse_holder_terms(record, REVERSE_HOLDER_PS, stored).values():
            worst = max(worst, lhs / (vt * body))
        name_c3 = f"psi.C3.{preset}"
        out[name_c3] = max(out.get(name_c3, 0.0), worst)


def calibrate_certificate(out, runs):
    # chain the measured space-time interpolation constant through the
    # iteration algebra: C_cert = 2^(25/2) * C_gn^(3/2)
    c_gn = 0.0
    for record, ctx in runs.values():
        times, inverse = ctx["stored_times"], ctx["inverse_density"]
        rows = record.stored_rows(times)
        lo = 1.0 / float(np.max(record.scalars["density.max"][rows]))
        hi = 1.0 / float(np.min(record.scalars["density.min"][rows]))
        for level in (lo + frac * (hi - lo) for frac in (0.2, 0.5, 0.8)):
            sup_l2_sq, grad_int = truncation_terms(inverse, times, level)
            w_sq = [
                float(np.sum(truncate(w, level).values ** (10.0 / 3.0)) * w.grid.cell_volume)
                for w in inverse
            ]
            denom = sup_l2_sq ** (2.0 / 3.0) * (
                grad_int + np.trapezoid(np.array([x ** (3.0 / 5.0) for x in w_sq]), np.array(times))
            )
            if denom > 0:
                c_gn = max(c_gn, float(np.trapezoid(np.array(w_sq), np.array(times))) / denom)
    c_gn = max(c_gn, 1e-2)
    out["certificate.C"] = 2.0 ** (25.0 / 2.0) * c_gn**1.5


def main() -> None:
    out: dict[str, float] = {}
    calibrate_hs_equivalence(out)
    calibrate_bernstein(out)
    calibrate_interpolation(out)
    calibrate_heat(out)
    runs = _preset_runs()
    calibrate_trajectories(out, runs)
    calibrate_certificate(out, runs)
    for key in sorted(out):
        print(f'    "{key}": {out[key]:.6g},')


if __name__ == "__main__":
    main()
