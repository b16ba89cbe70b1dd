"""Acceptance suite: every exit criterion checked at its stated tolerance.

Each criterion prints one pass/fail line (visible under ``pytest -s``).
Desk scale throughout: 2d at 128^2, 3d at 64^3.
"""

import math

import numpy as np
import pytest

from nsklab.calibration import DRIFT_FACTOR, calibrated
from nsklab.cli import main as cli_main
from nsklab.degiorgi import (
    IterationSpec,
    closed_form_log,
    inverse_density_pde_residual,
    level_set_measure,
    lower_bound_certificate,
    recurrence_log,
    theta,
    truncate,
)
from nsklab.dyadic import (
    BesovIndex,
    bernstein_ratios,
    build_dyadic_family,
    dyadic_block,
    select_frequency_cut,
)
from nsklab.estimates import (
    energy,
    equivalence_constants,
    log_law_constant,
    potential_energy_density,
    second_order_terms,
)
from nsklab.fields import (
    ScalarField,
    VectorField,
    constant_field,
    divergence,
    gradient,
    hs_norm,
    l2_norm,
    laplacian,
    make_grid,
    random_band_limited,
    spectral_l2_norm,
)
from nsklab.probes import audit_observer, resolve_probes
from nsklab.solver import (
    FlowState,
    SolverConfig,
    Workspace,
    from_effective,
    make_preset,
    run,
    step_effective,
    step_primitive,
    to_effective,
)


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}{tail}")
    assert ok, f"criterion {number}: {label}{tail}"


# ----------------------------------------------------------------------


def test_criterion_01_spectral_core():
    rng = np.random.default_rng(1001)
    cases = [(2, 16, 300), (2, 32, 300), (2, 64, 200), (2, 128, 120), (3, 16, 40), (3, 32, 30), (3, 64, 10)]
    checked = 0
    worst_rt = worst_id = worst_pv = 0.0
    for dim, n, count in cases:
        g = make_grid(dim, n, 2 * np.pi, 1.0)
        for _ in range(count):
            f = random_band_limited(g, rng, max_mode=max(2, n // 3))
            scale = max(1.0, float(np.max(np.abs(f.values))))
            back = np.fft.ifftn(np.fft.fftn(f.values)).real
            worst_rt = max(worst_rt, float(np.max(np.abs(back - f.values))) / scale)
            lap = laplacian(f)
            resid = divergence(gradient(f)).values - lap.values
            lap_scale = max(1.0, float(np.max(np.abs(lap.values))))
            worst_id = max(worst_id, float(np.max(np.abs(resid))) / lap_scale)
            worst_pv = max(
                worst_pv, abs(l2_norm(f) - spectral_l2_norm(f)) / max(1.0, l2_norm(f))
            )
            checked += 1
        assert np.all(gradient(constant_field(g, 2.5)).components == 0.0)
    assert checked == 1000
    ok = worst_rt <= 1e-12 and worst_id <= 1e-12 and worst_pv <= 1e-10
    _verdict(
        1,
        "spectral round-trips and operator identities on 1000 seeded fields",
        ok,
        f"roundtrip {worst_rt:.2e}, identity {worst_id:.2e}, parseval {worst_pv:.2e}",
    )


def test_criterion_02_dyadic_partition_orthogonality_equivalence():
    g = make_grid(2, 128, 2 * np.pi, 1.0)
    fam = build_dyadic_family(g)
    total = fam.chi + sum(fam.phis)
    partition_dev = float(np.max(np.abs(total - 1.0)))

    rng = np.random.default_rng(1002)
    probe = random_band_limited(g, rng)
    ortho_dev = 0.0
    scale = float(np.max(np.abs(probe.values)))
    for j in fam.blocks():
        for jp in fam.blocks():
            if abs(j - jp) >= 2:
                twice = dyadic_block(fam, dyadic_block(fam, probe, j), jp)
                ortho_dev = max(ortho_dev, float(np.max(np.abs(twice.values))) / scale)

    recon_dev = 0.0
    ratio_ok = True
    detail = {}
    for s in (-1, 0, 1, 2):
        detail[s] = [math.inf, 0.0]
    for _ in range(100):
        f = random_band_limited(g, rng, max_mode=int(rng.integers(2, 42)))
        rec = sum(dyadic_block(fam, f, j).values for j in fam.blocks())
        recon_dev = max(
            recon_dev, float(np.max(np.abs(rec - f.values))) / float(np.max(np.abs(f.values)))
        )
        block_l2 = [l2_norm(dyadic_block(fam, f, j)) for j in fam.blocks()]
        for s in (-1, 0, 1, 2):
            weights = [2.0 ** (j * s) if j >= 0 else 1.0 for j in fam.blocks()]
            besov = math.sqrt(sum((w * b) ** 2 for w, b in zip(weights, block_l2)))
            ratio = besov / hs_norm(f, s)
            c_allowed = DRIFT_FACTOR * calibrated(f"besov.hs_equiv.s{s}")
            detail[s][0] = min(detail[s][0], ratio)
            detail[s][1] = max(detail[s][1], ratio)
            ratio_ok = ratio_ok and (1.0 / c_allowed <= ratio <= c_allowed)
    ok = partition_dev <= 1e-12 and ortho_dev <= 1e-12 and recon_dev <= 1e-12 and ratio_ok
    spans = ", ".join(f"s={s}: [{lo:.3f}, {hi:.3f}]" for s, (lo, hi) in detail.items())
    _verdict(
        2,
        "dyadic partition, block orthogonality, two-norm equivalence",
        ok,
        f"partition {partition_dev:.2e}, orthogonality {ortho_dev:.2e}, ratios {spans}",
    )


def test_criterion_03_bernstein():
    g = make_grid(2, 128, 2 * np.pi, 1.0)
    fam = build_dyadic_family(g)
    x, _ = g.meshgrid()

    exact_dev = 0.0
    for m, j in ((8, 3), (16, 4), (30, 5)):
        u = ScalarField(g, np.cos(m * x))
        for k in (1, 2, 3):
            ratios = bernstein_ratios(fam, u, j, k, 2.0, 2.0)
            for key in ("ball", "annulus", "multiplier"):
                exact_dev = max(exact_dev, abs(ratios[key] - 1.0))

    rng = np.random.default_rng(1003)
    corpus_ok = True
    for _ in range(30):
        j = int(rng.integers(1, fam.j_max + 1))
        f = random_band_limited(g, rng, max_mode=g.n // 2 - 1)
        w = dyadic_block(fam, f, j)
        hat = g.rfft(w.values)
        hat[~(fam.multiplier(j) > 0)] = 0.0
        w = ScalarField(g, g.irfft(hat))
        for k in (1, 2, 3):
            ratios = bernstein_ratios(fam, w, j, k, 2.0, 2.0)
            corpus_ok = corpus_ok and ratios["ball"] <= DRIFT_FACTOR * calibrated(
                f"bernstein.ball.k{k}"
            )
            two = max(ratios["annulus"], 1.0 / ratios["annulus"])
            corpus_ok = corpus_ok and two <= DRIFT_FACTOR * calibrated(f"bernstein.annulus.k{k}")
            corpus_ok = corpus_ok and ratios["multiplier"] <= DRIFT_FACTOR * calibrated(
                f"bernstein.multiplier.k{k}"
            )
    ok = exact_dev <= 1e-10 and corpus_ok
    _verdict(
        3,
        "single-mode derivative-bound exactness and corpus stability",
        ok,
        f"single-mode deviation {exact_dev:.2e}",
    )


def test_criterion_04_frequency_cut():
    g = make_grid(2, 128, 2 * np.pi, 1.0)
    fam = build_dyadic_family(g)
    rng = np.random.default_rng(1004)
    checked = 0
    ok = True
    for _ in range(100):
        f = random_band_limited(g, rng, max_mode=int(rng.integers(2, 42)))
        for s1, s2 in ((0.0, 2.0), (-1.0, 1.0)):
            m1 = 0.0
            m2 = 0.0
            for j in fam.blocks():
                b = l2_norm(dyadic_block(fam, f, j))
                m1 = max(m1, (2.0 ** (j * s1) if j >= 0 else 1.0) * b)
                m2 = max(m2, (2.0 ** (j * s2) if j >= 0 else 1.0) * b)
            gap = s2 - s1
            n_cut = select_frequency_cut(m1, m2, gap)
            ok = ok and (2.0 ** (n_cut * gap) <= m2 / m1 < 2.0 ** ((n_cut + 1) * gap))
            checked += 1
    _verdict(4, "constructive frequency split is exact on the corpus", ok, f"{checked} checks")


def test_criterion_05_iteration_lemma():
    rng = np.random.default_rng(1005)
    agree_dev = 0.0
    decay_ok = True
    for _ in range(200):
        base = IterationSpec(
            K=float(rng.uniform(0.05, 20.0)),
            A=float(rng.uniform(1.0001, 8.0)),
            nu=float(rng.uniform(0.15, 2.5)),
            X0=0.0,
        )
        spec = IterationSpec(base.K, base.A, base.nu, float(rng.uniform(0.0, 1.0)) * theta(base))
        logs = recurrence_log(spec, 60)
        log_theta = math.log(theta(base))
        log_a = math.log(spec.A)
        # forward-error allowance: the superlinear update amplifies rounding
        # by (1 + nu) per step, and the bound is an equality at the threshold
        err_scale = max(1.0, abs(math.log(spec.K)), abs(log_a), abs(log_theta))
        for k in range(61):
            cf = closed_form_log(spec, k)
            if math.isinf(cf) and math.isinf(logs[k]):
                continue
            agree_dev = max(agree_dev, abs(cf - logs[k]) / max(1.0, abs(cf)))
            if logs[k] != -math.inf:
                slack = (1.0 + spec.nu) ** k * 64 * np.finfo(float).eps * err_scale + 1e-9
                decay_ok = decay_ok and logs[k] <= log_theta - (k / spec.nu) * log_a + slack
    ok = agree_dev <= 1e-12 and decay_ok
    _verdict(
        5,
        "iteration closed form vs recurrence, and threshold decay",
        ok,
        f"log-space deviation {agree_dev:.2e}",
    )


def test_criterion_06_explicit_equivalence_constants():
    rng = np.random.default_rng(1006)
    g = make_grid(2, 128, 2 * np.pi, 1.0)
    rho_bar = 1.0
    base = np.abs(random_band_limited(g, rng).values)
    violations = 0
    for gamma in (1.1, 1.5, 2.0, 2.5):
        c1, c2 = equivalence_constants(gamma)
        rho = ScalarField(g, 4.0 * rho_bar + 196.0 * base)
        pi = potential_energy_density(rho, rho_bar, gamma).values
        dev_pow = (rho.values - rho_bar) ** gamma
        violations += int(np.count_nonzero(c1 * dev_pow > pi * (1.0 + 1e-12)))
        violations += int(np.count_nonzero(pi > c2 * dev_pow * (1.0 + 1e-12)))
    positive = all(
        equivalence_constants(float(gamma))[0] > 0.0
        for gamma in np.linspace(1.0, 3.0, 101)[1:]
    )
    ok = violations == 0 and positive
    _verdict(
        6,
        "explicit high-density constants pointwise, lower constant positive",
        ok,
        f"{violations} violations",
    )


def test_criterion_07_jungel_3d():
    g = make_grid(3, 64, 4 * np.pi, 1.0)
    rng = np.random.default_rng(1007)
    slack = 1e-10
    worst = -math.inf
    for _ in range(100):
        f = random_band_limited(g, rng, max_mode=int(rng.integers(3, 9)), amplitude=0.5)
        rho = ScalarField(g, 1.0 + f.values)
        t = second_order_terms(Workspace(FlowState(0.0, rho, VectorField(g, np.zeros((3,) + g.shape)))), identity=False)
        d_val, a_val, b_val = t["D"], t["A"], t["Bp"]
        scale = max(d_val, 1.0)
        worst = max(worst, a_val / 7.0 - d_val, b_val / 8.0 - d_val)
        assert a_val / 7.0 <= d_val + slack * scale
        assert b_val / 8.0 <= d_val + slack * scale
    _verdict(7, "convexity constants 1/7 and 1/8 on 100 random 3d densities", True, f"worst margin {worst:.3e}")


def test_criterion_08_solver():
    g = make_grid(2, 128, 4 * np.pi, 1.0)
    cfg1 = SolverConfig(gamma=2.0, dt=1e-3, t_end=0.0)
    s0 = make_preset("constant", g)
    sp = step_primitive(s0, cfg1)
    se = step_effective(to_effective(s0), cfg1)
    steady_dev = max(
        float(np.max(np.abs(sp.rho.values - 1.0))),
        float(np.max(np.abs(sp.vel.components))),
        float(np.max(np.abs(se.rho.values - 1.0))),
        float(np.max(np.abs(se.vel.components))),
    )

    gm = make_grid(2, 64, 4 * np.pi, 1.0)
    mass_dev = 0.0
    for form in ("primitive", "effective"):
        state = make_preset("gaussian-bump", gm)
        if form == "effective":
            state = to_effective(state)
        rec = run(state, SolverConfig(gamma=2.0, dt=1e-3, t_end=1.0), state_stride=10**9)
        assert rec.times.size == 1001  # 1000 steps
        m0 = float(np.sum(state.rho.values - 1.0) * gm.cell_volume)
        mT = float(np.sum(rec.final.rho.values - 1.0) * gm.cell_volume)
        mass_dev = max(mass_dev, abs(mT - m0))

    energy_ok = True
    energy_notes = []
    for preset, params in (
        ("constant", None),
        ("gaussian-bump", None),
        ("gaussian-bump", {"amplitude": -0.99, "width": 0.08 * gm.box_length}),
        ("random-large", None),
    ):
        incs = {}
        for dt in (1e-3, 5e-4):
            state = make_preset(preset, gm, params, seed=12)
            rec = run(
                state,
                SolverConfig(gamma=2.0, dt=dt, t_end=0.2),
                probes={"E": lambda ws: energy(ws, 2.0).total},
                state_stride=10**9,
            )
            incs[dt] = float(np.max(np.diff(rec.scalars["E"]), initial=-math.inf))
        floor = 100 * np.finfo(float).eps * (1.0 + abs(incs[1e-3]))
        if incs[1e-3] <= floor:
            this_ok = True  # monotone to round-off
        else:
            # increments must vanish quadratically: tol(dt) measured at dt/2
            this_ok = incs[5e-4] > 0 and incs[1e-3] <= 6.0 * incs[5e-4]
        energy_ok = energy_ok and this_ok
        energy_notes.append(f"{preset}{'*' if params else ''}: {incs[1e-3]:.1e}/{incs[5e-4]:.1e}")

    diffs = []
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = SolverConfig(gamma=2.0, dt=dt, t_end=0.04)
        a = run(make_preset("gaussian-bump", gm), cfg, state_stride=10**9).final
        b = from_effective(
            run(to_effective(make_preset("gaussian-bump", gm)), cfg, state_stride=10**9).final
        )
        diffs.append(
            float(np.max(np.abs(a.rho.values - b.rho.values)))
            + float(np.max(np.abs(a.vel.components - b.vel.components)))
        )
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(2)]

    ok = steady_dev <= 1e-14 and mass_dev <= 1e-10 and energy_ok and min(orders) >= 0.9
    _verdict(
        8,
        "steady state, mass conservation, energy decay, cross-formulation order",
        ok,
        f"steady {steady_dev:.1e}, mass {mass_dev:.1e}, "
        f"energy[{'; '.join(energy_notes)}], orders {orders[0]:.3f}/{orders[1]:.3f}",
    )


def test_criterion_09_level_set_machinery(collecting):
    g = make_grid(2, 64, 4 * np.pi, 1.0)
    rng = np.random.default_rng(1009)
    vals = rng.normal(size=g.shape)
    f = ScalarField(g, vals)
    oracle_ok = True
    for level in (-0.7, 0.0, 0.4):
        oracle_ok = oracle_ok and np.array_equal(
            truncate(f, level).values, np.maximum(vals - level, 0.0)
        )
        oracle_ok = oracle_ok and level_set_measure(f, level) == float(
            np.count_nonzero(vals > level) * g.cell_volume
        )

    sound_ok = True
    produced = 0
    for preset, params in (
        ("gaussian-bump", None),
        ("gaussian-bump", {"amplitude": -0.99, "width": 0.08 * g.box_length}),
        ("random-large", None),
    ):
        state = to_effective(make_preset(preset, g, params, seed=12))
        ctx = {}
        observe = audit_observer(("certificate",), ctx)
        rec = run(state, SolverConfig(gamma=2.0, dt=1e-3, t_end=0.3), state_stride=10, observe=observe)
        stored = ctx["stored_times"], ctx["inverse_density"]
        cert = lower_bound_certificate(rec, c_v_estimate=log_law_constant(rec), stored=stored)
        if cert.certified:
            produced += 1
            sound_ok = sound_ok and cert.sound

    res = {}
    for dt in (2e-3, 1e-3):
        states = []
        run(
            to_effective(make_preset("gaussian-bump", g)),
            SolverConfig(gamma=2.0, dt=dt, t_end=0.08),
            state_stride=1,
            observe=collecting(states),
        )
        _, series = inverse_density_pde_residual(states)
        res[dt] = float(np.max(series))
    order = math.log2(res[2e-3] / res[1e-3])

    ok = oracle_ok and produced >= 1 and sound_ok and order >= 0.9
    _verdict(
        9,
        "level-set oracles, certificate soundness, residual convergence",
        ok,
        f"certificates {produced}/3 sound, residual order {order:.3f}",
    )


GROWTH_PS = (2, 6, 14, 30)


@pytest.fixture(scope="module")
def growth_runs():
    out = {}
    for n in (96, 128):
        g = make_grid(2, n, 4 * np.pi, 1.0)
        state = to_effective(
            make_preset(
                "gaussian-bump", g, {"amplitude": -0.99, "width": 0.08 * g.box_length}
            )
        )
        probes = resolve_probes([f"norm.weighted.p{p}" for p in GROWTH_PS], 2.0)
        out[n] = run(
            state, SolverConfig(gamma=2.0, dt=1e-3, t_end=1.0), probes=probes, state_stride=10**9
        )
    return out


def test_criterion_10_growth_law(growth_runs):
    rec = growth_runs[128]
    consts = {
        p: float(np.max(rec.scalars[f"norm.weighted.p{p}"])) / math.sqrt(p + 2.0)
        for p in GROWTH_PS
    }
    values = list(consts.values())
    spread = max(values) / min(values) - 1.0
    ok = spread <= 0.20
    _verdict(
        10,
        "square-root growth constants flat across the exponent ladder",
        ok,
        "spread {:.3f}, constants ".format(spread)
        + " ".join(f"{v:.3f}" for v in values),
    )


def test_criterion_11_log_law(growth_runs):
    cv = {n: log_law_constant(growth_runs[n]) for n in (96, 128)}
    drift = abs(1.0 - cv[96] / cv[128])
    ok = all(math.isfinite(v) and v > 0 for v in cv.values()) and drift <= 0.10
    _verdict(
        11,
        "velocity log-law constant finite and grid-stable",
        ok,
        f"c_v(96)={cv[96]:.4f}, c_v(128)={cv[128]:.4f}, drift {drift:.3f}",
    )


def test_criterion_12_determinism(tmp_path):
    config = """
[grid]
dim = 2
n = 64
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = random-large

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.02
formulation = effective

[probes]
names = energy.total, venergy, density.min

[audits]
names = bd-identity, region-split, certificate

[output]
directory = {out}

[rng]
seed = 42
"""
    paths = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.cfg"
        cfg_path.write_text(config.format(out=f"run_{tag}"))
        code = cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)])
        assert code == 0
        paths.append(tmp_path / f"run_{tag}")
    identical = True
    for name in ("series.csv", "audits.csv", "certificate.csv"):
        identical = identical and (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()
    _verdict(12, "identical runs produce byte-identical CSV outputs", identical)
