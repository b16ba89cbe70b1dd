"""Energy and entropy functionals of the flow, and the inequality audits built on them.

Covers the potential energy density and its two-sided equivalence with powers
of the density deviation, the kinetic/potential/gradient energy balance, the
effective-velocity energy, the dissipation identity linking the two velocity
fields, the convexity inequalities controlling second derivatives of the
density square root, weighted velocity norms and their growth in the
integrability exponent, the domain splitting at four times the far-field
density, the space-time velocity functional and its self-improvement bound,
and the logarithmic control of the velocity maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .audits import AuditReport, _merge_worst, bound_report, identity_report
from .calibration import DRIFT_FACTOR, CONSTANTS
from .fields import (
    FieldError,
    PositivityError,
    ScalarField,
    _total,
    gradient,
    gradient_energy,
    hessian_energy,
    integral,
    power_field,
    sqrt_field,
)
from .solver import FlowState, Workspace

__all__ = [
    "EnergyBreakdown",
    "potential_energy_density",
    "equivalence_constants",
    "pi_equivalence_audit",
    "energy",
    "dissipation_rate",
    "v_energy_dissipations",
    "velocity_moments",
    "second_order_terms",
    "bd_identity_audit",
    "jungel_bounds",
    "region_split",
    "psi",
    "reverse_holder_exponents",
    "reverse_holder_terms",
    "reverse_holder_audit",
    "log_law_constant",
    "log_law_audit",
    "HOLDER_EXPONENT",
    "LOG_FLOOR",
]

HOLDER_EXPONENT = 5.0 / 3.0
LOG_FLOOR = math.exp(HOLDER_EXPONENT**2)  # e^(25/9), additive floor of V_T


# ----------------------------------------------------------------------
# potential energy density and its equivalence constants


def _power_potential(r, rho_bar: float, g: float):
    """The gamma > 1 potential of ``potential_energy_density`` at the densities ``r``, unclipped."""
    return r**g / g - rho_bar**g / g - rho_bar ** (g - 1.0) * (r - rho_bar)


def potential_energy_density(rho: ScalarField, rho_bar: float, gamma: float) -> ScalarField:
    """Convex relative entropy of the density against the far-field value.

    gamma > 1: rho^g/g - rho_bar^g/g - rho_bar^(g-1) (rho - rho_bar);
    gamma = 1: rho log(rho/rho_bar) + rho_bar - rho.  Nonnegative, zero only
    at rho = rho_bar; tiny negative round-off near the minimum is clipped.
    """
    if rho_bar <= 0:
        raise FieldError("far-field density must be positive")
    r = rho.values
    if gamma == 1.0:
        if np.min(r) <= 0:
            raise PositivityError("logarithmic potential needs strictly positive density")
        pi = r * np.log(r / rho_bar) + rho_bar - r
    else:
        if np.min(r) < 0:
            raise FieldError("density must be nonnegative")
        pi = _power_potential(r, rho_bar, float(gamma))
    return ScalarField(rho.grid, np.maximum(pi, 0.0))


def equivalence_constants(gamma: float) -> tuple[float, float]:
    """Explicit two-sided constants on the high-density region rho >= 4 rho_bar."""
    if gamma <= 1.0:
        raise FieldError("explicit high-density constants need gamma > 1")
    c1 = 1.0 / gamma - 0.25 ** (gamma - 1.0)
    c2 = (1.0 / gamma) * (4.0 / 3.0) ** gamma
    return c1, c2


@cache
def _low_branch_span(gamma: float, rho_bar: float) -> tuple[float, float]:
    """Range of pi / (rho - rho_bar)^2 over [0, 4 rho_bar], by dense sampling.

    Formed once per (gamma, rho_bar), over the samples in ten chunks: the
    extremes of the chunks' extremes are those of the whole range, bit for bit.
    """
    lows, highs = [], []
    for r in np.array_split(np.linspace(0.0, 4.0 * rho_bar, 20001), 10):
        pi = _power_potential(r, rho_bar, float(gamma))
        dev2 = (r - rho_bar) ** 2
        keep = dev2 > (1e-4 * rho_bar) ** 2
        ratio = pi[keep] / dev2[keep]
        lows.append(np.min(ratio))
        highs.append(np.max(ratio))
    return float(np.min(lows)), float(np.max(highs))


def pi_equivalence_audit(rho: ScalarField, rho_bar: float, gamma: float):
    """Pointwise equivalence of the potential energy density, one report per
    density range.

    High branch {rho >= 4 rho_bar}: exact explicit constants, tolerance 1e-12.
    Low branch [0, 4 rho_bar]: the field's ratios must fall inside the densely
    sampled range of the same quotient, whose positivity is the calibrated fact.
    """
    if gamma <= 1.0:
        raise FieldError("equivalence audit needs gamma > 1")
    pi = potential_energy_density(rho, rho_bar, gamma).values
    r = rho.values
    dev = r - rho_bar
    cite_high = "high-density equivalence with explicit constants"
    cite_low = "bounded-density equivalence via extreme values"

    c1, c2 = equivalence_constants(gamma)
    high = r >= 4.0 * rho_bar
    if np.any(high):
        powg = np.abs(dev[high]) ** gamma
        worst_high = max(
            float(np.max(c1 * powg / pi[high])), float(np.max(pi[high] / (c2 * powg)))
        )
        high_rep = bound_report("pi.high.two_sided", worst_high, 1.0, 1e-12, cite_high)
    else:
        high_rep = bound_report("pi.high.two_sided", 0.0, 1.0, 1e-12, cite_high)

    lo_min, lo_max = _low_branch_span(gamma, rho_bar)
    # pad for the attainment error of extremes sampled on a finite rho-grid
    pad = 1e-6
    lo_min, lo_max = lo_min * (1.0 - pad), lo_max * (1.0 + pad)
    low = (r <= 4.0 * rho_bar) & (np.abs(dev) > 1e-4 * rho_bar)
    if np.any(low) and lo_min > 0.0:
        ratio = pi[low] / dev[low] ** 2
        worst = max(float(np.max(ratio)) / lo_max, lo_min / float(np.min(ratio)))
        low_rep = bound_report("pi.low.two_sided", worst, 1.0, 1e-9, cite_low)
    else:
        low_rep = bound_report("pi.low.two_sided", 0.0 if lo_min > 0 else math.inf, 1.0, 1e-9, cite_low)
    return [high_rep, low_rep]


# ----------------------------------------------------------------------
# energy balances


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    fisher: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential + self.fisher


def energy(ws: Workspace, gamma: float) -> EnergyBreakdown:
    """Kinetic + pressure-potential + density-gradient energy of a workspace's state."""
    rho = ws.state.rho
    kinetic = 0.5 * float(np.sum(rho.values * _total(c * c for c in ws.velocity("primitive"))) * rho.grid.cell_volume)
    pi = potential_energy_density(rho, rho.grid.far_field_density, gamma)
    factor = 1.0 if gamma == 1.0 else gamma / (gamma - 1.0)
    potential = factor * integral(pi)
    fisher = 2.0 * gradient_energy(rho.grid, rho.grid.rfft(sqrt_field(rho).values))
    return EnergyBreakdown(kinetic, potential, fisher)


def dissipation_rate(ws: Workspace) -> float:
    """2 * integral of rho |D(u)|^2, the decay rate of the total energy.

    The squares of the entries D(u)_ij = (d_j u_i + d_i u_j) / 2 are summed
    one at a time in row-major order, as ``second_order_terms`` sums its
    tensors, so the floats are those of the full d x d tensor; an
    off-diagonal D(u)_ij is held only until (j, i) reads it.  d transforms
    and d^2 inverse transforms, as for the tensor.
    """
    grid = ws.state.grid
    ks = grid.rwavevectors
    hats = [grid.rfft(c) for c in ws.velocity("primitive")]
    held = {}

    def strain(i, j):
        if j < i:
            return held.pop((j, i))
        e = grid.irfft(1j * ks[j] * hats[i])
        e += e if j == i else grid.irfft(1j * ks[i] * hats[j])
        e *= 0.5
        if j > i:
            held[i, j] = e
        return e

    dens = _total(strain(i, j) ** 2 for i in range(grid.dim) for j in range(grid.dim))
    dens *= ws.state.rho.values
    return 2.0 * float(np.sum(dens) * grid.cell_volume)


def velocity_moments(ws: Workspace, exponents=()) -> tuple[float, dict]:
    """``(int rho |v|^2, {q: int rho |v|^q for q in exponents})`` in effective
    form, all from the workspace's |v|^2: the one source of every rho |v|^q
    integral.  For an even integer q > 0, |v|^q is a prefix of one
    left-to-right chain of products v2 * v2 * ..., shared by every such q;
    any other q takes one power.  The chain is built in one array, the
    first product's."""
    rho, v2, cell = ws.state.rho.values, ws.v2, ws.state.grid.cell_volume

    def moment(power: np.ndarray) -> float:
        return float(np.sum(rho * power) * cell)

    def even(q) -> bool:
        return q > 0 and q % 2 == 0

    prefix, power, reached = {}, v2, 1
    for half in sorted({int(q) // 2 for q in exponents if even(q)}):
        for _ in range(half - reached):
            if power is v2:
                power = v2 * v2
            else:
                np.multiply(power, v2, out=power)
        prefix[half], reached = moment(power), half
    del power
    return moment(v2), {q: prefix[int(q) // 2] if even(q) else moment(v2 ** (q / 2.0)) for q in exponents}


def v_energy_dissipations(ws: Workspace, gamma: float) -> tuple[float, float]:
    """The two dissipation integrands paired with the v-energy:
    |grad rho^(gamma/2)|^2 and rho |grad v|^2."""
    rho = ws.state.rho
    grid = rho.grid
    a = gradient_energy(grid, grid.rfft(power_field(rho, gamma / 2.0).values))
    # the squares of the entries d_j v_i, summed one at a time in row-major order
    hats = map(grid.rfft, ws.velocity("effective"))
    squares = (grid.irfft(1j * k * hat) ** 2 for hat in hats for k in grid.rwavevectors)
    b = float(np.sum(rho.values * _total(squares)) * grid.cell_volume)
    return a, b


def second_order_terms(ws: Workspace, identity: bool = True, convexity: bool = True) -> dict[str, float]:
    """The integrals of a workspace's state that the bd-identity and jungel
    audits and the ``jungel.*`` probes read, derived from the workspace's
    spectrum of log rho, with no d x d field tensor.

    Always "D" = int rho |hess log rho|^2.  With ``identity``: "lhs" =
    int rho |grad v|^2, "u" = int rho |grad u|^2 and "dt" = 4 int div(rho u)
    lap(sqrt rho)/sqrt rho, u read one component at a time from
    ``ws.velocity("primitive")``.  With ``convexity``: "A" = int
    |hess sqrt rho|^2 (by Parseval, from the spectrum of sqrt rho that "dt"
    also uses) and "Bp" = int |grad rho^(1/4)|^4.  Only these floats outlive
    the call.

    grad v is formed as grad u + hess log rho, not by differentiating
    v = u + grad log rho.  The two differ only through the Nyquist-plane
    content of log rho: the second-derivative symbol ``Grid.rsecond`` keeps
    the products n_i n_j there, while two first derivatives (each with its
    Nyquist entry zeroed) drop them.  On run states that is round-off (at most
    1.8e-15 relative).
    """
    rho = ws.state.rho
    u = ws.velocity("primitive") if identity else None
    grid = rho.grid
    cell = grid.cell_volume
    r = rho.values
    ks, kk = grid.rwavevectors, grid.rsecond
    # rho-weighted squares of hess log rho ("D"), grad u ("u") and grad v =
    # grad u + hess log rho ("lhs"), summed one entry at a time in row-major
    # order: the order in which numpy sums a d x d tensor over both axes, so
    # the floats are those of the full tensors.  An off-diagonal H_ij is held
    # only until row j reads it as H_ji.
    log_hat = ws.log_rho_hat
    squares = {"D": 0.0} if u is None else {"D": 0.0, "u": 0.0, "lhs": 0.0}
    held = {}
    for i in range(grid.dim):
        u_hat = None if u is None else grid.rfft(next(u))
        for j in range(grid.dim):
            h = held.pop((j, i)) if j < i else grid.irfft(-kk[i][j] * log_hat)
            if j > i:
                held[i, j] = h
            squares["D"] += h**2
            if u is not None:
                jac = grid.irfft(1j * ks[j] * u_hat)
                squares["u"] += jac**2
                jac += h
                squares["lhs"] += jac**2
    out = {name: float(np.sum(r * total) * cell) for name, total in squares.items()}
    del squares, log_hat, u_hat, h

    srho = sqrt_field(rho)
    s_hat = grid.rfft(srho.values)
    if convexity:
        out["A"] = hessian_energy(grid, s_hat)
        gq = gradient(power_field(rho, 0.25)).components
        out["Bp"] = float(np.sum(_total(c * c for c in gq) ** 2) * cell)
    if u is not None:
        # 4 d/dt of the gradient-of-sqrt energy, with the time derivative expressed
        # through the mass equation: 4 * integral of div(rho u) * lap(sqrt rho)/sqrt rho
        div_m = grid.irfft(sum(1j * k * grid.rfft(r * c) for k, c in zip(ks, ws.velocity("primitive"))))
        lap_s = grid.irfft(-grid.rk2 * s_hat)
        out["dt"] = 4.0 * float(np.sum(div_m * lap_s / srho.values) * cell)
    return out


def bd_identity_audit(terms, tolerance: float = 1e-8) -> AuditReport:
    """Pointwise-in-time identity: rho|grad v|^2 integrates to the rho|grad u|^2
    and rho|hess log rho|^2 pieces plus the exact rate of the gradient energy.

    ``terms`` is each stored state's integrals as ``second_order_terms`` gives
    them (with ``identity``), as a run's audit observer keeps them.  The row is
    the worst stored state's report, picked as every audit picks its row
    (``audits._merge_worst``): a failing one if there is one, else the largest
    ratio.
    """
    if not terms:
        raise FieldError("trajectory holds no states")
    reports = [
        identity_report(
            "bd.identity",
            t["lhs"],
            t["u"] + t["D"] + t["dt"],
            tolerance,
            "effective-velocity dissipation identity",
            floor=1e-12,
        )
        for t in terms
    ]
    return _merge_worst(reports)[0]


# ----------------------------------------------------------------------
# convexity control of second derivatives of sqrt(rho)


def jungel_bounds(terms, dim: int):
    """D >= A/7 and D >= B'/8 on one state's ``second_order_terms`` (with
    ``convexity``); asserted in 3d, reported as measured in 2d."""
    d_val, a_val, b_val = terms["D"], terms["A"], terms["Bp"]
    cite = "convexity bounds on second derivatives of the density square root"
    if dim == 3:
        rhs = d_val + 1e-10 * max(d_val, 1.0)  # round-off slack
        r1 = bound_report("jungel.hessian_sqrt", a_val / 7.0, rhs, 0.0, cite)
        r2 = bound_report("jungel.quartic_gradient", b_val / 8.0, rhs, 0.0, cite)
        return [r1, r2]
    cite += " (2d: measured only)"
    r1 = bound_report("jungel.hessian_sqrt.measured", a_val / 7.0, math.inf, 0.0, cite, kind="measured")
    r2 = bound_report("jungel.quartic_gradient.measured", b_val / 8.0, math.inf, 0.0, cite, kind="measured")
    return [r1, r2]


# ----------------------------------------------------------------------
# domain splitting


def region_split(s: FlowState, gamma: float) -> AuditReport:
    """The measure of {rho > 4 rho_bar} against the bound the potential energy
    implies for it, with the energy summed over each side of the split."""
    if gamma <= 1.0:
        raise FieldError("region split audit needs gamma > 1")
    grid = s.grid
    rho_bar = grid.far_field_density
    pi = potential_energy_density(s.rho, rho_bar, gamma).values
    cell = grid.cell_volume
    high = s.rho.values > 4.0 * rho_bar
    pi_low = float(np.sum(pi[~high]) * cell)
    pi_high = float(np.sum(pi[high]) * cell)
    floor = rho_bar**gamma * ((4.0**gamma - 1.0) / gamma - 3.0)
    return bound_report(
        "region.chebyshev",
        float(np.count_nonzero(high) * cell),
        (pi_low + pi_high) / floor,
        1e-9,
        "high-density measure bound from the potential energy",
    )


# ----------------------------------------------------------------------
# space-time functionals of trajectories


def psi(stored, exponents) -> dict:
    """``{q: time-trapezoid of int rho |v|^q}`` over the stored states.
    ``stored`` is their times and their ``velocity_moments`` at (at least)
    ``exponents``, as a run's audit observer keeps them."""
    times, moments = stored
    if not moments:
        raise FieldError("trajectory holds no states")
    times = np.array(times)  # one state integrates to 0
    return {q: float(np.trapezoid(np.array([m[q] for _, m in moments]), times)) for q in exponents}


def reverse_holder_exponents(ps) -> tuple:
    """The psi exponents the reverse-Hoelder terms of ``ps`` read: q = p + 2
    and (5/3) q for each p, each once."""
    return tuple(dict.fromkeys(e for p in ps for e in (p + 2.0, HOLDER_EXPONENT * (p + 2.0))))


def _vt_value(trajectory) -> float:
    """V_T = 1 / (the per-step density minimum) + the log floor."""
    min_rho = float(np.min(trajectory.scalars["density.min"]))
    if min_rho <= 0:
        raise PositivityError("trajectory loses density positivity")
    return 1.0 / min_rho + LOG_FLOOR


def reverse_holder_terms(trajectory, ps, stored) -> dict:
    """For each p, the reverse-Hoelder bound psi((5/3)(p+2)) <= C3 * V_T * body
    as ``{p: (lhs, V_T, body)}``; the calibrated C3 is the largest
    lhs / (V_T * body).  ``stored`` is as for ``psi``, at
    ``reverse_holder_exponents(ps)``: all six psi exponents and c4's initial
    v-energy come from it, and c4 reads the initial state's ``veff.max``."""
    r = HOLDER_EXPONENT
    qs = {p: p + 2.0 for p in ps}
    integrals = psi(stored, reverse_holder_exponents(ps))
    vt = _vt_value(trajectory)
    c4 = math.sqrt(stored[1][0][0]) + float(trajectory.scalars["veff.max"][0]) + 1.0
    return {
        p: (integrals[r * q], vt, q ** (2.0 * r) * integrals[q] ** r + q ** (2.0 * r) + c4 ** (r * q))
        for p, q in qs.items()
    }


def _frozen(family: str, preset: str | None) -> float | None:
    """The calibrated constant ``<family>.<preset>``, or None when the preset
    has none: a row without its constant is measured, not asserted."""
    return CONSTANTS.get(f"{family}.{preset}") if preset else None


def reverse_holder_audit(trajectory, ps, stored, preset: str | None = None) -> list[AuditReport]:
    """Self-improvement of the space-time velocity functional from exponent
    p+2 to (5/3)(p+2), one row per p, with the preset's calibrated constant
    as the alarm; ``stored`` as for ``reverse_holder_terms``."""
    c3 = _frozen("psi.C3", preset)
    return [
        bound_report(
            "psi.reverse_holder",
            lhs,
            math.inf if c3 is None else DRIFT_FACTOR * c3 * vt * body,
            0.0,
            "space-time velocity functional self-improvement",
            kind="measured" if c3 is None else "asserted",
        )
        for lhs, vt, body in reverse_holder_terms(trajectory, ps, stored).values()
    ]


def _log_law_terms(trajectory) -> tuple[float, float]:
    """``(sup_t |v|_inf, V_T)`` from the per-step columns."""
    return float(np.max(trajectory.scalars["veff.max"])), _vt_value(trajectory)


def log_law_constant(trajectory) -> float:
    """Empirical ratio sup_t |v|_inf / sqrt(log V_T)."""
    v_sup, vt = _log_law_terms(trajectory)
    return v_sup / math.sqrt(math.log(vt))


def log_law_audit(trajectory, preset: str | None = None) -> AuditReport:
    """Velocity maximum against the square root of the logarithm of V_T."""
    v_sup, vt = _log_law_terms(trajectory)
    cv = _frozen("loglaw.cv", preset)
    return bound_report(
        "loglaw.v_sup",
        v_sup,
        math.inf if cv is None else DRIFT_FACTOR * cv * math.sqrt(math.log(vt)),
        0.0,
        "logarithmic control of the velocity maximum",
        kind="measured" if cv is None else "asserted",
    )
