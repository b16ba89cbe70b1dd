"""Dyadic frequency decomposition, Besov-type norms, and frequency-space audits.

The decomposition uses smooth radial multipliers: a low-frequency cap
supported in {|xi| < 4/3} and annular bumps supported in
{3/4 * 2^j < |xi| < 8/3 * 2^j}.  On the finite lattice the family is
truncated at the largest annulus below the lattice's maximal frequency and
the multipliers are normalized pointwise so they sum to one exactly.

Norm convention: block j >= 0 carries weight 2^(j*s); the low block carries
weight 1.  With this lattice convention the computed norms are monotone in
the regularity exponent, which the invariant suite checks exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .audits import AuditReport, bound_report
from .calibration import DRIFT_FACTOR, calibrated
from .fields import FieldError, Grid, ScalarField, lp_norm

__all__ = [
    "BesovIndex",
    "DyadicFamily",
    "TimeSeriesField",
    "top_block",
    "build_dyadic_family",
    "dyadic_block",
    "block_norms",
    "block_norm_table",
    "besov_norm",
    "chemin_lerner_norm",
    "lq_besov_norm",
    "bernstein_ratios",
    "bernstein_audit",
    "select_frequency_cut",
    "interpolation_terms",
    "optimal_interpolation_audit",
    "heat_terms",
    "heat_regularity_audit",
    "heat_evolve",
]


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _cap_profile(r: np.ndarray) -> np.ndarray:
    # 1 on {r <= 3/4}, 0 on {r >= 4/3}
    return 1.0 - _smooth_step((r - 0.75) / (4.0 / 3.0 - 0.75))


@dataclass(frozen=True)
class BesovIndex:
    """Regularity s, integrability p, summation exponent r (1 <= p, r <= inf)."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise FieldError("regularity exponent must be finite")
        for name, val in (("p", self.p), ("r", self.r)):
            if not (1 <= val <= math.inf):
                raise FieldError(f"{name} must lie in [1, inf], got {val}")


@dataclass(frozen=True, eq=False)
class DyadicFamily:
    """Low-frequency cap plus annular multipliers on a grid's half lattice."""

    grid: Grid
    chi: np.ndarray
    phis: tuple
    j_max: int

    def multiplier(self, j: int) -> np.ndarray:
        if j == -1:
            return self.chi
        return self.phis[j]

    def blocks(self):
        return range(-1, self.j_max + 1)


def top_block(grid: Grid) -> int:
    """Index j_max of the last annulus: the largest j whose inner edge
    3/4 2^j lies below the grid's largest |xi|."""
    ximax = math.sqrt(float(np.max(grid.rk2)))
    j_max = int(math.floor(math.log2(ximax / 0.75)))
    while 0.75 * 2.0**j_max >= ximax:
        j_max -= 1
    while 0.75 * 2.0 ** (j_max + 1) < ximax:
        j_max += 1
    return j_max


def build_dyadic_family(grid: Grid) -> DyadicFamily:
    j_max = top_block(grid)
    if j_max < 1:
        raise FieldError(
            f"grid too coarse for a dyadic family (largest annulus index {j_max})"
        )

    kmag = np.sqrt(grid.rk2)
    chi = _cap_profile(kmag)
    phis = []
    for j in range(j_max + 1):
        phis.append(_cap_profile(kmag / 2.0 ** (j + 1)) - _cap_profile(kmag / 2.0**j))
    total = chi + sum(phis)
    chi = chi / total
    phis = tuple(p / total for p in phis)
    return DyadicFamily(grid, chi, phis, j_max)


def dyadic_block(family: DyadicFamily, u: ScalarField, j: int) -> ScalarField:
    """Frequency-localized piece of u; zero for j < -1, error past the lattice."""
    if j > family.j_max:
        raise FieldError(f"block {j} beyond grid resolution (max {family.j_max})")
    grid = family.grid
    if j < -1:
        return ScalarField(grid, np.zeros(grid.shape))
    return ScalarField(grid, grid.irfft(family.multiplier(j) * grid.rfft(u.values)))


def block_norms(family: DyadicFamily, u: ScalarField, p: float) -> np.ndarray:
    """L^p norm of every block of u (low cap first), all from one forward transform."""
    grid = family.grid
    hat = grid.rfft(u.values)
    blocks = (ScalarField(grid, grid.irfft(family.multiplier(j) * hat)) for j in family.blocks())
    return np.array([lp_norm(b, p) for b in blocks])


def _besov_sum(family: DyadicFamily, norms: np.ndarray, s: float, r: float) -> float:
    """l^r sum of per-block values, block j >= 0 weighted 2^(j*s), the low cap 1."""
    terms = np.array([2.0 ** (j * s) if j >= 0 else 1.0 for j in family.blocks()]) * norms
    if r == math.inf:
        return float(np.max(terms))
    return float(np.sum(terms**r) ** (1.0 / r))


def besov_norm(family: DyadicFamily, u: ScalarField, idx: BesovIndex) -> float:
    return _besov_sum(family, block_norms(family, u, idx.p), idx.s, idx.r)


# ----------------------------------------------------------------------
# time-indexed fields and mixed space-time norms


@dataclass(frozen=True, eq=False)
class TimeSeriesField:
    """Snapshots at strictly increasing times on one grid."""

    times: np.ndarray
    snapshots: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        snaps = tuple(self.snapshots)
        if t.ndim != 1 or t.size == 0 or t.size != len(snaps):
            raise FieldError("times and snapshots must be non-empty and matching")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise FieldError("times must be strictly increasing")
        grid = snaps[0].grid
        for s in snaps[1:]:
            if s.grid != grid:
                raise FieldError("snapshots must share one grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "snapshots", snaps)

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].grid


def _time_lq(values: np.ndarray, times: np.ndarray, q: float) -> float:
    if q == math.inf:
        return float(np.max(values))
    if times.size == 1:
        return 0.0
    return float(np.trapezoid(values**q, times) ** (1.0 / q))


def block_norm_table(family, series: TimeSeriesField, p: float) -> np.ndarray:
    """L^p block norms of every snapshot: rows indexed by block (low cap
    first), columns by sample time."""
    return np.column_stack([block_norms(family, snap, p) for snap in series.snapshots])


def _chemin_lerner_sum(family, table: np.ndarray, times: np.ndarray, q: float, s: float, r: float):
    in_time = np.array([_time_lq(row, times, q) for row in table])
    return _besov_sum(family, in_time, s, r)


def chemin_lerner_norm(family, series: TimeSeriesField, q: float, idx: BesovIndex) -> float:
    """Time integral taken inside the block summation (trapezoid in time)."""
    if not (1 <= q <= math.inf):
        raise FieldError(f"q must lie in [1, inf], got {q}")
    table = block_norm_table(family, series, idx.p)
    return _chemin_lerner_sum(family, table, series.times, q, idx.s, idx.r)


def lq_besov_norm(family, series: TimeSeriesField, q: float, idx: BesovIndex) -> float:
    """Time integral taken outside: L^q in time of the spatial dyadic norm."""
    if not (1 <= q <= math.inf):
        raise FieldError(f"q must lie in [1, inf], got {q}")
    table = block_norm_table(family, series, idx.p)
    per_time = np.array([_besov_sum(family, col, idx.s, idx.r) for col in table.T])
    return _time_lq(per_time, series.times, q)


# ----------------------------------------------------------------------
# frequency-localized derivative bounds


def _multi_indices(dim: int, k: int):
    for alpha in _iproduct(range(k + 1), repeat=dim):
        if sum(alpha) == k:
            yield alpha


def bernstein_ratios(
    family: DyadicFamily, u: ScalarField, j: int, k: int, a: float, b: float
) -> dict:
    """Raw ratios for the three frequency-localized derivative bounds on block j.

    The input must be spectrally supported in the block (checked); the
    reference scale lambda is the spectral RMS frequency of the input, which
    for a single mode is its exact wavenumber magnitude.  For an axis-aligned
    single mode all three ratios are exactly 1.
    """
    if not (1 <= a <= b <= math.inf):
        raise FieldError(f"need 1 <= a <= b <= inf, got a={a}, b={b}")
    if k < 1:
        raise FieldError("derivative order k must be >= 1")
    grid = family.grid
    hat = grid.rfft(u.values)
    # full-lattice sums of |hat|^2 from the half lattice (Parseval weights)
    power = grid.rweight * np.abs(hat) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return {"ball": 0.0, "annulus": 0.0, "multiplier": 0.0, "scale": 0.0}
    outside = float(np.sum(power[~(family.multiplier(j) > 0.0)]))
    if outside > 1e-16 * total:
        raise FieldError(f"input not band-limited to block {j}")

    lam = float(np.sqrt(np.sum(grid.rk2 * power) / total))
    norm_a = lp_norm(u, a)
    derivs = [
        ScalarField(grid, grid.irfft(1j ** sum(alpha) * grid.rmonomial(alpha) * hat))
        for alpha in _multi_indices(grid.dim, k)
    ]
    deriv_a = max(lp_norm(d, a) for d in derivs)
    deriv_b = max(lp_norm(d, b) for d in derivs)
    gain = lam ** (k + grid.dim * (1.0 / a - 1.0 / b))
    mult_b = lp_norm(ScalarField(grid, grid.irfft(grid.rk2 ** (k / 2.0) * hat)), b)
    return {
        "ball": deriv_b / (gain * norm_a),
        "annulus": deriv_a / (lam**k * norm_a),
        "multiplier": mult_b / (gain * norm_a),
        "scale": lam,
    }


def bernstein_audit(family: DyadicFamily, u: ScalarField, j: int, k: int, a: float, b: float):
    """Audit the three bounds against the calibrated drift envelope."""
    ratios = bernstein_ratios(family, u, j, k, a, b)
    cite_ball = "frequency-ball derivative bound"
    cite_ann = "frequency-annulus two-sided derivative bound"
    cite_mult = "homogeneous Fourier multiplier bound"
    c_ball = DRIFT_FACTOR * calibrated(f"bernstein.ball.k{k}")
    c_ann = DRIFT_FACTOR * calibrated(f"bernstein.annulus.k{k}")
    c_mult = DRIFT_FACTOR * calibrated(f"bernstein.multiplier.k{k}")
    two_sided = (
        max(ratios["annulus"], 1.0 / ratios["annulus"]) if ratios["annulus"] > 0 else 0.0
    )
    return [
        bound_report("bernstein.ball", ratios["ball"], c_ball, 0.0, cite_ball),
        bound_report("bernstein.annulus.two_sided", two_sided, c_ann, 0.0, cite_ann),
        bound_report("bernstein.multiplier", ratios["multiplier"], c_mult, 0.0, cite_mult),
    ]


# ----------------------------------------------------------------------
# sharp interpolation with the constructive frequency split


def select_frequency_cut(m1: float, m2: float, gap: float) -> int:
    """Largest integer N with 2^(N*gap) <= m2/m1, verified exactly."""
    if m1 <= 0 or m2 <= 0 or gap <= 0:
        raise FieldError("frequency cut needs positive norms and a positive gap")
    ratio = m2 / m1
    n = int(math.floor(math.log2(ratio) / gap))
    while 2.0 ** (n * gap) > ratio:
        n -= 1
    while 2.0 ** ((n + 1) * gap) <= ratio:
        n += 1
    return n


def interpolation_terms(family, norms: np.ndarray, s1: float, s2: float, theta: float):
    """``(lhs, m1, m2, rhs)`` of the two-norm interpolation bound from one
    ``block_norms`` vector; rhs is the shape factor times m1^theta m2^(1-theta),
    before the calibrated constant."""
    if not s1 < s2:
        raise FieldError("need s1 < s2")
    if not 0.0 < theta < 1.0:
        raise FieldError(f"degenerate interpolation weight theta={theta}")
    lhs = _besov_sum(family, norms, theta * s1 + (1.0 - theta) * s2, 1)
    m1 = _besov_sum(family, norms, s1, math.inf)
    m2 = _besov_sum(family, norms, s2, math.inf)
    shape = (1.0 / (s2 - s1)) * (1.0 / theta + 1.0 / (1.0 - theta))
    return lhs, m1, m2, shape * m1**theta * m2 ** (1.0 - theta)


def optimal_interpolation_audit(family, u, s1: float, s2: float, theta: float, p: float):
    """Check the two-norm interpolation bound with explicit theta dependence."""
    lhs, m1, m2, rhs = interpolation_terms(family, block_norms(family, u, p), s1, s2, theta)
    gap = s2 - s1
    cite = "sharp interpolation between regularity exponents"
    c_allowed = DRIFT_FACTOR * calibrated("interpolation.C")
    main = bound_report("interpolation.two_norm", lhs, c_allowed * rhs, 0.0, cite)

    if m1 == 0.0 or m2 == 0.0:
        cut = bound_report("interpolation.frequency_cut", 0.0, 0.0, 0.0, cite)
        return [main, cut]
    n = select_frequency_cut(m1, m2, gap)
    ratio = m2 / m1
    ok = 2.0 ** (n * gap) <= ratio < 2.0 ** ((n + 1) * gap)
    cut = AuditReport(
        "interpolation.frequency_cut",
        2.0 ** (n * gap),
        ratio,
        2.0 ** (n * gap) / ratio,
        0.0,
        bool(ok),
        cite,
    )
    return [main, cut]


# ----------------------------------------------------------------------
# heat flow: exact per-mode integrator and the maximal smoothing audit


def _phi1(x: np.ndarray) -> np.ndarray:
    out = np.ones_like(x)
    nz = x > 0
    out[nz] = -np.expm1(-x[nz]) / x[nz]
    return out


def _phi2(x: np.ndarray) -> np.ndarray:
    # (1 - exp(-x)(1 + x)) / x^2 with a series branch for small x
    out = np.full_like(x, 0.5)
    small = (x > 0) & (x < 1e-4)
    big = x >= 1e-4
    xs = x[small]
    out[small] = 0.5 - xs / 3.0 + xs**2 / 8.0
    xb = x[big]
    out[big] = (1.0 - np.exp(-xb) * (1.0 + xb)) / xb**2
    return out


def heat_evolve(u0: ScalarField, forcing: TimeSeriesField, mu: float) -> TimeSeriesField:
    """Diffusion with source, solved exactly per mode for piecewise-linear-in-time forcing."""
    if mu <= 0:
        raise FieldError("viscosity must be positive")
    grid = u0.grid
    if forcing.grid != grid:
        raise FieldError("forcing grid does not match the initial state")
    times = forcing.times
    f_hats = [grid.rfft(s.values) for s in forcing.snapshots]
    a = mu * grid.rk2
    hat = grid.rfft(u0.values)
    snaps = [u0]
    for m in range(times.size - 1):
        h = times[m + 1] - times[m]
        x = a * h
        decay = np.exp(-x)
        p1 = _phi1(x)
        p2 = _phi2(x)
        df = f_hats[m + 1] - f_hats[m]
        # integral of the decaying propagator against a linear-in-time source
        hat = decay * hat + h * (f_hats[m] * p1 + df * (p1 - p2))
        snaps.append(ScalarField(grid, grid.irfft(hat.copy())))
    return TimeSeriesField(times, snaps)


def heat_terms(
    family: DyadicFamily, times: np.ndarray, tables, q1: float, q2: float, idx: BesovIndex
) -> tuple[float, float]:
    """``(lhs, rhs)`` of the heat-flow smoothing bound from block norms at
    exponent ``idx.p``; rhs is the data norm plus the source norm, before the
    calibrated constant.  ``tables`` is the solution's ``block_norm_table``,
    the initial data's ``block_norms`` and the forcing's ``block_norm_table``.
    A caller that varies q1, q2, idx.s or idx.r over one solution computes
    them once."""
    if not (1 <= q2 <= q1 <= math.inf):
        raise FieldError(f"need 1 <= q2 <= q1 <= inf, got q1={q1}, q2={q2}")
    sol_table, u0_norms, forcing_table = tables
    gain1 = 0.0 if q1 == math.inf else 2.0 / q1
    gain2 = 0.0 if q2 == math.inf else 2.0 / q2
    lhs = _chemin_lerner_sum(family, sol_table, times, q1, idx.s + gain1, idx.r)
    rhs_data = _besov_sum(family, u0_norms, idx.s, idx.r)
    rhs_force = _chemin_lerner_sum(family, forcing_table, times, q2, idx.s - 2.0 + gain2, idx.r)
    return lhs, rhs_data + rhs_force


def heat_regularity_audit(
    family: DyadicFamily,
    u0: ScalarField,
    forcing: TimeSeriesField,
    mu: float,
    q1: float,
    q2: float,
    idx: BesovIndex,
) -> AuditReport:
    """Smoothing gain of the heat flow against initial data plus source."""
    p = idx.p
    tables = (
        block_norm_table(family, heat_evolve(u0, forcing, mu), p),
        block_norms(family, u0, p),
        block_norm_table(family, forcing, p),
    )
    lhs, rhs = heat_terms(family, forcing.times, tables, q1, q2, idx)
    c_allowed = DRIFT_FACTOR * calibrated("heat.C")
    return bound_report(
        "heat.maximal_regularity", lhs, c_allowed * rhs, 0.0, "heat-flow maximal smoothing bound"
    )
