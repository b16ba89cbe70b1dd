"""Level-set truncation machinery and the density-lower-bound certificate.

The abstract superlinear iteration is implemented twice on purpose: once as
the closed-form bound and once as the literal recurrence taken with
equality, both in log space; agreement of the two code paths is part of the
invariant suite.  The trajectory-level certificate turns the iteration's
convergence condition into a computable bound on the inverse density and
checks its own soundness against the observed run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calibration import calibrated
from .fields import FieldError, ScalarField, divergence, gradient, laplacian
from .solver import to_effective

__all__ = [
    "IterationSpec",
    "LevelSetLadder",
    "theta",
    "closed_form_log",
    "closed_form_bound",
    "recurrence_log",
    "recurrence_equality",
    "truncate",
    "level_set_measure",
    "ladder",
    "flat_aware_gradient",
    "inverse_density",
    "truncation_terms",
    "WindowCertificate",
    "CertificateReport",
    "lower_bound_certificate",
    "inverse_density_pde_residual",
]

_LOG_OVERFLOW = 700.0  # exp() overflows above this


@dataclass(frozen=True)
class IterationSpec:
    """Constants of the superlinear recurrence X_{k+1} = K A^k X_k^(1+nu)."""

    K: float
    A: float
    nu: float
    X0: float

    def __post_init__(self):
        if not (self.K > 0 and math.isfinite(self.K)):
            raise ValueError("K must be positive and finite")
        if not (self.A >= 1 and math.isfinite(self.A)):
            raise ValueError("A must be >= 1 and finite")
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError("nu must be positive and finite")
        if not (self.X0 >= 0 and math.isfinite(self.X0)):
            raise ValueError("X0 must be >= 0 and finite")


def theta(spec: IterationSpec) -> float:
    """Threshold K^(-1/nu) * A^(-1/nu^2) below which the sequence collapses."""
    return math.exp(-math.log(spec.K) / spec.nu - math.log(spec.A) / spec.nu**2)


def closed_form_log(spec: IterationSpec, k: int) -> float:
    """log of the closed-form bound at index k (-inf when X0 = 0, k >= 1)."""
    if k < 0:
        raise ValueError("index must be >= 0")
    if k == 0:
        return math.log(spec.X0) if spec.X0 > 0 else -math.inf
    growth = (1.0 + spec.nu) ** k
    if spec.X0 == 0.0:
        return -math.inf
    return (
        (growth - 1.0) / spec.nu * math.log(spec.K)
        + ((growth - 1.0) / spec.nu**2 - k / spec.nu) * math.log(spec.A)
        + growth * math.log(spec.X0)
    )


def closed_form_bound(spec: IterationSpec, k: int) -> float:
    lg = closed_form_log(spec, k)
    if lg == -math.inf:
        return 0.0
    if lg > _LOG_OVERFLOW:
        raise OverflowError(f"closed-form value exceeds exp({_LOG_OVERFLOW}) at k={k}")
    return math.exp(lg)


def recurrence_log(spec: IterationSpec, k: int) -> list[float]:
    """log X_j for j = 0..k along the recurrence taken with equality."""
    if k < 0:
        raise ValueError("index must be >= 0")
    logs = [math.log(spec.X0) if spec.X0 > 0 else -math.inf]
    log_k, log_a = math.log(spec.K), math.log(spec.A)
    for j in range(k):
        prev = logs[-1]
        logs.append(-math.inf if prev == -math.inf else log_k + j * log_a + (1.0 + spec.nu) * prev)
    return logs


def recurrence_equality(spec: IterationSpec, k: int) -> list[float]:
    out = []
    for lg in recurrence_log(spec, k):
        if lg == -math.inf:
            out.append(0.0)
        elif lg > _LOG_OVERFLOW:
            raise OverflowError(f"recurrence overflows exp({_LOG_OVERFLOW})")
        else:
            out.append(math.exp(lg))
    return out


# ----------------------------------------------------------------------
# level sets


def truncate(f: ScalarField, k: float) -> ScalarField:
    """Pointwise positive part of f - k."""
    return ScalarField(f.grid, np.maximum(f.values - k, 0.0))


def level_set_measure(f: ScalarField, k: float) -> float:
    """Volume of {f > k} by cell counting."""
    return float(np.count_nonzero(f.values > k) * f.grid.cell_volume)


@dataclass(frozen=True)
class LevelSetLadder:
    """Levels k_n = M (1 - 2^-n) + base, increasing to M + base."""

    M: float
    base: float
    levels: np.ndarray = field(repr=False)

    @property
    def limit(self) -> float:
        return self.M + self.base


def ladder(M: float, base: float, n_max: int) -> LevelSetLadder:
    if M <= 0:
        raise ValueError("M must be positive")
    if base < 0:
        raise ValueError("base must be >= 0")
    if M < 2.0 * base:
        warnings.warn(
            f"ladder scale M={M:g} below twice the base {base:g}; the iteration "
            "assumes M >= 2*base",
            stacklevel=2,
        )
    n = np.arange(n_max + 1)
    return LevelSetLadder(M, base, M * (1.0 - 0.5**n) + base)


def flat_aware_gradient(f: ScalarField) -> np.ndarray:
    """Centered differences, zeroed where both axis neighbors sit in the flat region.

    Meant for truncated (kinked) fields, where spectral differentiation rings;
    the flat region is where the truncation removed everything (value 0).
    """
    g = f.values
    dx = f.grid.dx
    out = np.empty((f.grid.dim,) + f.grid.shape)
    for axis in range(f.grid.dim):
        fwd = np.roll(g, -1, axis=axis)
        bwd = np.roll(g, 1, axis=axis)
        comp = (fwd - bwd) / (2.0 * dx)
        comp[(fwd == 0.0) & (bwd == 0.0)] = 0.0
        out[axis] = comp
    return out


def inverse_density(s) -> ScalarField:
    """1/rho of a state (a ``FlowState`` holds rho > 0)."""
    return ScalarField(s.grid, 1.0 / s.rho.values)


def truncation_terms(inverse, times, k: float) -> tuple[float, float]:
    """Over inverse densities w at ``times``: sup in time of the squared L2 norm
    of (w - k)_+, and the time integral of its squared flat-aware gradient.
    ``inverse`` is read once, in order, so it may form each w on demand."""
    sup_l2_sq, grad_sq = 0.0, []
    for w in inverse:
        w = truncate(w, k)
        cell = w.grid.cell_volume
        sup_l2_sq = max(sup_l2_sq, float(np.sum(w.values**2) * cell))
        grad_sq.append(float(np.sum(flat_aware_gradient(w) ** 2) * cell))
    return sup_l2_sq, float(np.trapezoid(np.array(grad_sq), np.array(times)))


# ----------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class WindowCertificate:
    index: int
    t_start: float
    t_end: float
    base: float
    u0: float
    v_max: float
    M: float
    bound: float
    observed: float
    sound: bool

    def csv_row(self) -> str:
        cols = [
            str(self.index),
            f"{self.t_start:.17g}",
            f"{self.t_end:.17g}",
            f"{self.base:.17g}",
            f"{self.u0:.17g}",
            f"{self.v_max:.17g}",
            f"{self.M:.17g}",
            f"{self.bound:.17g}",
            f"{self.observed:.17g}",
            "true" if self.sound else "false",
        ]
        return ",".join(cols)


CERTIFICATE_CSV_HEADER = "window,t_start,t_end,k0,U0,v_inf,M,B,observed_sup_inv_rho,sound"


@dataclass(frozen=True)
class CertificateReport:
    certified: bool
    reason: str
    windows: tuple
    bound: float
    observed: float
    sound: bool
    constant: float

    def csv_lines(self) -> list[str]:
        return [CERTIFICATE_CSV_HEADER] + [w.csv_row() for w in self.windows]

    def text_summary(self) -> str:
        if not self.certified:
            return f"no certificate: {self.reason}"
        status = "sound" if self.sound else "UNSOUND"
        return (
            f"certified sup 1/rho <= {self.bound:.6g} over {len(self.windows)} "
            f"window(s); observed {self.observed:.6g} ({status}; C={self.constant:g})"
        )


def _window_slices(times, horizon, window):
    """Index ranges covering [0, horizon] in steps of `window` (last one ragged)."""
    edges = [0.0]
    while edges[-1] + window < horizon - 1e-12:
        edges.append(edges[-1] + window)
    edges.append(horizon)
    spans = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        idx = [i for i, t in enumerate(times) if lo - 1e-12 <= t <= hi + 1e-12]
        if idx:
            spans.append((lo, hi, idx))
    return spans


def lower_bound_certificate(trajectory, c_v_estimate: float, stored, constant: float | None = None):
    """Certify an inverse-density bound window by window.

    Each window solves the convergence condition C * |v|_inf^3 * U0 <= M^2 for
    the smallest admissible ladder scale M; the certified bound M + base seeds
    the next window's truncation base.  Window length follows the iteration's
    time restriction min(horizon, 1/(2 c_v^2)).

    The base, |v|_inf and the observed sup 1/rho come from the record's
    per-step ``density.min`` and ``veff.max`` columns at the stored rows; U0
    reads the stored states' inverse densities.  ``stored`` is the stored
    states' times and inverse densities, as a run's audit observer keeps them.
    """
    if constant is None:
        constant = calibrated("certificate.C")
    times, inverse = stored
    if not times:
        raise FieldError("trajectory holds no states")
    horizon = times[-1] - times[0]
    rows = trajectory.stored_rows(times)
    # max(1/rho) is 1/min(rho) bit for bit: correctly rounded division is monotone
    sup_inv = [1.0 / m for m in trajectory.scalars["density.min"][rows].tolist()]
    v_inf = trajectory.scalars["veff.max"][rows].tolist()

    base = 2.0 * sup_inv[0]
    if c_v_estimate < 0 or not math.isfinite(c_v_estimate):
        return CertificateReport(
            False, f"invalid velocity-control estimate c_v={c_v_estimate}", (), math.inf, math.inf, False, constant
        )
    if horizon <= 0.0:
        spans = [(times[0], times[0], [0])]
    else:
        window = horizon if c_v_estimate == 0.0 else min(horizon, 0.5 / c_v_estimate**2)
        spans = _window_slices(times, times[0] + horizon, window)

    windows = []
    bound = base
    for w_index, (lo, hi, idx) in enumerate(spans):
        u0 = sum(truncation_terms([inverse[i] for i in idx], [times[i] for i in idx], base))
        v_max = max(v_inf[i] for i in idx)
        m_needed = math.sqrt(constant * v_max**3 * u0)
        M = max(m_needed, 2.0 * base)
        bound = M + base
        observed = max(sup_inv[i] for i in idx)
        windows.append(
            WindowCertificate(
                w_index, lo, hi, base, u0, v_max, M, bound, observed, observed <= bound * (1 + 1e-9)
            )
        )
        base = bound

    sound = all(w.sound for w in windows)
    return CertificateReport(True, "", tuple(windows), bound, max(sup_inv), sound, constant)


# ----------------------------------------------------------------------
# pointwise equation satisfied by the inverse density


def inverse_density_pde_residual(states):
    """L2 residual series of the inverse-density equation at the interior
    times of a list of states.

    The time derivative uses centered differences between neighbouring states;
    all spatial terms are spectral at the center state.  For states produced
    by the first-order stepper the residual shrinks linearly in dt.
    """
    if len(states) < 3:
        raise FieldError("need at least three stored states for the residual series")
    inverse = [inverse_density(s) for s in states]
    res_times = []
    res_norms = []
    for i in range(1, len(states) - 1):
        dt2 = states[i + 1].t - states[i - 1].t
        wdot = (inverse[i + 1].values - inverse[i - 1].values) / dt2

        mid = states[i] if states[i].formulation == "effective" else to_effective(states[i])
        w = inverse[i]
        grad_w = gradient(w)
        lap_w = laplacian(w)
        v = mid.vel
        div_v = divergence(v)
        grad_sq = np.sum(grad_w.components**2, axis=0)
        advect = np.sum(v.components * grad_w.components, axis=0)
        res = (
            wdot
            - lap_w.values
            + 2.0 / w.values * grad_sq
            + advect
            - w.values * div_v.values
        )
        res_times.append(states[i].t)
        res_norms.append(float(np.sqrt(np.sum(res**2) * w.grid.cell_volume)))
    return np.array(res_times), np.array(res_norms)
