"""Time integration of the capillary compressible system.

Two equivalent formulations are integrated side by side:

* primitive (density rho, velocity u): continuity plus momentum with the
  density-weighted viscous stress and the capillary stress written as the
  divergence of rho times the Hessian of log rho;
* effective (rho, v = u + grad log rho): the same dynamics rearranged into a
  coupled parabolic system where the mass equation gains unit diffusion and
  the velocity equation a plain Laplacian.

Both steppers are first-order IMEX: constant-coefficient diffusion is
implicit per Fourier mode, transport and pressure are explicit and dealiased
by the 2/3 rule.  Divergence-form right-hand sides keep the mean modes
exactly fixed, so mass (and momentum, in primitive form) are conserved to
round-off per step.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    FieldError,
    Grid,
    PositivityError,
    ScalarField,
    VectorField,
    _total,
    _trusted,
    random_band_limited,
)

__all__ = [
    "SolverError",
    "CflError",
    "NonFiniteError",
    "FlowState",
    "Workspace",
    "SolverConfig",
    "check_gamma",
    "TrajectoryRecord",
    "to_effective",
    "from_effective",
    "step_effective",
    "step_primitive",
    "step",
    "run",
    "make_preset",
    "PRESET_NAMES",
    "PRESET_PARAMS",
    "ALWAYS_RECORDED",
    "far_field_defect",
    "require_far_field",
    "theorem_range_warnings",
    "veff_max",
]

FAR_FIELD_TOL = 1e-8
# the most steps a run may take: its per-step columns alone then hold over 1 GB
MAX_STEPS = 10**7

# the per-step columns run() records for every run, whatever the probes
ALWAYS_RECORDED = ("density.min", "density.max", "veff.max")

# glibc's malloc: the ceiling of its own dynamic mmap threshold, and the trim
# threshold it pairs with it (twice the mmap threshold)
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


class SolverError(RuntimeError):
    pass


class CflError(SolverError):
    pass


class NonFiniteError(SolverError):
    """A step produced a NaN or infinite field value."""


@dataclass(frozen=True, eq=False)
class FlowState:
    """A (rho, velocity) snapshot; vel is u in primitive form, v in effective form.
    What is derived from the fields lives on the state's ``Workspace``."""

    t: float
    rho: ScalarField
    vel: VectorField
    formulation: str = "primitive"

    def __post_init__(self):
        if self.formulation not in ("primitive", "effective"):
            raise FieldError(f"unknown formulation {self.formulation!r}")
        if self.rho.grid != self.vel.grid:
            raise FieldError("density and velocity live on different grids")
        m = float(np.min(self.rho.values))
        if m <= 0.0:
            raise PositivityError(f"density not strictly positive (min {m:.6e})")

    @property
    def grid(self) -> Grid:
        return self.rho.grid


def check_gamma(gamma: float) -> None:
    """The adiabatic exponents the solver and the audits accept: finite and >= 1."""
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise FieldError(f"adiabatic exponent must be finite and >= 1, got {gamma}")


@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    dt: float
    t_end: float
    cfl_safety: float = 0.5

    def __post_init__(self):
        check_gamma(self.gamma)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise FieldError("time step must be positive and finite")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise FieldError("horizon must be >= 0 and finite")
        ratio = self.t_end / self.dt
        if not ratio <= MAX_STEPS:
            raise FieldError(f"horizon {self.t_end:g} holds more than {MAX_STEPS:,} steps dt={self.dt:g}")
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise FieldError(f"horizon {self.t_end:g} is not a whole number of steps dt={self.dt:g}")
        if not (math.isfinite(self.cfl_safety) and self.cfl_safety > 0.0):
            raise FieldError(f"cfl_safety must be positive and finite, got {self.cfl_safety}")


def theorem_range_warnings(gamma: float, dim: int) -> list[str]:
    """Pressure exponents outside the strict global-existence range."""
    if dim == 3:
        if gamma >= 8.0 / 3.0:
            return [f"gamma={gamma:g} outside the supported range [1, 8/3) in 3d"]
        if gamma == 1.0:
            return ["gamma=1 sits on the boundary of the strict 3d range (1, 8/3)"]
    return []


# ----------------------------------------------------------------------
# the workspace of a state, and formulation changes


class Workspace:
    """A state and the data derived from it, each computed at most once, on first use:
    the half-lattice ``spectra`` of rho and of each velocity component,
    ``log_rho_hat``, ``grad_log_rho``, ``v2`` (|v|^2 of the effective velocity,
    its squares added in component order), the maxima ``rho_max`` and
    ``v2_max`` that a run records and the step's guard reads, and ``floats``,
    the per-state results of evaluations that probes share.  ``run()`` builds
    one per sampled state.  An effective step consumes ``grad_log_rho``; a
    later read derives it again."""

    def __init__(self, state: FlowState, carried=None):
        self.state = state
        self.floats: dict = {}
        if carried is not None:  # the spectra the step to this state left behind
            self.spectra = carried

    @cached_property
    def spectra(self) -> tuple:
        grid = self.state.grid
        return grid.rfft(self.state.rho.values), [grid.rfft(c) for c in self.state.vel.components]

    @cached_property
    def log_rho_hat(self) -> np.ndarray:
        return self.state.grid.rfft(np.log(self.state.rho.values))

    @cached_property
    def grad_log_rho(self) -> np.ndarray:
        grid = self.state.grid
        grad = np.empty((grid.dim,) + grid.shape)
        for i, k in enumerate(grid.rwavevectors):
            grid.irfft(1j * k * self.log_rho_hat, out=grad[i])
        return grad

    def _squared_speed(self) -> np.ndarray:
        return _total(c * c for c in self.velocity("effective"))

    v2 = cached_property(_squared_speed)

    @cached_property
    def rho_max(self) -> float:
        return float(np.max(self.state.rho.values))

    @cached_property
    def v2_max(self) -> float:
        """The maximum of ``v2``, read from it while the workspace holds it, else
        from a |v|^2 formed for it alone: a step's guard on a workspace that
        no sample read keeps no |v|^2."""
        v2 = self.__dict__.get("v2")
        return float(np.max(self._squared_speed() if v2 is None else v2))

    def velocity(self, formulation: str):
        """The velocity components in ``formulation``, one at a time: the
        state's own, or u + grad log rho (v - grad log rho), each formed only
        when read.  The one conversion between the formulations."""
        s = self.state
        if s.formulation == formulation:
            return iter(s.vel.components)
        pairs = zip(s.vel.components, self.grad_log_rho)
        return (c + g for c, g in pairs) if formulation == "effective" else (c - g for c, g in pairs)

    def drop_sample_data(self) -> None:
        """Forget |v|^2 and, for a primitive state, grad log rho: its step reads neither.
        ``run()`` calls it once a sample's observer is done; the audit observer
        calls it earlier on a stored state, before the second-order pass, so
        the second call pops nothing."""
        effective = self.state.formulation == "effective"
        for name in ("v2",) if effective else ("v2", "grad_log_rho"):
            self.__dict__.pop(name, None)


def _converted(s: FlowState, formulation: str) -> FlowState:
    """s in the other formulation, its velocity filled from ``Workspace.velocity``."""
    # ws is held to the end, its log-density spectrum with it: freeing that
    # first raised demo's peak RSS by 0.13 MB (heap layout)
    ws = Workspace(s)
    components = ws.velocity(formulation)
    vel = np.empty_like(s.vel.components)
    for row in vel:
        row[...] = next(components)
    return FlowState(s.t, s.rho, VectorField(s.grid, vel), formulation)


def to_effective(s: FlowState) -> FlowState:
    if s.formulation != "primitive":
        raise FieldError("state is already in effective form")
    return _converted(s, "effective")


def from_effective(s: FlowState) -> FlowState:
    if s.formulation != "effective":
        raise FieldError("state is not in effective form")
    return _converted(s, "primitive")


# ----------------------------------------------------------------------
# stepping


def _check_cfl(grid: Grid, cfg: SolverConfig, rmax: float, transport_speed: float) -> None:
    stiffness = max(1.0, cfg.gamma * rmax ** (cfg.gamma - 1.0))
    limit = cfg.cfl_safety * grid.dx**2 / stiffness
    if transport_speed > 0.0:
        limit = min(limit, cfg.cfl_safety * grid.dx / transport_speed)
    if cfg.dt > limit:
        raise CflError(
            f"dt={cfg.dt:g} exceeds the stability guard {limit:g} "
            f"(dx={grid.dx:g}, speed={transport_speed:g}, stiffness={stiffness:g})"
        )


def _max_norm(components) -> float:
    """Maximum over the cells of the Euclidean norm of a vector field's
    components, each given over the same cells.

    Taken as sqrt(max |F|^2): sqrt is monotone and correctly rounded, so this
    equals max sqrt(|F|^2) bit for bit without a square root per grid point.
    """
    return math.sqrt(float(np.max(_total(c * c for c in components))))


def _new_state(s: FlowState, cfg: SolverConfig, rho: np.ndarray, vel: np.ndarray) -> FlowState:
    """The stepped state, after the step's one positivity and one finiteness check.

    Those are the checks the field and state constructors would repeat, so the
    state is built without them.
    """
    t_new = s.t + cfg.dt
    m = float(np.min(rho))
    if m <= 0.0:
        raise PositivityError(
            f"density lost positivity at t={t_new:.6g} (min {m:.6e}); try halving the time step"
        )
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(vel))):
        raise NonFiniteError(f"non-finite field at t={t_new:.6g}; try halving the time step")
    grid = s.grid
    return _trusted(
        FlowState,
        t=t_new,
        rho=_trusted(ScalarField, grid=grid, values=rho),
        vel=_trusted(VectorField, grid=grid, components=vel),
        formulation=s.formulation,
    )


def step_effective(s: FlowState, cfg: SolverConfig, ws: Workspace | None = None) -> FlowState:
    """One IMEX step of the effective system.

    The step reads the log-density pair, the maxima and the spectra of s's
    workspace ``ws`` (or of a fresh one), and overwrites the spectra in place
    with the ones the implicit solve produces, which are the new state's.  It
    consumes the workspace's grad log rho: that array becomes the transport
    velocity w = v - 2 grad log rho, so ``ws`` no longer holds it after the step.

    Each field lives only while a later phase reads it: the velocity spectra
    are updated first, while w lives, the mass next, the implicit solve after
    the last forward transform, and every inverse transform runs last, the
    velocity's into w's storage once no phase reads w.
    """
    if s.formulation != "effective":
        raise FieldError("step_effective needs an effective-form state")
    ws = ws or Workspace(s)
    grid = s.grid
    ks = grid.rwavevectors
    r = s.rho.values
    v = s.vel.components
    dt = cfg.dt

    w = ws.grad_log_rho
    _check_cfl(grid, cfg, ws.rho_max, math.sqrt(ws.v2_max) + 2.0 * _max_norm(w))
    del ws.grad_log_rho  # overwritten below by w
    np.multiply(w, 2.0, out=w)
    np.subtract(v, w, out=w)
    r_hat, v_hat = ws.spectra

    # the pressure force is differentiated on the Fourier side, from the
    # spectrum of log rho at gamma = 1 and of rho^(gamma-1) otherwise; at
    # gamma = 2 that is rho, whose spectrum r_hat is unmodified until the mass update
    g = cfg.gamma
    if g == 1.0:
        base_hat = None
    else:
        ws.__dict__.pop("log_rho_hat", None)  # read only at gamma = 1
        base_hat = r_hat if g == 2.0 else grid.rfft(r ** (g - 1.0), dealias=True)

    # velocity: explicit pressure and transport by w; the transport terms are
    # added into the first one in increasing j, and the update is formed in
    # the storage of its transform.  The pressure spectrum is formed per
    # component, so that it is not held through the transforms
    for i in range(grid.dim):
        transport = grid.irfft(1j * ks[0] * v_hat[i])
        transport *= w[0]
        for k, wj in zip(ks[1:], w[1:]):
            dv = grid.irfft(1j * k * v_hat[i])
            dv *= wj
            transport += dv
            del dv
        h = grid.rfft(transport, dealias=True)
        del transport
        p_hat = ws.log_rho_hat if base_hat is None else (g / (g - 1.0)) * (base_hat * grid.rdealias_mask)
        h += 1j * ks[i] * p_hat
        del p_hat
        h *= -dt
        v_hat[i] += h
        del h
    del base_hat

    # mass: explicit divergence-form transport; the flux spectra are added
    # into the first one in increasing i
    flux = grid.rfft(r * v[0], dealias=True)
    flux *= -1j * ks[0]
    for i in range(1, grid.dim):
        h = grid.rfft(r * v[i], dealias=True)
        h *= -1j * ks[i]
        flux += h
        del h
    flux *= dt
    r_hat += flux
    del flux

    # the implicit Laplacian and diffusion: one reciprocal 1 / (1 + dt |xi|^2)
    # for every spectrum
    solve = 1.0 / (1.0 + dt * grid.rk2)
    r_hat *= solve
    for h in v_hat:
        h *= solve
    del solve

    # the spectra pass on to the next state's workspace, so each inverse
    # transform overwrites a copy
    new_v = w  # the new velocity, in w's storage, which no phase reads any more
    for i in range(grid.dim):
        grid.irfft(v_hat[i].copy(), out=new_v[i])
    return _new_state(s, cfg, grid.irfft(r_hat.copy()), new_v)


def step_primitive(s: FlowState, cfg: SolverConfig, ws: Workspace | None = None) -> FlowState:
    """One IMEX step of the primitive system; it reads the log-density
    spectrum and the density maximum of s's workspace ``ws`` (or of a fresh one).

    Each field lives only while a later phase reads it: the new density is
    formed first, from the momentum spectra m_hat; then y = m_hat + dt rhs is
    built in m_hat's storage, the pressure force and the linearized stress
    from the unmodified m_hat first, then the divergence of each stress pair
    i <= j, with one inverse transform per pair; the new momentum comes last,
    divided by the new density in place.  Every spectrum that feeds or
    follows the dealias mask takes the dealiased transforms.
    """
    if s.formulation != "primitive":
        raise FieldError("step_primitive needs a primitive-form state")
    ws = ws or Workspace(s)
    grid = s.grid
    d = grid.dim
    ks, kk = grid.rwavevectors, grid.rsecond
    r = s.rho.values
    u = s.vel.components
    dt = cfg.dt

    _check_cfl(grid, cfg, ws.rho_max, _max_norm(u))

    m_hat = [grid.rfft(r * u[i], dealias=True) for i in range(d)]
    m_real = [grid.irfft(h.copy(), dealias=True) for h in m_hat]  # the transform overwrites its input

    # mass: explicit divergence-form transport
    new_r = grid.irfft(grid.rfft(r) - dt * _total(1j * ks[j] * m_hat[j] for j in range(d)))

    # the pressure force and the linearized stress that the implicit solve
    # adds back; each component reads every m_hat, so all are formed before y
    p_hat = grid.rfft(r**cfg.gamma, dealias=True)
    dy = [
        dt * (grid.rk2 * m_hat[i] + _total(kk[i][j] * m_hat[j] for j in range(d)) - 1j * ks[i] * p_hat)
        for i in range(d)
    ]
    y = m_hat
    del p_hat, m_hat
    for i in range(d):
        y[i] += dy[i]
    del dy

    # the divergence of -rho u_i u_j + 2 rho D(u)_ij + rho (hess log rho)_ij.
    # The symmetric part of pair i <= j is linear in the spectra up to the
    # product with rho, so it is one inverse transform, of
    # i xi_j u_hat_i + i xi_i u_hat_j - xi_i xi_j log_hat, and no d x d field
    # tensor is held
    u_hat = [grid.rfft(c) for c in u]
    log_hat = ws.log_rho_hat
    for i in range(d):
        for j in range(i, d):
            sym = grid.irfft(1j * ks[j] * u_hat[i] + 1j * ks[i] * u_hat[j] - kk[i][j] * log_hat)
            sym *= r
            y[i] += dt * (1j * ks[j] * grid.rfft(sym - m_real[i] * u[j], dealias=True))
            if j > i:
                y[j] += dt * (1j * ks[i] * grid.rfft(sym - m_real[j] * u[i], dealias=True))
            del sym
    del u_hat, m_real

    # momentum: implicit viscous and linearized capillary stress, each solve
    # a product with its reciprocal
    solve = 1.0 / (1.0 + dt * grid.rk2)
    solve_full = 1.0 / (1.0 + dt * grid.rk2 + dt * grid.rk2)
    new_m = np.empty_like(u)
    for i in range(d):
        kky = _total(kk[i][j] * y[j] for j in range(d))
        grid.irfft((y[i] - dt * kky * solve_full) * solve, out=new_m[i], dealias=True)
    del y
    new_m /= new_r  # the new velocity, in the new momentum's storage
    return _new_state(s, cfg, new_r, new_m)


def step(s: FlowState, cfg: SolverConfig, ws: Workspace | None = None) -> FlowState:
    """One step in s's formulation, reading s's workspace ``ws`` if given."""
    if s.formulation == "effective":
        return step_effective(s, cfg, ws)
    return step_primitive(s, cfg, ws)


# ----------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryRecord:
    """Per-step scalar diagnostics of one run and the last state it reached
    (``final``: the state at the horizon or, on an abort, the state the run
    stopped at).  Any other state leaves ``run()`` only through its observer."""

    grid: Grid
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    scalars: dict = field(default_factory=dict)
    states: list = field(default_factory=list)  # always empty; perfbench/spans.py reads its length
    final: FlowState | None = None
    aborted: bool = False
    abort_reason: str = ""
    abort_time: float | None = None

    def stored_rows(self, times) -> list[int]:
        """The row in the per-step columns of each time in ``times``."""
        row = {t: i for i, t in enumerate(self.times.tolist())}
        try:
            return [row[t] for t in times]
        except KeyError as err:
            raise FieldError(f"stored state at t={err.args[0]!r} has no row in the per-step columns") from None


def veff_max(ws: Workspace) -> float:
    """Maximum of the effective velocity |u + grad log rho| over the grid (see
    ``_max_norm``).  It keeps the workspace's |v|^2, which the sample's probes
    and observer read."""
    ws.v2
    return math.sqrt(ws.v2_max)


def far_field_defect(ws: Workspace) -> float:
    """Largest deviation of (rho, u) from (rho_bar, 0) in the boundary rim of
    the workspace's state, each taken over the rim cells only.

    Formulation-independent: the far-field condition constrains (rho, u), so
    an effective state's velocity is read in primitive form; the shift
    grad(log rho) is derived from rho.
    """
    grid = ws.state.grid
    rim = grid.rim_mask
    dev_rho = float(np.max(np.abs(ws.state.rho.values[rim] - grid.far_field_density)))
    dev_vel = _max_norm(c[rim] for c in ws.velocity("primitive"))
    return max(dev_rho, dev_vel)


def require_far_field(ws: Workspace) -> None:
    """Raise SolverError if the workspace's state violates the far-field proxy."""
    defect = far_field_defect(ws)
    if defect > FAR_FIELD_TOL:
        raise SolverError(
            f"initial state violates the far-field proxy: boundary deviation "
            f"{defect:.3e} > {FAR_FIELD_TOL:g}"
        )


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep the fields a run frees for the next ones.

    By default glibc hands the top of its heap back to the kernel once more
    than 128 KiB lies free there, which two or three freed 2D 128^2 fields
    already exceed, and the next allocation faults the same pages in again.
    Raising the trim threshold alone would freeze glibc's dynamic mmap
    threshold where it stands (128 KiB at start), so larger fields would be
    mmapped and faulted in anew; both are raised, the mmap threshold first.
    Elsewhere than on glibc this does nothing.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes  # only a run on glibc reads it

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None and mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def run(
    initial: FlowState,
    cfg: SolverConfig,
    probes: dict | None = None,
    state_stride: int = 1,
    check_far_field: bool = True,
    observe=None,
) -> TrajectoryRecord:
    """Integrate to the horizon, sampling probes every step and storing states at a stride.

    Each sampled state gets one ``Workspace``, which the probes (``fn(ws)``)
    read and which keeps after the sample only what the step reads.  An
    effective step leaves the new state's spectra in it, and they pass to the
    next workspace.  ``observe(ws, stored)`` gets every sample's workspace
    after its probes, while it still holds |v|^2, and is the only way a state
    other than ``final`` leaves the run; ``stored`` is true on the initial
    state, every ``state_stride``-th one and the one at the horizon.  The
    sample data goes (``Workspace.drop_sample_data``) once the observer is
    done, or earlier if the observer drops it itself.
    A step the guard refuses, positivity loss and non-finite fields abort
    cleanly and are recorded on the trajectory; other stepper failures
    propagate.  The minimum density is always monitored.  On glibc, every
    run first sets the allocator to keep freed memory for reuse
    (``_keep_freed_memory``); importing nsklab changes nothing.
    """
    if state_stride < 1:
        raise FieldError("state stride must be >= 1")
    _keep_freed_memory()
    ws = Workspace(initial)
    del initial  # the workspace holds the state until the run steps past it
    if check_far_field and ws.state.t == 0.0:
        require_far_field(ws)
    probes = dict(probes or {})
    record = TrajectoryRecord(ws.state.grid)
    series: dict[str, list] = {name: [] for name in (*ALWAYS_RECORDED, *probes)}
    times: list[float] = []

    def sample(ws: Workspace, stored: bool) -> None:
        times.append(ws.state.t)
        r = ws.state.rho.values
        for name, value in zip(ALWAYS_RECORDED, (np.min(r), ws.rho_max, veff_max(ws))):
            series[name].append(float(value))
        for name, fn in probes.items():
            series[name].append(float(fn(ws)))
        if observe is not None:
            observe(ws, stored)
        ws.drop_sample_data()

    n_steps = round(cfg.t_end / cfg.dt)
    sample(ws, True)
    for k in range(n_steps):
        try:
            state = step(ws.state, cfg, ws)
        except (CflError, PositivityError, NonFiniteError) as err:
            record.aborted = True
            record.abort_reason = str(err)
            # the guard refuses to step from the current state; the others fail on the new one
            record.abort_time = ws.state.t if isinstance(err, CflError) else (k + 1) * cfg.dt
            break
        state = _trusted(FlowState, **{**vars(state), "t": (k + 1) * cfg.dt})
        ws = Workspace(state, ws.spectra if state.formulation == "effective" else None)
        sample(ws, (k + 1) % state_stride == 0 or k + 1 == n_steps)
    record.final = ws.state
    record.times = np.array(times)
    record.scalars = {name: np.array(vals) for name, vals in series.items()}
    return record


# ----------------------------------------------------------------------
# presets

# each preset's parameters, all optional
PRESET_PARAMS = {
    "constant": (),
    "gaussian-bump": ("amplitude", "width"),
    "random-large": ("amplitude", "velocity_amplitude", "max_mode"),
}
PRESET_NAMES = tuple(PRESET_PARAMS)


def _bump(grid: Grid, amplitude: float, width: float) -> np.ndarray:
    coords = grid.meshgrid()
    c = 0.5 * grid.box_length
    r2 = sum((x - c) ** 2 for x in coords)
    return amplitude * np.exp(-r2 / width**2)


def make_preset(name: str, grid: Grid, params: dict | None = None, seed: int = 0) -> FlowState:
    """Named initial states, all primitive, all satisfying the far-field proxy.
    Values whose state overflows in floating point are a FieldError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _preset(name, grid, dict(params or {}), seed)
    except FloatingPointError as err:
        raise FieldError(f"preset {name!r} cannot be formed from these values: {err}") from None


def _preset(name: str, grid: Grid, params: dict, seed: int) -> FlowState:
    rho_bar = grid.far_field_density
    zero_vel = np.zeros((grid.dim,) + grid.shape)

    def take(key, default):
        value = params.pop(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) < sys.float_info.max:
            raise FieldError(f"preset parameter {key!r} must be a finite number, got {value!r}")
        return float(value)

    if name == "constant":
        state = FlowState(
            0.0,
            ScalarField(grid, np.full(grid.shape, rho_bar)),
            VectorField(grid, zero_vel),
        )
    elif name == "gaussian-bump":
        amplitude = take("amplitude", 0.5)
        width = take("width", 0.1 * grid.box_length)
        if amplitude <= -rho_bar:
            raise FieldError("bump amplitude would destroy density positivity")
        # r^2 / width^2 reaches dim (L/2)^2 / width^2 in the box's corners
        width2 = width * width
        corner = grid.dim * (0.5 * grid.box_length) ** 2
        if not (width > 0.0 and 0.0 < width2 < math.inf and corner / width2 < math.inf):
            raise FieldError(f"bump width must be positive, with width^2 and r^2/width^2 representable, got {width!r}")
        rho = rho_bar + _bump(grid, amplitude, width)
        state = FlowState(0.0, ScalarField(grid, rho), VectorField(grid, zero_vel))
    elif name == "random-large":
        amplitude = take("amplitude", 0.4 * rho_bar)
        vel_amplitude = take("velocity_amplitude", 0.3)
        max_mode = take("max_mode", 4)
        if not abs(amplitude) < rho_bar:
            raise FieldError("perturbation amplitude must stay below the far-field density in size")
        if not math.isfinite(grid.dim * vel_amplitude * vel_amplitude):
            raise FieldError(f"velocity_amplitude {vel_amplitude!r} too large: |v|^2 overflows")
        if max_mode < 0 or not max_mode.is_integer():
            raise FieldError(f"max_mode must be a whole number >= 0, got {max_mode!r}")
        max_mode = int(min(max_mode, grid.n))  # every lattice mode has radial index below n
        rng = np.random.default_rng(seed)
        envelope = _bump(grid, 1.0, 0.1 * grid.box_length)

        def enveloped(target):
            raw = envelope * random_band_limited(grid, rng, max_mode=max_mode).values
            peak = np.max(np.abs(raw))
            return raw * (target / peak) if peak > 0 else raw

        rho = rho_bar + enveloped(amplitude)
        comps = np.empty((grid.dim,) + grid.shape)
        for i in range(grid.dim):
            comps[i] = enveloped(vel_amplitude)
        state = FlowState(0.0, ScalarField(grid, rho), VectorField(grid, comps))
    else:
        raise FieldError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
    if params:
        raise FieldError(f"unknown preset parameter(s) for {name!r}: {', '.join(sorted(params))}")
    return state
