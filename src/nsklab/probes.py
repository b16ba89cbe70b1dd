"""Named per-step diagnostics and named trajectory audits for the runner.

Probe names are stable strings; parametrized families encode their parameter
in the name ("norm.weighted.p6", "besov.rho.1.2.2", "sobolev.rho.H2",
"psi.p4").  Unknown names raise with the nearest valid candidates, so config
typos fail loudly before a run starts.
"""

from __future__ import annotations

import difflib
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import degiorgi, estimates
from .audits import AuditReport, _merge_worst, bound_report
from .dyadic import BesovIndex, besov_norm, build_dyadic_family, top_block
from .fields import _LOG_RANGE, FieldError, ScalarField, sobolev_norm
from .solver import ALWAYS_RECORDED

__all__ = [
    "ProbeError",
    "resolve_probes",
    "require_finite_weights",
    "resolve_audits",
    "audit_observer",
    "known_probe_names",
]


class ProbeError(ValueError):
    pass


def _shared(key, fn):
    """fn(ws), evaluated once per workspace and kept in its ``floats`` under key."""

    def get(ws):
        if key not in ws.floats:
            ws.floats[key] = fn(ws)
        return ws.floats[key]

    return get


def _second_order(identity: bool, convexity: bool):
    """``second_order_terms`` of a workspace with these flags, kept in
    its ``floats`` under one key per pair of flags: the ``jungel.*`` probes and
    the audit observer share it where their flags agree."""
    return _shared(
        ("second_order_terms", identity, convexity),
        lambda ws: estimates.second_order_terms(ws, identity=identity, convexity=convexity),
    )


_WEIGHTED = "norm.weighted.p"
_PSI = "psi.p"


def _moment_exponent(name: str) -> float:
    """The exponent q of the rho |v|^q integral a moment probe reads."""
    if name.startswith(_WEIGHTED):
        return _parse_power(name[len(_WEIGHTED) :]) + 2.0
    return _parse_power(name[len(_PSI) :])


def _simple_probes(gamma: float, moment_names=()) -> dict:
    """The fixed-name probes, plus the ``norm.weighted.p<P>`` and ``psi.p<P>``
    probes named in ``moment_names``, which share one |v|^2 per state with
    ``venergy``."""
    exponents = {name: _moment_exponent(name) for name in moment_names}
    qs = tuple(exponents.values())
    energy = _shared(("energy", gamma), lambda ws: estimates.energy(ws, gamma))
    vdiss = _shared(("vdiss", gamma), lambda ws: estimates.v_energy_dissipations(ws, gamma))
    jungel = _second_order(identity=False, convexity=True)
    moments = _shared(("moments", qs), lambda ws: estimates.velocity_moments(ws, qs))
    simple = {
        "energy.total": lambda ws: energy(ws).total,
        "energy.kinetic": lambda ws: energy(ws).kinetic,
        "energy.potential": lambda ws: energy(ws).potential,
        "energy.fisher": lambda ws: energy(ws).fisher,
        "energy.dissipation": lambda ws: estimates.dissipation_rate(ws),
        "venergy": lambda ws: moments(ws)[0],
        "venergy.pressure_dissipation": lambda ws: vdiss(ws)[0],
        "venergy.velocity_dissipation": lambda ws: vdiss(ws)[1],
        "jungel.D": lambda ws: jungel(ws)["D"],
        "jungel.A": lambda ws: jungel(ws)["A"],
        "jungel.Bp": lambda ws: jungel(ws)["Bp"],
    }
    for name, q in exponents.items():
        if name.startswith(_WEIGHTED):
            simple[name] = lambda ws, q=q: moments(ws)[1][q] ** (1.0 / q)
        else:
            simple[name] = lambda ws, q=q: moments(ws)[1][q]
    return simple


_TEMPLATES = (
    "norm.weighted.p<P>",
    "psi.p<P>",
    "sobolev.rho.H<k>",
    "sobolev.v.H<k>",
    "besov.rho.<s>.<p>.<r>",
)


def known_probe_names(gamma: float = 2.0) -> list[str]:
    return sorted(_simple_probes(gamma)) + list(ALWAYS_RECORDED) + list(_TEMPLATES)


def _parse_exponent(token: str) -> float:
    if token == "inf":
        return math.inf
    try:
        return float(token)
    except ValueError:
        raise ProbeError(f"cannot parse exponent {token!r}") from None


def _parse_power(token: str) -> float:
    p = _parse_exponent(token)
    if not (math.isfinite(p) and p >= 0.0):
        raise ProbeError(f"exponent must be a finite number >= 0, got {token!r}")
    return p


def _parse_order(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ProbeError(f"Sobolev order must be an integer >= 0, got {token!r}")
    return int(token)


def _besov_probe(spec: str):
    tokens = spec.split(".")
    if len(tokens) != 3:
        raise ProbeError(f"besov probe needs three tokens s.p.r, got {spec!r}")
    try:
        idx = BesovIndex(*map(_parse_exponent, tokens))
    except FieldError as err:
        raise ProbeError(f"probe 'besov.rho.{spec}': {err}") from None
    cache: dict = {}

    def probe(ws):
        grid = ws.state.grid
        fam = cache.get(grid)
        if fam is None:
            fam = cache[grid] = build_dyadic_family(grid)
        dev = ScalarField(grid, ws.state.rho.values - grid.far_field_density)
        return besov_norm(fam, dev, idx)

    return probe


def _resolve_probe(name: str, simple: dict):
    if name in simple:
        return simple[name]
    if name in ALWAYS_RECORDED:
        return None  # recorded by the runner regardless
    if name.startswith("sobolev.rho.H"):
        k = _parse_order(name[len("sobolev.rho.H") :])
        return lambda ws: sobolev_norm(
            ScalarField(ws.state.grid, ws.state.rho.values - ws.state.grid.far_field_density), k
        )
    if name.startswith("sobolev.v.H"):
        k = _parse_order(name[len("sobolev.v.H") :])
        return lambda ws: float(
            np.sqrt(sum(sobolev_norm(ScalarField(ws.state.grid, c), k) ** 2 for c in ws.velocity("effective")))
        )
    if name.startswith("besov.rho."):
        return _besov_probe(name[len("besov.rho.") :])
    near = difflib.get_close_matches(name, known_probe_names(), n=3)
    hint = f"; nearest valid names: {', '.join(near)}" if near else ""
    raise ProbeError(f"unknown probe {name!r}{hint}")


def _log_power_sum(a: float, k: int) -> float:
    """log of sum_{m<=k} e^(m a), formed without overflow."""
    if a == 0.0:
        return math.log(k + 1)
    b = -abs(a)
    return max(k * a, 0.0) + math.log(-math.expm1((k + 1) * b)) - math.log(-math.expm1(b))


def require_finite_weights(names, grid) -> None:
    """ProbeError unless the weight each named Sobolev or Besov probe puts on
    the grid's top mode lies within e^(+-700): sum_{m<=k} |xi|^(2m) for
    ``sobolev.*.H<k>``; for ``besov.rho.<s>.<p>.<r>``, 2^(j s r) for each block
    j <= j_max, as its l^r sum raises each weighted block to the power r
    (2^(j s) for r = inf)."""
    for name in names:
        if name.startswith(("sobolev.rho.H", "sobolev.v.H")):
            try:
                log_weight = _log_power_sum(math.log(float(np.max(grid.rk2))), _parse_order(name.partition(".H")[2]))
            except OverflowError:  # an order beyond the float range
                log_weight = math.inf
        elif name.startswith("besov.rho."):
            s, _, r = map(_parse_exponent, name.split(".")[2:])
            log_weight = (1.0 if r == math.inf else r) * top_block(grid) * s * math.log(2.0)
        else:
            continue
        if not abs(log_weight) < _LOG_RANGE:
            raise ProbeError(
                f"probe {name!r} weighs the top mode of the grid by e^{log_weight:.6g}, "
                f"outside e^(+-{_LOG_RANGE:g})"
            )


def resolve_probes(names, gamma: float) -> dict:
    """Probe callables ``fn(ws)`` by name, each reading the sampled state's
    ``Workspace``; probes reading one underlying evaluation share it."""
    names = list(names)
    simple = _simple_probes(gamma, [name for name in names if name.startswith((_WEIGHTED, _PSI))])
    out = {}
    for name in names:
        fn = _resolve_probe(name, simple)
        if fn is not None:
            out[name] = fn
    return out


# ----------------------------------------------------------------------
# trajectory-level audits


GROWTH_EXPONENTS = (2, 6, 14, 30)
# the per-step columns the growth-law audit reads; a config must record them
GROWTH_PROBES = tuple(f"{_WEIGHTED}{p}" for p in GROWTH_EXPONENTS)
GROWTH_SPREAD_LIMIT = 0.20


def growth_constant(record, p: int) -> float:
    """sup_t of the recorded weighted velocity norm of exponent p, over sqrt(p+2)."""
    return float(np.max(record.scalars[f"{_WEIGHTED}{p}"])) / math.sqrt(p + 2.0)


def growth_law_audit(record) -> AuditReport:
    """Spread of sup_t (weighted norm) / sqrt(p+2) across the exponent ladder."""
    values = [growth_constant(record, p) for p in GROWTH_EXPONENTS]
    top, bottom = max(values), min(values)
    spread = top / bottom - 1.0 if bottom > 0 else (0.0 if top == 0.0 else math.inf)
    return bound_report(
        "growth.sqrt_p",
        spread,
        GROWTH_SPREAD_LIMIT,
        0.0,
        "square-root growth of weighted velocity norms in the exponent",
    )


@dataclass(frozen=True)
class Audit:
    """One trajectory audit, all of it in one ``AUDITS`` entry.

    ``part(ws, ctx)`` runs on the workspace of each stored state as the run
    stores it (``audit_observer``) and its result is appended to ``ctx[key]``:
    floats and audit rows only, except the certificate's 1/rho where a window
    can read it (``degiorgi.readable_inverse_density``), as its windows need
    c_v from the whole run.  An audit with ``second_order`` reads instead the
    stored states' ``second_order_terms`` with that flag set, one derivation
    per state for every such audit of a run (and the ``jungel.*`` probes, if
    the flags agree).  ``finish(record, ctx)`` runs once the run is over and
    reads only ctx and the record's per-step columns: those of ``probes``,
    which a config must record.  ``gamma_above_one``: a config must have
    gamma > 1.
    """

    finish: Callable
    part: Callable | None = None
    key: str | None = None
    second_order: str | None = None
    probes: tuple = ()
    gamma_above_one: bool = False


def _merged(key):
    """The finish that keeps, per inequality id, the worst row kept under ``key``."""
    return lambda record, ctx: _merge_worst([r for rows in ctx[key] for r in rows])


def _certificate(record, ctx):
    cert = degiorgi.lower_bound_certificate(record, ctx["c_v"], (ctx["stored_times"], ctx["inverse_density"]))
    ctx["certificate"] = cert
    if not cert.certified:
        return [
            bound_report("certificate.soundness", math.inf, 1.0, 0.0, "density-lower-bound certificate: " + cert.reason)
        ]
    return [
        bound_report(
            "certificate.soundness",
            cert.observed,
            cert.bound,
            1e-9,
            "density-lower-bound certificate soundness",
        )
    ]


# the reverse-Hoelder audit's p, and the psi exponents its per-state part reads
REVERSE_HOLDER_PS = (1, 2, 3)
_RH_EXPONENTS = estimates.reverse_holder_exponents(REVERSE_HOLDER_PS)

AUDITS = {
    "pi-equivalence": Audit(
        _merged("pi_rows"),
        lambda ws, ctx: estimates.pi_equivalence_audit(ws.state.rho, ws.state.grid.far_field_density, ctx["gamma"]),
        "pi_rows",
        gamma_above_one=True,
    ),
    "jungel": Audit(
        lambda record, ctx: _merge_worst(
            [r for terms in ctx["second_order_terms"] for r in estimates.jungel_bounds(terms, record.grid.dim)]
        ),
        second_order="convexity",
    ),
    "region-split": Audit(
        _merged("region_rows"),
        lambda ws, ctx: [estimates.region_split(ws.state, ctx["gamma"])],
        "region_rows",
        gamma_above_one=True,
    ),
    "bd-identity": Audit(
        lambda record, ctx: [estimates.bd_identity_audit(ctx["second_order_terms"])], second_order="identity"
    ),
    "log-law": Audit(lambda record, ctx: [estimates.log_law_audit(record, preset=ctx.get("preset"))]),
    "reverse-holder": Audit(
        lambda record, ctx: _merge_worst(
            estimates.reverse_holder_audit(
                record, REVERSE_HOLDER_PS, (ctx["stored_times"], ctx["velocity_moments"]), preset=ctx.get("preset")
            )
        ),
        lambda ws, ctx: estimates.velocity_moments(ws, _RH_EXPONENTS),
        "velocity_moments",
    ),
    "growth-law": Audit(lambda record, ctx: [growth_law_audit(record)], probes=GROWTH_PROBES),
    "certificate": Audit(_certificate, degiorgi.readable_inverse_density, "inverse_density"),
}


def audit_observer(names, ctx):
    """The run's one audit observer ``observe(ws, stored)``: on a stored
    state's workspace, the named audits' per-state parts, each result appended
    to its list in ``ctx``, and the state's time to ``ctx["stored_times"]``.
    The second-order terms come last, after the workspace has dropped its
    sample data (``Workspace.drop_sample_data``), which they do not read: the
    pass then runs without |v|^2 and a primitive state's grad log rho."""
    named = [audit for name, audit in AUDITS.items() if name in names]
    parts = {audit.key: audit.part for audit in named if audit.part is not None}
    flags = {flag: any(audit.second_order == flag for audit in named) for flag in ("identity", "convexity")}
    if any(flags.values()):
        second_order = _second_order(**flags)

        def lean_second_order(ws, ctx):
            ws.drop_sample_data()
            return second_order(ws)

        parts["second_order_terms"] = lean_second_order
    kept = {key: ctx.setdefault(key, []) for key in ("stored_times", *parts)}

    def observe(ws, stored):
        if stored:
            kept["stored_times"].append(ws.state.t)
            for key, fn in parts.items():
                kept[key].append(fn(ws, ctx))

    return observe


def resolve_audits(names) -> dict:
    """Audit finishes ``fn(record, ctx)`` by name (see ``Audit``)."""
    for name in names:
        if name not in AUDITS:
            near = difflib.get_close_matches(name, sorted(AUDITS), n=3)
            hint = f"; nearest valid names: {', '.join(near)}" if near else ""
            raise ProbeError(f"unknown audit {name!r}{hint}")
    return {name: AUDITS[name].finish for name in names}
