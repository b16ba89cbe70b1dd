"""Named per-step diagnostics and named trajectory audits for the runner.

Probe names are stable strings; parametrized families encode their parameter
in the name ("norm.weighted.p6", "besov.rho.1.2.2", "sobolev.rho.H2",
"psi.p4").  Unknown names raise with the nearest valid candidates, so config
typos fail loudly before a run starts.
"""

from __future__ import annotations

import difflib
import math

import numpy as np

from . import degiorgi, estimates
from .audits import AuditReport, _merge_worst, bound_report
from .dyadic import BesovIndex, besov_norm, build_dyadic_family
from .fields import ScalarField, sobolev_norm, vector_sobolev_norm
from .solver import ALWAYS_RECORDED

__all__ = [
    "ProbeError",
    "resolve_probes",
    "resolve_audits",
    "stored_state_observer",
    "known_probe_names",
    "known_audit_names",
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
    energy = _shared(("energy", gamma), lambda ws: estimates.energy(ws.primitive, gamma))
    vdiss = _shared(("vdiss", gamma), lambda ws: estimates.v_energy_dissipations(ws.effective, gamma))
    jungel = _shared("jungel", lambda ws: estimates.second_order_terms(ws.state, identity=False))
    moments = _shared(("moments", qs), lambda ws: estimates.velocity_moments(ws, qs))
    simple = {
        "energy.total": lambda ws: energy(ws).total,
        "energy.kinetic": lambda ws: energy(ws).kinetic,
        "energy.potential": lambda ws: energy(ws).potential,
        "energy.fisher": lambda ws: energy(ws).fisher,
        "energy.dissipation": lambda ws: estimates.dissipation_rate(ws.primitive),
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
    s = _parse_exponent(tokens[0])
    idx = BesovIndex(s, _parse_exponent(tokens[1]), _parse_exponent(tokens[2]))
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
        return lambda ws: vector_sobolev_norm(ws.effective.vel, k)
    if name.startswith("besov.rho."):
        return _besov_probe(name[len("besov.rho.") :])
    near = difflib.get_close_matches(name, known_probe_names(), n=3)
    hint = f"; nearest valid names: {', '.join(near)}" if near else ""
    raise ProbeError(f"unknown probe {name!r}{hint}")


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


# An audit is a per-state part and a finish.  The per-state part runs on the
# workspace of each stored state as the run stores it (``run(observe=...)``)
# and keeps what the finish needs of that state in the run's audit ``ctx``:
# floats and audit rows only, except the certificate's, which keeps the
# state's 1/rho because its windows need c_v from the whole run.  The finish,
# ``fn(record, ctx)``, runs once the run is over and reads only ctx and the
# record's per-step columns.

# the reverse-Hoelder audit's p, and the psi exponents its per-state part reads
REVERSE_HOLDER_PS = (1, 2, 3)
_RH_EXPONENTS = estimates.reverse_holder_exponents(REVERSE_HOLDER_PS)
# each audit's per-state part and the ctx key it keeps its results under;
# bd-identity and jungel share one, which computes what each of them reads
_PER_STATE = {
    "pi-equivalence": (
        "pi_rows",
        lambda ws, ctx: estimates.pi_equivalence_audit(ws.state.rho, ws.state.grid.far_field_density, ctx["gamma"]),
    ),
    "region-split": ("region_rows", lambda ws, ctx: estimates.region_split(ws.state, ctx["gamma"])),
    "reverse-holder": ("velocity_moments", lambda ws, ctx: estimates.velocity_moments(ws, _RH_EXPONENTS)),
    "certificate": ("inverse_density", lambda ws, ctx: degiorgi.inverse_density(ws.state)),
}
# audits that read second_order_terms, with the flag each one needs
SECOND_ORDER = {"bd-identity": "identity", "jungel": "convexity"}


def stored_state_observer(names, ctx):
    """``observe(ws)`` for ``run()``: the per-state parts of the named audits
    on a stored state's workspace, each result appended to its list in
    ``ctx``, and the state's time to ``ctx["stored_times"]``."""
    flags = {flag: name in names for name, flag in SECOND_ORDER.items()}
    parts = dict(_PER_STATE[name] for name in names if name in _PER_STATE)
    if flags["identity"] or flags["convexity"]:
        parts["second_order_terms"] = lambda ws, ctx: estimates.second_order_terms(ws.state, **flags)
    kept = {key: ctx.setdefault(key, []) for key in ("stored_times", *parts)}

    def observe(ws):
        kept["stored_times"].append(ws.state.t)
        for key, fn in parts.items():
            kept[key].append(fn(ws, ctx))

    return observe


def _audit_pi(record, ctx):
    return _merge_worst([r for rows in ctx["pi_rows"] for r in rows])


def _audit_jungel(record, ctx):
    reports = []
    for t in ctx["second_order_terms"]:
        reports.extend(estimates.jungel_bounds(t, record.grid.dim))
    return _merge_worst(reports)


def _audit_region(record, ctx):
    return _merge_worst(ctx["region_rows"])


def _audit_bd(record, ctx):
    return [estimates.bd_identity_audit(ctx["second_order_terms"])]


def _audit_loglaw(record, ctx):
    return [estimates.log_law_audit(record, preset=ctx.get("preset"))]


def _audit_reverse_holder(record, ctx):
    stored = ctx["stored_times"], ctx["velocity_moments"]
    return _merge_worst(estimates.reverse_holder_audit(record, REVERSE_HOLDER_PS, stored, preset=ctx.get("preset")))


def _audit_growth(record, ctx):
    return [growth_law_audit(record)]


def _audit_certificate(record, ctx):
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


AUDITS = {
    "pi-equivalence": _audit_pi,
    "jungel": _audit_jungel,
    "region-split": _audit_region,
    "bd-identity": _audit_bd,
    "log-law": _audit_loglaw,
    "reverse-holder": _audit_reverse_holder,
    "growth-law": _audit_growth,
    "certificate": _audit_certificate,
}


def known_audit_names() -> list[str]:
    return sorted(AUDITS)


def resolve_audits(names) -> dict:
    """Audit finishes ``fn(record, ctx)`` by name.

    Each reads what its per-state part kept in the run's ``ctx`` (see
    ``stored_state_observer``); the second-order audits share one derivation
    per stored state.
    """
    for name in names:
        if name not in AUDITS:
            near = difflib.get_close_matches(name, known_audit_names(), n=3)
            hint = f"; nearest valid names: {', '.join(near)}" if near else ""
            raise ProbeError(f"unknown audit {name!r}{hint}")
    return {name: AUDITS[name] for name in names}
