"""Outside-in tracing of nsklab's layers.

The benchmark times the calls *into* each layer by replacing module
attributes with wrappers, in the namespace that makes the call (for example
``nsklab.solver.step``, which ``solver.run`` looks up as a global).  Nothing
inside ``src/`` changes.  Spans are kept in memory and written out at the end
of a run.

Every ``numpy.fft`` entry point is counted as well: calls, points transformed
and bytes (input plus output array sizes, so *computed*, not measured
traffic), attributed to the innermost open span.  A call is counted once even
if numpy's own code re-enters the public namespace.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)

IO_SPANS = ("io.series_csv", "io.snapshot", "io.write_text")
FORMULATION_SPANS = ("formulation.to_effective", "formulation.from_effective")

# Union of the probes and audits configured by the workloads; the per-layer
# metric set is fixed, so a layer a workload does not configure reads 0.
PROBES = (
    "energy.total", "energy.kinetic", "venergy", "sobolev.rho.H2",
    "norm.weighted.p2", "norm.weighted.p6", "norm.weighted.p14", "norm.weighted.p30",
)
AUDITS = (
    "bd-identity", "pi-equivalence", "region-split", "jungel",
    "log-law", "reverse-holder", "growth-law", "certificate",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    fft_calls: int = 0
    fft_points: int = 0
    fft_bytes: int = 0
    fft_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans and the FFT calls made while each is innermost."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._in_fft = False

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), parent=parent, attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` inside a span; ``attrs(*args)`` may add attributes from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        return traced

    def count_fft(self, fn):
        import numpy as np

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._in_fft or not self._open:
                return fn(a, *args, **kwargs)
            a = np.asarray(a)
            self._in_fft = True
            try:
                t0 = time.perf_counter()
                out = fn(a, *args, **kwargs)
                elapsed = time.perf_counter() - t0
            finally:
                self._in_fft = False
            s = self.spans[self._open[-1]]
            s.fft_calls += 1
            # the real side of a real transform is the larger array
            s.fft_points += max(a.size, out.size)
            s.fft_bytes += a.nbytes + out.nbytes
            s.fft_s += elapsed
            return out

        return counted

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def install(tracer: Tracer):
    """Patch the layer boundaries; returns a function that restores them."""
    import pathlib

    import numpy.fft

    from nsklab import degiorgi, estimates, experiment, solver

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for name in FFT_FUNCTIONS:
        patch(numpy.fft, name, tracer.count_fft(getattr(numpy.fft, name)))

    patch(experiment, "run", tracer.wrap(experiment.run, "solver.run"))
    patch(solver, "step", tracer.wrap(solver.step, "solver.step"))
    for module in (solver, estimates, experiment):
        for attr in ("to_effective", "from_effective"):
            if hasattr(module, attr):
                patch(module, attr, tracer.wrap(getattr(module, attr), f"formulation.{attr}"))
    patch(estimates, "energy", tracer.wrap(estimates.energy, "estimates.energy"))
    patch(
        degiorgi,
        "lower_bound_certificate",
        tracer.wrap(degiorgi.lower_bound_certificate, "degiorgi.lower_bound_certificate"),
    )

    resolve_probes = experiment.resolve_probes
    resolve_audits = experiment.resolve_audits

    def traced_probes(*args, **kwargs):
        return {n: tracer.wrap(fn, f"probe.{n}") for n, fn in resolve_probes(*args, **kwargs).items()}

    def traced_audits(*args, **kwargs):
        def states(record, ctx):
            return {"states": len(record.states)}

        return {
            n: tracer.wrap(fn, f"audit.{n}", attrs=states)
            for n, fn in resolve_audits(*args, **kwargs).items()
        }

    patch(experiment, "resolve_probes", traced_probes)
    patch(experiment, "resolve_audits", traced_audits)

    patch(experiment, "_write_series_csv", tracer.wrap(experiment._write_series_csv, "io.series_csv"))
    patch(experiment, "write_snapshot", tracer.wrap(experiment.write_snapshot, "io.snapshot"))
    # audits.csv, the certificate and the manifest are written inline by
    # run_experiment through Path.write_text
    patch(pathlib.Path, "write_text", tracer.wrap(pathlib.Path.write_text, "io.write_text"))

    def undo():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return undo


# ----------------------------------------------------------------------
# analysis of a finished span list (dicts as written by Tracer.dump)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        s["end"] - s["start"] - _covered(children.get(i, []), s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def _has_ancestor(spans, i: int, pred) -> bool:
    p = spans[i]["parent"]
    while p is not None:
        if pred(spans[p]["name"]):
            return True
        p = spans[p]["parent"]
    return False


def _inclusive_fft_calls(spans) -> list[int]:
    total = [s["fft_calls"] for s in spans]
    # parents precede children in the list, so one reverse pass accumulates
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i]["parent"]
        if p is not None:
            total[p] += total[i]
    return total


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value.

    With 10 or fewer samples no such percentile exists; the median is given.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def layer_metrics(spans: list[dict], n_samples: int) -> dict[str, float]:
    """Per-layer figures from one traced run.

    ``n_samples`` is the number of states the probes were evaluated on (the
    rows of series.csv: every step plus the initial state).  The root span
    is the traced ``run_experiment`` call.
    """
    names = [s["name"] for s in spans]
    dur = [s["end"] - s["start"] for s in spans]
    own = self_times(spans)
    incl = _inclusive_fft_calls(spans)
    run_s = dur[0]

    steps = [i for i, n in enumerate(names) if n == "solver.step"]
    n_steps = max(len(steps), 1)
    step_ms = [1e3 * dur[i] for i in steps]
    tail_pct, tail_ms = tail(step_ms)

    def total(pred):
        return sum((dur[i] for i, n in enumerate(names) if pred(n)), 0.0)

    def is_probe(name):
        return name.startswith("probe.")

    def is_io(name):
        return name in IO_SPANS

    fft_s = sum(s["fft_s"] for s in spans)
    out = {
        "fft.calls_per_step": sum(s["fft_calls"] for s in spans) / n_steps,
        "fft.points_per_step": sum(s["fft_points"] for s in spans) / n_steps,
        "fft.bytes_per_step": sum(s["fft_bytes"] for s in spans) / n_steps,
        "fft.busy_s": fft_s,
        "fft.share": fft_s / run_s,
        "solver.steps": float(len(steps)),
        "solver.step.busy_s": sum((dur[i] for i in steps), 0.0),
        "solver.step_ms.p50": statistics.median(step_ms),
        "solver.step_ms.tail": tail_ms,
        "solver.step_ms.tail_pct": tail_pct,
        "solver.step.fft_calls": sum(incl[i] for i in steps) / n_steps,
        "solver.run.other_s": sum(own[i] for i, n in enumerate(names) if n == "solver.run"),
        "solver.formulation_changes_per_step": sum(n in FORMULATION_SPANS for n in names) / n_steps,
        "probes.busy_s": total(is_probe),
        "probes.fft_calls_per_step": sum(incl[i] for i, n in enumerate(names) if is_probe(n))
        / max(n_samples, 1),
        "estimates.energy.calls_per_step": sum(
            1
            for i, n in enumerate(names)
            if n == "estimates.energy" and _has_ancestor(spans, i, is_probe)
        )
        / max(n_samples, 1),
    }
    for p in PROBES:
        out[f"probes.{p}.busy_s"] = total(lambda n: n == f"probe.{p}")
    out["audits.busy_s"] = total(lambda n: n.startswith("audit."))
    for a in AUDITS:
        out[f"audits.{a}.busy_s"] = total(lambda n: n == f"audit.{a}")
    out["audits.states_checked"] = float(
        max((s["attrs"].get("states", 0) for s in spans if s["name"].startswith("audit.")), default=0)
    )
    out["degiorgi.certificate.busy_s"] = total(lambda n: n == "degiorgi.lower_bound_certificate")
    out["experiment.io.busy_s"] = sum(
        dur[i] for i, n in enumerate(names) if is_io(n) and not _has_ancestor(spans, i, is_io)
    )
    return out
