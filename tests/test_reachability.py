"""The reachability ledger: every function under ``src/nsklab`` is reached by a
CLI verb, or is listed in ``LEDGER`` with the reason it stays.

The trace imports the package afresh and runs every verb through ``cli.main``
under ``sys.setprofile``, so the functions a verb reaches at import time count
too.  Its corpus is short copies of the committed configs, a 2D primitive and
a 3D effective config that name every probe family and every audit, the
``report``, ``audit`` and ``selftest`` verbs, and the error paths the CLI
tests drive.  A function the trace never enters must be in ``LEDGER``; a
listed function the trace enters must leave it.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "nsklab"
CONFIGS = REPO / "configs"

CALIBRATION = "calibration only (python -m nsklab.calibrate)"
CALIBRATION_11 = "calibration only; ROADMAP item 11 decides"
ITEM_7 = "ROADMAP item 7 decides"
ITEM_11 = "ROADMAP item 11 decides"
ITEM_15 = "ROADMAP item 15 decides"
# the certificate forms and truncates 1/rho only in a window where it rises above the base
DATA_PATH = "data path no committed config takes"

# {qualified name: why it stays in src/ though no verb reaches it}
LEDGER = {
    "calibrate._block_corpus": CALIBRATION,
    "calibrate._field_corpus": CALIBRATION,
    "calibrate._preset_runs": CALIBRATION,
    "calibrate._preset_runs.observe": CALIBRATION,
    "calibrate.calibrate_bernstein": CALIBRATION,
    "calibrate.calibrate_certificate": CALIBRATION,
    "calibrate.calibrate_heat": CALIBRATION,
    "calibrate.calibrate_hs_equivalence": CALIBRATION,
    "calibrate.calibrate_interpolation": CALIBRATION,
    "calibrate.calibrate_trajectories": CALIBRATION,
    "calibrate.main": CALIBRATION,
    "degiorgi.LevelSetLadder.limit": ITEM_15,
    "degiorgi.closed_form_bound": ITEM_15,
    "degiorgi.flat_aware_gradient": DATA_PATH,
    "degiorgi.inverse_density": DATA_PATH,
    "degiorgi.inverse_density_pde_residual": ITEM_7,
    "degiorgi.ladder": ITEM_15,
    "degiorgi.level_set_measure": ITEM_15,
    "degiorgi.recurrence_equality": ITEM_15,
    "degiorgi.truncate": DATA_PATH,
    "dyadic.TimeSeriesField.__post_init__": CALIBRATION_11,
    "dyadic.TimeSeriesField.grid": CALIBRATION_11,
    "dyadic._chemin_lerner_sum": CALIBRATION_11,
    "dyadic._multi_indices": CALIBRATION_11,
    "dyadic._phi1": CALIBRATION_11,
    "dyadic._phi2": CALIBRATION_11,
    "dyadic._time_lq": CALIBRATION_11,
    "dyadic.bernstein_audit": ITEM_11,
    "dyadic.bernstein_ratios": CALIBRATION_11,
    "dyadic.block_norm_table": CALIBRATION_11,
    "dyadic.chemin_lerner_norm": ITEM_11,
    "dyadic.heat_evolve": CALIBRATION_11,
    "dyadic.heat_regularity_audit": ITEM_11,
    "dyadic.heat_terms": CALIBRATION_11,
    "dyadic.interpolation_terms": CALIBRATION_11,
    "dyadic.lq_besov_norm": ITEM_11,
    "dyadic.optimal_interpolation_audit": ITEM_11,
    "dyadic.select_frequency_cut": CALIBRATION_11,
    "fields.hs_norm": CALIBRATION_11,
}

_PROBES = (
    "energy.total, energy.kinetic, energy.potential, energy.fisher, energy.dissipation, "
    "venergy, venergy.pressure_dissipation, venergy.velocity_dissipation, jungel.D, jungel.A, jungel.Bp, "
    "norm.weighted.p2, norm.weighted.p6, norm.weighted.p14, norm.weighted.p30, psi.p4, "
    "sobolev.rho.H2, sobolev.v.H1, besov.rho.1.2.2, besov.rho.0.inf.inf, density.min"
)
_AUDITS = "bd-identity, pi-equivalence, region-split, jungel, log-law, reverse-holder, growth-law, certificate"

# configs that `nsklab run` refuses, each made from the shortened demo config
ERROR_CONFIGS = {
    "unknown-probe": lambda demo: demo.replace("venergy,", "venergi,").encode(),
    "unknown-audit": lambda demo: demo.replace("log-law", "log-lax").encode(),
    "not-utf8": lambda demo: demo.encode() + "# Jüngel\n".encode("latin-1"),
}

# every probe family and every audit, in each formulation and dimension
COVERING = {
    "primitive-2d": (2, 32, "primitive", "name = random-large\nvelocity_amplitude = 0.5", 0.01),
    "effective-3d": (3, 16, "effective", "name = gaussian-bump\nwidth = 1.0", 0.006),
}
_COVERING_TEXT = """
[grid]
dim = {dim}
n = {n}
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
{preset}

[solver]
gamma = 2.0
dt = 1e-3
t_end = {t_end}
formulation = {formulation}

[probes]
names = {probes}

[audits]
names = {audits}

[output]
directory = {name}
state_stride = 2

[rng]
seed = 1
"""


def _shortened(path: Path, t_end: str, stride: int) -> str:
    """The committed config at ``path`` over fewer steps, storing every
    ``stride``-th state, into the directory named after it."""
    values = {"t_end": t_end, "state_stride": stride, "directory": path.stem}
    lines = []
    for line in path.read_text().splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {values[key]}" if key in values else line)
    return "\n".join(lines) + "\n"


def _verb_calls(work: Path) -> list:
    """``(argv, exit codes it may give)`` of each traced ``cli.main`` call, with
    the files the calls read written under ``work``."""
    cfgs = work / "cfg"
    sweep_dir = work / "sweep"
    for d in (cfgs, sweep_dir):
        d.mkdir()
    (cfgs / "demo.cfg").write_text(_shortened(CONFIGS / "demo.cfg", "0.01", 5))
    (cfgs / "growth-law.cfg").write_text(_shortened(CONFIGS / "growth-law.cfg", "0.01", 5))
    for path in sorted((CONFIGS / "gamma-sweep").glob("*.cfg")):
        (sweep_dir / path.name).write_text(_shortened(path, "0.004", 2))
    for name, (dim, n, formulation, preset, t_end) in COVERING.items():
        text = _COVERING_TEXT.format(
            dim=dim, n=n, formulation=formulation, preset=preset, t_end=t_end,
            probes=_PROBES, audits=_AUDITS, name=name,
        )
        (cfgs / f"{name}.cfg").write_text(text)
    demo = (cfgs / "demo.cfg").read_text()
    for name, make in ERROR_CONFIGS.items():
        (cfgs / f"{name}.cfg").write_bytes(make(demo))
    (cfgs / "guard.cfg").write_text(demo.replace("dt = 1e-3", "dt = 1e-2").replace("t_end = 0.01", "t_end = 0.1"))
    (work / "bad-manifest.json").write_text('{"directory": 1}')
    (work / "not-a-snapshot.nskf").write_bytes(b"\xff" + b"\x00" * 64)

    out = str(work / "out")
    runs = ["demo", "growth-law", *COVERING]
    snapshot = str(work / "out" / "primitive-2d" / "final.rho.nskf")
    done = {0, 1}  # a finished run or audit, whether or not its audits pass
    return [
        *((["run", str(cfgs / f"{name}.cfg"), "--output-root", out], done) for name in runs),
        (["sweep", str(sweep_dir), "--output-root", out], done),
        (["report", *(str(work / "out" / name / "manifest.json") for name in runs), "-o", str(work / "s.csv")], {0}),
        (["audit", snapshot, "--gamma", "2"], done),
        (["audit", snapshot, "--gamma", "1"], done),
        (["selftest"], {0}),
        *((["run", str(cfgs / f"{name}.cfg"), "--output-root", out], {2}) for name in ERROR_CONFIGS),
        (["run", str(cfgs / "guard.cfg"), "--output-root", str(work / "guard")], {3}),
        (["report", str(work / "bad-manifest.json"), "-o", str(work / "bad.csv")], {2}),
        (["audit", str(work / "not-a-snapshot.nskf"), "--gamma", "2"], {2}),
    ]


@contextlib.contextmanager
def _fresh_package():
    """The package imported anew inside the block, the modules it replaced restored after it."""
    saved = {name: mod for name, mod in sys.modules.items() if name == "nsklab" or name.startswith("nsklab.")}
    for name in saved:
        del sys.modules[name]
    try:
        yield
    finally:
        for name in [n for n in sys.modules if n == "nsklab" or n.startswith("nsklab.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def trace_verbs(work: Path) -> set:
    """The ``(file, first line, name)`` of every code object under ``src/nsklab``
    that the verbs enter; each verb must exit as its path promises."""
    calls = _verb_calls(work)
    entered, prefix = set(), str(SRC)

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with _fresh_package(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            from nsklab.cli import main

            codes = [(argv, main(argv), expected) for argv, expected in calls]
        finally:
            sys.setprofile(None)
    wrong = [(argv, code) for argv, code, expected in codes if code not in expected]
    assert not wrong, f"verbs exited with unexpected codes: {wrong}"
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered if c.co_filename.startswith(prefix)}


def defined_functions() -> dict:
    """``{qualified name: (file, first line, name)}`` of every ``def`` under ``src/nsklab``;
    the first line is a decorated function's first decorator, as in its code object."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[f"{prefix}.{child.name}"] = (str(path), first, child.name)
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return out


def ledger_faults(defined: dict, reached: set, ledger: dict) -> list:
    """What the ledger gets wrong: an unreached function it does not list, and
    a listed name that is reached or defines nothing."""
    unreached = {name for name, key in defined.items() if key not in reached}
    faults = [f"{name}: reached by no verb and not in the ledger" for name in sorted(unreached - set(ledger))]
    faults += [f"{name}: in the ledger but reached or undefined (stale)" for name in sorted(set(ledger) - unreached)]
    return faults


def test_every_unreached_function_is_in_the_ledger(tmp_path):
    faults = ledger_faults(defined_functions(), trace_verbs(tmp_path), LEDGER)
    assert not faults, "\n".join(faults)


def _all_but_the_ledger_reached():
    """The real definitions, and a trace that reaches exactly those the ledger does not list."""
    defined = defined_functions()
    return defined, {key for name, key in defined.items() if name not in LEDGER}


def test_ledger_names_an_unlisted_unreached_function():
    defined, reached = _all_but_the_ledger_reached()
    assert ledger_faults(defined, reached, LEDGER) == []
    defined["fields.orphan"] = (str(SRC / "fields.py"), 10**6, "orphan")
    assert ledger_faults(defined, reached, LEDGER) == ["fields.orphan: reached by no verb and not in the ledger"]


@pytest.mark.parametrize("name", ["degiorgi.truncate", "fields.log_field"], ids=["now-reached", "deleted"])
def test_ledger_names_a_stale_entry(name):
    defined, reached = _all_but_the_ledger_reached()
    if name in defined:
        reached.add(defined[name])
    ledger = {**LEDGER, name: ITEM_15}
    assert ledger_faults(defined, reached, ledger) == [f"{name}: in the ledger but reached or undefined (stale)"]
