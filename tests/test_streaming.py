"""Audits that stream: each stored state is audited as the run stores it.

``run()`` hands each stored state's workspace to an observer; the default one
collects the states on the record.  ``run_experiment`` passes the audits'
per-state parts instead and keeps no stored state, so its rows must equal,
field for field, the rows of a direct ``run()`` whose observer collects the
stored states and runs the same per-state parts.
"""

from pathlib import Path

import numpy as np
import pytest

from nsklab import degiorgi, experiment
from nsklab.audits import AuditReport
from nsklab.config import parse_config
from nsklab.degiorgi import WindowCertificate
from nsklab.estimates import log_law_constant
from nsklab.experiment import run_experiment
from nsklab.fields import make_grid
from nsklab.probes import resolve_audits, resolve_probes, stored_state_observer
from nsklab.solver import SolverConfig, make_preset, run, to_effective

EFFECTIVE_2D = """
[grid]
dim = 2
n = 32
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = gaussian-bump
amplitude = 0.4
width = 1.2

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.006
formulation = effective

[probes]
names = energy.total, energy.kinetic, venergy, norm.weighted.p2, norm.weighted.p6, sobolev.rho.H2

[audits]
names = bd-identity, pi-equivalence, region-split, jungel, log-law, reverse-holder, certificate

[output]
directory = streamed
state_stride = {stride}
"""

PRIMITIVE_3D = """
[grid]
dim = 3
n = 32
box_length = 12.566370614359172
far_field_density = 1.0

[preset]
name = random-large

[solver]
gamma = 2.0
dt = 1e-3
t_end = 0.004
formulation = primitive

[probes]
names = energy.total

[audits]
names = bd-identity, jungel, pi-equivalence, region-split

[output]
directory = streamed
state_stride = {stride}

[rng]
seed = 3
"""


def _read_rows(path: Path) -> list[AuditReport]:
    rows = []
    for line in path.read_text().strip().splitlines()[1:]:
        inequality_id, lhs, rhs, ratio, tolerance, passed, *citation, kind = line.split(",")
        rows.append(
            AuditReport(
                inequality_id,
                float(lhs),
                float(rhs),
                float(ratio),
                float(tolerance),
                passed == "true",
                ",".join(citation),
                kind,
            )
        )
    return rows


def _read_windows(path: Path) -> list[WindowCertificate]:
    windows = []
    for line in path.read_text().strip().splitlines()[1:]:
        index, *numbers, sound = line.split(",")
        windows.append(WindowCertificate(int(index), *map(float, numbers), sound == "true"))
    return windows


def _collected(cfg):
    """The configured run by a direct ``run()`` whose observer collects the
    stored states and runs the audits' per-state parts on each: the states,
    the audits' rows and their context."""
    state = make_preset(cfg.preset_name, cfg.make_grid(), cfg.preset_params, seed=cfg.seed)
    if cfg.formulation == "effective":
        state = to_effective(state)
    ctx = {"gamma": cfg.solver.gamma, "preset": cfg.preset_name}
    parts = stored_state_observer(cfg.audit_names, ctx)
    states = []

    def observe(ws):
        states.append(ws.state)
        parts(ws)

    record = run(
        state,
        cfg.solver,
        probes=resolve_probes(cfg.probe_names, cfg.solver.gamma),
        state_stride=cfg.state_stride,
        observe=observe,
    )
    ctx["c_v"] = log_law_constant(record)
    rows = [row for fn in resolve_audits(cfg.audit_names).values() for row in fn(record, ctx)]
    return states, rows, ctx


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("template", [EFFECTIVE_2D, PRIMITIVE_3D], ids=["effective-2d", "primitive-3d"])
def test_streamed_rows_equal_collected_rows(tmp_path, template, stride):
    cfg = parse_config(template.format(stride=stride))
    manifest = run_experiment(cfg, tmp_path)
    outdir = Path(manifest.directory)
    states, rows, ctx = _collected(cfg)
    n_steps = round(cfg.solver.t_end / cfg.solver.dt)
    assert len(states) == len(range(0, n_steps + 1, stride)) + (n_steps % stride != 0)
    # %.17g round-trips every float, so the parsed rows are the streamed ones
    streamed = _read_rows(outdir / "audits.csv")
    assert len(streamed) == len(rows) > 0
    for got, want in zip(streamed, rows):
        assert got == want
    if "certificate" in cfg.audit_names:
        assert _read_windows(outdir / "certificate.csv") == list(ctx["certificate"].windows)
        assert manifest.extra["certified_bound"] == ctx["certificate"].bound


def test_every_csv_cell_reads_back_exactly(tmp_path, monkeypatch):
    """Parsed back, each cell of series.csv, certificate.csv and the report's
    summary equals the value the run held: a float, by ``==``, to the bit."""
    held = {}

    def keep(name, fn):
        def wrapped(*args, **kwargs):
            held[name] = fn(*args, **kwargs)
            return held[name]

        return wrapped

    monkeypatch.setattr(experiment, "run", keep("record", run))
    monkeypatch.setattr(degiorgi, "lower_bound_certificate", keep("cert", degiorgi.lower_bound_certificate))
    manifest = run_experiment(parse_config(EFFECTIVE_2D.format(stride=2)), tmp_path)
    outdir = Path(manifest.directory)
    record, cert = held["record"], held["cert"]

    header, *rows = (line.split(",") for line in (outdir / "series.csv").read_text().splitlines())
    assert header == ["time", *record.scalars]
    assert len(rows) == len(record.times) == 7
    for i, (t, *cells) in enumerate(rows):
        assert float(t) == record.times[i]
        for name, cell in zip(record.scalars, cells, strict=True):
            assert float(cell) == record.scalars[name][i]

    assert (outdir / "certificate.csv").read_text().split("\n", 1)[0] == ",".join(experiment.CERTIFICATE_HEADER)
    assert _read_windows(outdir / "certificate.csv") == list(cert.windows)
    assert cert.windows

    summary = experiment.report([outdir / "manifest.json"], tmp_path / "summary.csv")
    header, row = (line.split(",") for line in summary.read_text().splitlines())
    cell = dict(zip(header, row, strict=True))
    assert (cell.pop("run"), cell.pop("preset"), cell.pop("aborted")) == (outdir.name, manifest.preset, "false")
    assert (int(cell.pop("audit_total")), int(cell.pop("audit_failures"))) == (manifest.audit_total, manifest.audit_failures)
    assert float(cell.pop("audit_pass_rate")) == 1.0 - manifest.audit_failures / manifest.audit_total
    assert float(cell.pop("gamma")) == manifest.gamma
    assert {key for key, text in cell.items() if text} == set(manifest.extra)
    for key, value in manifest.extra.items():
        assert float(cell[key]) == value


class TestObserver:
    CFG = SolverConfig(gamma=2.0, dt=1e-3, t_end=5e-3)

    @staticmethod
    def _bump():
        return to_effective(make_preset("gaussian-bump", make_grid(2, 32, 4 * np.pi, 1.0)))

    def test_observer_sees_each_stored_state_once_with_its_sample_data(self):
        seen = []

        def observe(ws):
            seen.append((ws.state.t, "v2" in vars(ws)))

        rec = run(self._bump(), self.CFG, state_stride=2, observe=observe)
        assert rec.states == []
        assert [t for t, _ in seen] == [0.0, 2e-3, 4e-3, 5e-3]
        assert all(held for _, held in seen)  # the sample's |v|^2, not yet dropped

    def test_default_observer_collects_the_states(self):
        s = self._bump()
        rec = run(s, self.CFG, state_stride=2)
        assert [st.t for st in rec.states] == [0.0, 2e-3, 4e-3, 5e-3]
        assert rec.states[0] is s and rec.final is rec.states[-1]

    def test_final_is_the_last_state_reached(self):
        # the guard refuses the first step: the run stops at its initial state
        s = self._bump()
        rec = run(s, SolverConfig(gamma=2.0, dt=1.0, t_end=5.0), state_stride=2)
        assert rec.aborted and rec.abort_time == 0.0
        assert rec.final is s
