"""Experiment execution: run, sweep, report.

A run is deterministic given (config, seed): probe series and audit tables
are written as CSV (each line by ``audits.csv_line``), snapshots in the binary
field format, and a JSON manifest inventorying everything.  Sweeps execute runs
independently with isolated output directories.
"""

from __future__ import annotations

import json
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .audits import audit_csv_lines, csv_line
from .config import ConfigError, ExperimentConfig, parse_config, read_config
from .estimates import log_law_constant
from .fields import FieldError, ScalarField, sobolev_norm, write_snapshot
from .probes import GROWTH_EXPONENTS, audit_observer, growth_constant, resolve_audits, resolve_probes
from .solver import SolverError, Workspace, make_preset, require_far_field, run, to_effective

__all__ = ["RunManifest", "run_experiment", "sweep", "report", "SweepResult"]


@dataclass
class RunManifest:
    directory: str
    config_hash: str
    code_version: str
    wall_time_s: float
    files: list
    warnings: list
    preset: str
    gamma: float
    aborted: bool
    abort_time: float | None
    abort_reason: str
    audit_total: int
    audit_failures: int
    exit_code: int
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = dict(self.__dict__)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Raises ValueError on text that is not JSON, not a manifest's keys or
        a value not of its field's type (a bool is no number, an int serves as
        a float), and on an ``extra`` value that is no number, as the summary
        writes each one in a column of its own.  The ``q_admissible`` key of
        older manifests is dropped."""
        data = json.loads(text)
        try:
            manifest = cls(**{key: value for key, value in data.items() if key != "q_admissible"})
        except (AttributeError, TypeError) as err:
            raise ValueError(f"not a run manifest: {err}") from None
        hints = get_type_hints(cls)
        for f in fields(cls):
            value, types = getattr(manifest, f.name), get_args(hints[f.name]) or (hints[f.name],)
            # a bool is no int, though bool subclasses int; an int serves as a float
            numeric = (*types, int) if float in types else types
            if isinstance(value, bool) != (bool in types) or not isinstance(value, numeric):
                raise ValueError(f"not a run manifest: {f.name!r} must be {f.type}, got {value!r}")
        for key, value in manifest.extra.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"not a run manifest: 'extra' value {key!r} must be a number, got {value!r}")
        return manifest


CERTIFICATE_HEADER = ("window", "t_start", "t_end", "k0", "U0", "v_inf", "M", "B", "observed_sup_inv_rho", "sound")


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_series_csv(path: Path, record) -> None:
    columns = [record.times.tolist(), *(column.tolist() for column in record.scalars.values())]
    _write_lines(path, map(csv_line, [("time", *record.scalars), *zip(*columns)]))


def _derived_numbers(record, initial_h3: float) -> dict:
    """The run's summary numbers, computed here once: the manifest keeps them
    at full precision, the audits read c_v from them, the report copies them."""
    out = {
        "min_density": float(np.min(record.scalars["density.min"])),
        "c_v": log_law_constant(record),
    }
    for p in GROWTH_EXPONENTS:
        if f"norm.weighted.p{p}" in record.scalars:
            out[f"growth.p{p}"] = growth_constant(record, p)
    # observed headroom of the density maximum over twice the far-field
    # value, relative to the initial deviation size: reported, not asserted
    if initial_h3 > 0:
        sup_rho = float(np.max(record.scalars["density.max"]))
        out["density_bound_ratio"] = (sup_rho - 2.0 * record.grid.far_field_density) / initial_h3
    return out


def _initial_state(config: ExperimentConfig):
    """The configured initial state, in the configured formulation.  A preset
    that the config's values cannot build, or that violates the far-field
    proxy, is a ConfigError."""
    try:
        state = make_preset(config.preset_name, config.make_grid(), config.preset_params, seed=config.seed)
        require_far_field(Workspace(state))
    except (FieldError, SolverError) as err:
        raise ConfigError(str(err)) from None
    return to_effective(state) if config.formulation == "effective" else state


def _write_snapshots(outdir: Path, tag: str, state) -> list[str]:
    names = [f"{tag}.rho.nskf"] + [f"{tag}.vel{i}.nskf" for i in range(state.grid.dim)]
    for name, f in zip(names, (state.rho, *(state.vel.component(i) for i in range(state.grid.dim)))):
        write_snapshot(f, state.t, outdir / name)
    return names


def run_experiment(config: ExperimentConfig, output_root: Path | str | None = None) -> RunManifest:
    """Execute one configured run and write its outputs; never raises on a
    clean solver abort (recorded in the manifest instead).

    A bad initial state raises ConfigError before any output exists.  The
    audits see each stored state once, as the run stores it, and no stored
    state outlives that: the initial snapshots and H3 norm are taken before
    stepping, the initial state is then handed to ``run()`` with no other
    reference, and the final snapshots come from the last state the run reached.
    """
    t_wall = time.perf_counter()
    state = _initial_state(config)
    outdir = Path(config.directory)
    if output_root is not None and not outdir.is_absolute():
        outdir = Path(output_root) / outdir
    outdir.mkdir(parents=True, exist_ok=True)

    grid = state.grid
    probes = resolve_probes(config.probe_names, config.solver.gamma)
    audits = resolve_audits(config.audit_names)
    ctx = {"gamma": config.solver.gamma, "preset": config.preset_name}

    snapshots = _write_snapshots(outdir, "initial", state)
    initial_h3 = sobolev_norm(ScalarField(grid, state.rho.values - grid.far_field_density), 3)
    # run() gets the only reference, so the initial state dies once stepped past
    held = [state]
    del state
    record = run(
        held.pop(),
        config.solver,
        probes=probes,
        state_stride=config.state_stride,
        check_far_field=False,  # checked on the preset itself
        observe=audit_observer(config.audit_names, ctx),
    )

    series_path = outdir / "series.csv"
    _write_series_csv(series_path, record)
    files = [series_path.name, *snapshots, *_write_snapshots(outdir, "final", record.final)]

    extra = _derived_numbers(record, initial_h3)
    ctx["c_v"] = extra["c_v"]
    reports = []
    if audits and not record.aborted:
        for name, fn in audits.items():
            reports.extend(fn(record, ctx))
        audit_path = outdir / "audits.csv"
        _write_lines(audit_path, audit_csv_lines(reports))
        files.append(audit_path.name)
        cert = ctx.get("certificate")
        if cert is not None:
            cert_path = outdir / "certificate.csv"
            _write_lines(cert_path, map(csv_line, [CERTIFICATE_HEADER, *map(astuple, cert.windows)]))
            (outdir / "certificate.txt").write_text(cert.text_summary() + "\n")
            files.extend([cert_path.name, "certificate.txt"])
            if cert.certified:
                extra["certified_bound"] = cert.bound
                if cert.observed > 0:
                    extra["certificate_tightness"] = cert.bound / cert.observed

    # measured-only rows record a value and check nothing, so they are not counted
    checked = [r for r in reports if r.kind == "asserted"]
    failures = sum(0 if r.passed else 1 for r in checked)
    if record.aborted:
        exit_code = 3
    elif failures:
        exit_code = 1
    else:
        exit_code = 0

    manifest = RunManifest(
        directory=str(outdir),
        config_hash=config.config_hash(),
        code_version=__version__,
        wall_time_s=time.perf_counter() - t_wall,
        files=files,
        warnings=list(config.warnings),
        preset=config.preset_name,
        gamma=config.solver.gamma,
        aborted=record.aborted,
        abort_time=record.abort_time,
        abort_reason=record.abort_reason,
        audit_total=len(checked),
        audit_failures=failures,
        exit_code=exit_code,
        extra=extra,
    )
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(manifest.to_json() + "\n")
    for name in manifest.files:
        if not (outdir / name).exists():
            raise SolverError(f"manifest lists missing file {name}")
    return manifest


@dataclass
class SweepResult:
    config_path: str
    manifest: RunManifest | None
    error: str


def sweep(config_paths, output_root: Path | str | None = None) -> list[SweepResult]:
    """Independent runs; a config error, named by its path, or duplicate
    output directories are rejected before launch, and so is a preset that a
    config's values cannot build: each initial state is built there, on the
    config's one grid, and dropped."""
    parsed = []
    for path in config_paths:
        text = read_config(path)  # its error names the path
        try:
            parsed.append((str(path), parse_config(text)))
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None
    seen: dict[Path, str] = {}
    for path, cfg in parsed:
        key = Path(cfg.directory)  # 'a', 'a/' and './a' are one directory
        if key in seen:
            raise ConfigError(f"duplicate output directory {cfg.directory!r} in {path} and {seen[key]}")
        seen[key] = path
    for path, cfg in parsed:
        try:
            _initial_state(cfg)
        except ConfigError as err:
            raise ConfigError(f"{path}: {err}") from None
    results = []
    for path, cfg in parsed:
        try:
            results.append(SweepResult(path, run_experiment(cfg, output_root), ""))
        except Exception as err:  # child failures must not sink the sweep
            results.append(SweepResult(path, None, f"{type(err).__name__}: {err}"))
    return results


# the summary's columns that copy the manifest's derived numbers, blank where it has none
_SUMMARY_EXTRA = (
    "c_v", "min_density", "certified_bound", "certificate_tightness", "density_bound_ratio",
    *(f"growth.p{p}" for p in GROWTH_EXPONENTS),
)


def report(manifest_paths, out_path: Path | str) -> Path:
    """Aggregate manifests into one plot-ready summary CSV (one row per run).

    An unreadable or malformed manifest raises OSError or ValueError.
    """
    rows = [
        ("run", "preset", "gamma", "aborted", "audit_total", "audit_failures", "audit_pass_rate", *_SUMMARY_EXTRA)
    ]
    for path in manifest_paths:
        try:
            m = RunManifest.from_json(Path(path).read_text())
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        pass_rate = 1.0 if m.audit_total == 0 else 1.0 - m.audit_failures / m.audit_total
        rows.append(
            (Path(m.directory).name, m.preset, m.gamma, m.aborted, m.audit_total, m.audit_failures, pass_rate)
            + tuple(m.extra.get(key, "") for key in _SUMMARY_EXTRA)
        )

    out_path = Path(out_path)
    _write_lines(out_path, map(csv_line, rows))
    return out_path
