"""Command-line surface: run, sweep, report, audit, selftest.

Exit codes: 0 success, 1 audit failure, 2 usage or config error, 3 solver
abort.  The output root for relative run directories comes from
--output-root or the NSKLAB_OUTPUT_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .experiment import report, run_experiment, sweep
from .fields import FieldError
from .probes import ProbeError
from .solver import SolverError

OUTPUT_ROOT_ENV = "NSKLAB_OUTPUT_ROOT"


def _output_root(args) -> str | None:
    if getattr(args, "output_root", None):
        return args.output_root
    return os.environ.get(OUTPUT_ROOT_ENV)


def _cmd_run(args) -> int:
    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError, ProbeError, FieldError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(cfg, _output_root(args))
    except ConfigError as err:  # an initial state the config's values cannot give
        print(f"config error: {err}", file=sys.stderr)
        return 2
    for w in manifest.warnings:
        print(f"warning: {w}")
    if manifest.aborted:
        print(f"solver aborted at t={manifest.abort_time}: {manifest.abort_reason}")
    print(
        f"run complete: {manifest.directory} "
        f"(audits {manifest.audit_total - manifest.audit_failures}/{manifest.audit_total} passed)"
    )
    return manifest.exit_code


def _cmd_sweep(args) -> int:
    paths: list[Path] = []
    for entry in args.configs:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.cfg")))
        else:
            paths.append(p)
    if not paths:
        print("sweep: no configuration files found", file=sys.stderr)
        return 2
    try:
        results = sweep(paths, _output_root(args))
    except (OSError, ConfigError, ProbeError, FieldError) as err:
        print(f"sweep error: {err}", file=sys.stderr)
        return 2
    worst = 0
    for res in results:
        if res.manifest is None:
            print(f"{res.config_path}: FAILED ({res.error})")
            worst = max(worst, 3)
        else:
            m = res.manifest
            print(f"{res.config_path}: exit {m.exit_code}, {m.directory}")
            worst = max(worst, m.exit_code)
    return worst


def _cmd_report(args) -> int:
    try:
        out = report(args.manifests, args.output)
    except (OSError, ValueError) as err:
        print(f"report error: {err}", file=sys.stderr)
        return 2
    print(f"summary written to {out}")
    return 0


def _cmd_audit(args) -> int:
    from .audits import audit_csv_lines
    from .fields import PositivityError, VectorField, read_snapshot
    from .probes import AUDITS, audit_observer, resolve_audits
    from .solver import FlowState, TrajectoryRecord, Workspace, check_gamma
    import numpy as np

    try:
        check_gamma(args.gamma)
        rho, t = read_snapshot(args.snapshot)
    except (OSError, FieldError) as err:
        print(f"audit error: {err}", file=sys.stderr)
        return 2
    # the field audits of one state, those that need gamma > 1 only where it holds
    names = [n for n in ("jungel", "pi-equivalence", "region-split") if args.gamma > 1 or not AUDITS[n].gamma_above_one]
    ctx = {"gamma": args.gamma}
    try:
        state = FlowState(t, rho, VectorField(rho.grid, np.zeros((rho.grid.dim,) + rho.grid.shape)))
        audit_observer(names, ctx)(Workspace(state), True)
        reports = [r for fn in resolve_audits(names).values() for r in fn(TrajectoryRecord(rho.grid), ctx)]
    except PositivityError as err:  # a snapshot that is not a density
        print(f"audit error: {args.snapshot}: {err}", file=sys.stderr)
        return 2
    for line in audit_csv_lines(reports):
        print(line)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nsklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-root", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute many configs independently")
    p_sweep.add_argument("configs", nargs="+", help="config files or directories of *.cfg")
    p_sweep.add_argument("--output-root", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_rep = sub.add_parser("report", help="aggregate run manifests into a summary CSV")
    p_rep.add_argument("manifests", nargs="+")
    p_rep.add_argument("-o", "--output", default="summary.csv")
    p_rep.set_defaults(fn=_cmd_report)

    p_audit = sub.add_parser("audit", help="one-off field audits on a snapshot")
    p_audit.add_argument("snapshot")
    p_audit.add_argument("--gamma", type=float, required=True)
    p_audit.set_defaults(fn=_cmd_audit)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_self.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
