"""nsklab benchmark: seeded workloads run through ``run_experiment``.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; nsklab is imported from ``src``.
``--workload`` is one of the names in workloads.py, or ``all`` to interleave
every workload in one run (metric names then carry a ``<workload>.``
prefix).  Each repetition is a fresh process (child.py).  A run first times
``SETUP_SAMPLES`` set-up-only processes per workload, then repeats the
workload while the next repetition is expected to end within ``--seconds``,
with at least ``MIN_REPS`` repetitions, and reports medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced repetition and reports the per-layer metrics of the
traced ones, plus ``trace.overhead_s`` (traced minus untraced ``run_s``).

Every repetition is checked: exit code 0 and no audit failure, every file
the manifest lists exists, ``series.csv`` and ``audits.csv`` are
byte-identical across the repetitions of the run, and the final row of
``series.csv`` matches reference.json within its relative tolerance.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any check
failed.  Outputs, spans and a result.json with the environment record of
the latest run are left under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from record_reference import final_row  # noqa: E402
from spans import AUDITS, PROBES, layer_metrics  # noqa: E402
from workloads import WORKLOADS, rng_seed  # noqa: E402

SETUP_SAMPLES = 5
MIN_REPS = 2
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "%"),
)

# (name, unit, better)
PER_LAYER = (
    ("fft.calls_per_step", "count", "lower"),
    ("fft.points_per_step", "count", "lower"),
    ("fft.bytes_per_step", "B", "lower"),
    ("fft.busy_s", "s", "lower"),
    ("fft.share", "ratio", "lower"),
    ("solver.steps", "count", "higher"),
    ("solver.step.busy_s", "s", "lower"),
    ("solver.step_ms.p50", "ms", "lower"),
    ("solver.step_ms.tail", "ms", "lower"),
    ("solver.step_ms.tail_pct", "%", "higher"),
    ("solver.step.fft_calls", "count", "lower"),
    ("solver.run.other_s", "s", "lower"),
    ("solver.formulation_changes_per_step", "count", "lower"),
    ("probes.busy_s", "s", "lower"),
    *((f"probes.{p}.busy_s", "s", "lower") for p in PROBES),
    ("probes.fft_calls_per_step", "count", "lower"),
    ("estimates.energy.calls_per_step", "count", "lower"),
    ("audits.busy_s", "s", "lower"),
    *((f"audits.{a}.busy_s", "s", "lower") for a in AUDITS),
    ("audits.rows", "count", "higher"),
    ("audits.rows_failed", "count", "lower"),
    ("audits.states_checked", "count", "higher"),
    ("degiorgi.certificate.busy_s", "s", "lower"),
    ("degiorgi.certificate.windows", "count", "lower"),
    ("experiment.io.busy_s", "s", "lower"),
    ("experiment.io.bytes", "B", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.parse_s", "s", "lower"),
    ("setup.grid_s", "s", "lower"),
    ("setup.preset_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

SETUP_PARTS = ("setup.import_s", "setup.parse_s", "setup.grid_s", "setup.preset_s")


class Failure(Exception):
    pass


def environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
    }


class WorkloadRun:
    """The repetitions of one workload within a benchmark run."""

    def __init__(self, name: str, seed: int, base: Path, reference: dict):
        self.name = name
        self.dir = base / name
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.cfg"
        self.config.write_text(WORKLOADS[name].config_text(seed))
        values = reference["values"][name]
        self.reference = values.get(str(rng_seed(seed)), values.get("any"))
        self.rtol = reference["rtol"]
        self.first_bytes = None
        self.attempted = 0
        self.failed = 0
        self.setups: list[dict] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []

    def _spawn(self, *flags: str) -> dict:
        outdir = self.dir / f"rep{self.attempted}"
        result_path = self.dir / f"rep{self.attempted}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(self.config), str(outdir), str(result_path), *flags],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise Failure(f"child exited {proc.returncode}: {tail[0]}")
        result = json.loads(result_path.read_text())
        result["outdir"] = str(outdir)
        return result

    def attempt(self, *flags: str) -> dict | None:
        self.attempted += 1
        try:
            result = self._spawn(*flags)
            if "--setup-only" not in flags:
                self.check(result)
            return result
        except (Failure, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as err:
            self.failed += 1
            print(f"FAIL {self.name} attempt {self.attempted}: {err}", file=sys.stderr)
            return None

    def check(self, result: dict) -> None:
        manifest_path = Path(result["manifest"])
        m = json.loads(manifest_path.read_text())
        if m["exit_code"] != 0 or m["audit_failures"] != 0 or m["aborted"]:
            raise Failure(
                f"exit_code={m['exit_code']} audit_failures={m['audit_failures']} aborted={m['aborted']}"
            )
        outdir = manifest_path.parent
        missing = [f for f in m["files"] if not (outdir / f).is_file()]
        if missing:
            raise Failure(f"manifest lists missing files {missing}")
        produced = tuple((outdir / f).read_bytes() for f in ("series.csv", "audits.csv"))
        if self.first_bytes is None:
            self.first_bytes = produced
        elif produced != self.first_bytes:
            raise Failure("series.csv/audits.csv differ from the run's first repetition")
        series = produced[0].decode()
        final = final_row(series)
        if set(final) != set(self.reference):
            raise Failure(f"series columns {sorted(final)} differ from the reference")
        for key, ref in self.reference.items():
            if not math.isclose(final[key], ref, rel_tol=self.rtol):
                raise Failure(f"final {key} = {final[key]!r}, reference {ref!r}")
        result["n_samples"] = len(series.strip().splitlines()) - 1
        result["outputs"] = str(outdir)

    def setup(self) -> None:
        result = self.attempt("--setup-only")
        if result is not None:
            self.setups.append(result)

    def rep(self, trace: bool) -> None:
        result = self.attempt(*(("--trace",) if trace else ()))
        if result is not None:
            (self.traced if trace else self.untraced).append(result)

    def layer_metrics(self) -> dict[str, float]:
        rows = []
        for r in self.traced:
            outdir = Path(r["outputs"])
            spans = json.loads((Path(r["outdir"]) / "spans.json").read_text())
            row = layer_metrics(spans, r["n_samples"])
            audit_lines = (outdir / "audits.csv").read_text().strip().splitlines()[1:]
            row["audits.rows"] = float(len(audit_lines))
            row["audits.rows_failed"] = float(sum(line.split(",")[5] != "true" for line in audit_lines))
            cert = outdir / "certificate.csv"
            row["degiorgi.certificate.windows"] = (
                float(len(cert.read_text().strip().splitlines()) - 1) if cert.exists() else 0.0
            )
            row["experiment.io.bytes"] = float(sum(p.stat().st_size for p in outdir.iterdir()))
            rows.append(row)
        out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        samples = self.setups + self.untraced + self.traced
        for k in SETUP_PARTS:
            out[k] = statistics.median(s[k] for s in samples)
        out["trace.overhead_s"] = statistics.median(r["run_s"] for r in self.traced) - statistics.median(
            r["run_s"] for r in self.untraced
        )
        return out

    def end_to_end(self) -> dict[str, float]:
        reps = self.untraced
        return {
            "run_s": statistics.median(r["run_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "setup_s": statistics.median(s["setup_s"] for s in self.setups + reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "success_rate": 100.0 * (1.0 - self.failed / self.attempted),
        }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps the
    # running child instead of leaving it orphaned
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nsklab" / "__init__.py").is_file():
        print(f"error: no nsklab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    env = environment()
    # only the latest run is kept: 3D snapshots would otherwise pile up
    base = ROOT / ".bench_out"
    shutil.rmtree(base, ignore_errors=True)
    runs = [WorkloadRun(n, args.seed, base, reference) for n in names]

    t_start = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        for w in runs:
            w.setup()
    rounds: list[float] = []
    while True:
        t_round = time.perf_counter()
        for w in runs:
            order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                w.rep(traced)
        rounds.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t_start
        # trace runs already pair a traced with an untraced repetition
        if len(rounds) >= (1 if trace else MIN_REPS) and elapsed + statistics.median(rounds) > args.seconds:
            break
        if any(w.failed for w in runs):
            break

    env["numpy"] = next((s["numpy"] for w in runs for s in w.setups), None)
    print("# env " + json.dumps(env))
    attempted = sum(w.attempted for w in runs)
    failed = sum(w.failed for w in runs)
    metrics: dict[str, dict] = {}
    record: dict = {"env": env, "args": vars(args), "workloads": {}}
    units = {n: u for n, u, _ in PER_LAYER} if trace else dict(END_TO_END)
    for w in runs:
        values = {}
        if w.untraced and (w.traced or not trace):
            values = w.layer_metrics() if trace else w.end_to_end()
        record["workloads"][w.name] = {
            "metrics": values,
            "reps": {"setup": w.setups, "untraced": w.untraced, "traced": w.traced},
        }
        prefix = f"{w.name}." if len(runs) > 1 else ""
        print(f"# {w.name}: {len(w.untraced)} untraced, {len(w.traced)} traced repetitions")
        for name, unit in units.items():
            if name in values:
                print(f"{prefix}{name} = {values[name]:.6g} {unit}")
                metrics[prefix + name] = {"value": values[name], "unit": unit}
    (base / "result.json").write_text(json.dumps(record, indent=1))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
