"""Record reference.json: the final row of series.csv for every workload.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the root of a source checkout.  Seeded workloads are recorded for
each of the ``REFERENCE_SEEDS`` seeds the benchmark maps its seed onto, the
others once (key ``any``).  Re-record only when a change is meant to move
the program's results beyond ``RTOL``, and say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import run_once  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402

# Real transforms and a reordered stepper move results at round-off; 1e-9
# admits that over a 1000-step run and still catches any change of scheme.
RTOL = 1e-9


def final_row(series_csv: str) -> dict[str, float]:
    """The last row of a series.csv text, by column name."""
    lines = series_csv.strip().splitlines()
    return dict(zip(lines[0].split(","), (float(x) for x in lines[-1].split(","))))


def main() -> int:
    scratch = HERE.parent / ".bench_out" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    values: dict[str, dict] = {}
    for w in WORKLOADS.values():
        values[w.name] = {}
        for seed in range(REFERENCE_SEEDS) if w.seeded else (0,):
            run_dir = scratch / f"{w.name}-{seed}"
            run_dir.mkdir(parents=True)
            config = run_dir / "config.cfg"
            config.write_text(w.config_text(seed))
            result = run_once(config, run_dir)
            manifest = json.loads(Path(result["manifest"]).read_text())
            if manifest["exit_code"] != 0:
                print(f"{w.name} seed {seed}: exit code {manifest['exit_code']}", file=sys.stderr)
                return 1
            series = (Path(result["manifest"]).parent / "series.csv").read_text()
            values[w.name][str(seed) if w.seeded else "any"] = final_row(series)
            print(f"{w.name} seed {seed}: {result['run_s']:.2f} s", flush=True)
    (HERE / "reference.json").write_text(json.dumps({"rtol": RTOL, "values": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
