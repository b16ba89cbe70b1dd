"""One repetition of a benchmark workload, in the fresh process that runs it.

    python3 perfbench/child.py CONFIG OUTDIR RESULT [--setup-only] [--trace]

Times the set-up a user pays (importing nsklab, ``parse_config``,
``make_grid``, ``make_preset`` and, for effective runs, ``to_effective``),
then ``run_experiment`` on the parsed config, writing its outputs under
OUTDIR.  The timings go to RESULT as JSON.  With ``--trace`` the layer
boundaries are wrapped (see spans.py) after set-up and the spans are written
to OUTDIR/spans.json.  ``nsklab`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def run_once(config_path: Path, outdir: Path, setup_only: bool = False, trace: bool = False) -> dict:
    t0 = time.perf_counter()
    import nsklab  # noqa: F401  (the import is part of set-up)
    from nsklab.config import parse_config
    from nsklab.experiment import run_experiment
    from nsklab.solver import make_preset, to_effective

    t_import = time.perf_counter()
    cfg = parse_config(config_path.read_text())
    t_parse = time.perf_counter()
    grid = cfg.make_grid()
    t_grid = time.perf_counter()
    state = make_preset(cfg.preset_name, grid, cfg.preset_params, seed=cfg.seed)
    if cfg.formulation == "effective":
        state = to_effective(state)
    t_preset = time.perf_counter()

    import numpy

    result = {
        "setup_s": t_preset - t0,
        "setup.import_s": t_import - t0,
        "setup.parse_s": t_parse - t_import,
        "setup.grid_s": t_grid - t_parse,
        "setup.preset_s": t_preset - t_grid,
        "numpy": numpy.__version__,
    }
    if setup_only:
        return result

    tracer = undo = None
    if trace:
        import spans

        tracer = spans.Tracer()
        undo = spans.install(tracer)
    try:
        c0 = time.process_time()
        w0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("experiment.run_experiment"):
                manifest = run_experiment(cfg, outdir)
        else:
            manifest = run_experiment(cfg, outdir)
        result["run_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
    finally:
        if undo is not None:
            undo()
    result["manifest"] = str(Path(manifest.directory) / "manifest.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        (outdir / "spans.json").write_text(json.dumps(tracer.dump()))
    return result


def main(argv: list[str]) -> int:
    config, outdir, result_path = (Path(a) for a in argv[:3])
    flags = set(argv[3:])
    result = run_once(config, outdir, "--setup-only" in flags, "--trace" in flags)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
