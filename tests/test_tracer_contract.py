"""The benchmark's tracer still traces the program.

``perfbench/tests`` is not part of this suite, so a change to the program
that breaks ``perfbench/run.py --trace 1`` would go unseen here.  Each
benchmark workload runs traced for two steps through ``perfbench/child.py``,
as the benchmark runs it: the run completes, ``solver.step`` fires once per
step and every configured audit's span fires.  No transform count is pinned.
"""

import json
import sys
from pathlib import Path

import pytest

from nsklab.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from child import run_once  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_traced_run_completes_and_fires_its_spans(name, tmp_path):
    text = WORKLOADS[name].config_text(seed=0, n_steps=2)
    config = tmp_path / "config.cfg"
    config.write_text(text)
    result = run_once(config, tmp_path / "run", trace=True)
    manifest = json.loads(Path(result["manifest"]).read_text())
    assert not manifest["aborted"] and result["run_s"] > 0
    fired = [span["name"] for span in json.loads((tmp_path / "run" / "spans.json").read_text())]
    assert fired.count("solver.step") == 2
    audits = {f"audit.{audit}" for audit in parse_config(text).audit_names}
    assert audits and audits <= set(fired), sorted(audits - set(fired))
