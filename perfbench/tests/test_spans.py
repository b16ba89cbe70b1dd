"""Tests of the benchmark's tracing: span arithmetic, the transform counter,
and that every wrapped layer boundary fires on the workload meant for it.

    python3 -m pytest perfbench/tests
"""

import json
import pathlib
from pathlib import Path

import numpy as np
import pytest

import spans
from child import run_once
from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent=None, fft_calls=0, **attrs):
    return {
        "name": name, "start": start, "end": end, "parent": parent,
        "fft_calls": fft_calls, "fft_points": 0, "fft_bytes": 0, "fft_s": 0.0, "attrs": attrs,
    }


def test_self_time_subtracts_what_children_cover():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 5.0, 7.0, parent=0),
        _span("b.x", 5.5, 6.5, parent=3),
        _span("b.y", 6.0, 7.5, parent=3),  # overlaps its sibling and outlives its parent
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 0.5, 1.0, 1.5])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    pct, value = spans.tail([float(i) for i in range(1, 501)])
    assert pct == 98.0
    assert value == 490.0  # 491..500 lie beyond it
    assert spans.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_layer_metrics_on_hand_built_run():
    tree = [
        _span("experiment.run_experiment", 0.0, 10.0, fft_calls=1),
        _span("solver.run", 1.0, 9.0, parent=0),
        _span("solver.step", 1.0, 3.0, parent=1, fft_calls=24),
        _span("probe.energy.total", 3.0, 4.0, parent=1),
        _span("estimates.energy", 3.0, 3.5, parent=3, fft_calls=5),
        _span("formulation.from_effective", 3.1, 3.2, parent=4, fft_calls=3),
        _span("solver.step", 4.0, 7.0, parent=1, fft_calls=24),
        _span("audit.jungel", 9.0, 9.5, parent=0, states=3),
        _span("io.series_csv", 9.5, 9.8, parent=0),
        _span("io.write_text", 9.6, 9.7, parent=8),
    ]
    m = spans.layer_metrics(tree, n_samples=3)
    assert m["solver.steps"] == 2
    assert m["solver.step.busy_s"] == pytest.approx(5.0)
    assert m["solver.step.fft_calls"] == 24
    assert m["fft.calls_per_step"] == pytest.approx(57 / 2)
    assert m["solver.run.other_s"] == pytest.approx(8.0 - 2.0 - 1.0 - 3.0)
    assert m["solver.formulation_changes_per_step"] == 0.5
    assert m["probes.busy_s"] == pytest.approx(1.0)
    assert m["probes.energy.total.busy_s"] == pytest.approx(1.0)
    assert m["probes.fft_calls_per_step"] == pytest.approx(8 / 3)
    assert m["estimates.energy.calls_per_step"] == pytest.approx(1 / 3)
    assert m["audits.jungel.busy_s"] == pytest.approx(0.5)
    assert m["audits.states_checked"] == 3
    assert m["experiment.io.busy_s"] == pytest.approx(0.3)  # nested write counted once


def test_fft_counter_counts_every_entry_point_and_its_points():
    tracer = spans.Tracer()
    x = np.random.default_rng(0).standard_normal((8, 6))
    with tracer.span("root") as root:
        for name in spans.FFT_FUNCTIONS:
            fn = tracer.count_fft(getattr(np.fft, name))
            fn(x[0] if name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft") else x)
    assert root.fft_calls == len(spans.FFT_FUNCTIONS) == 14
    # 1d: fft, ifft, rfft, ihfft see 6 points; irfft and hfft return 10 real
    # points from 6 coefficients.  2d/nd: c2c and r2c see 48; c2r return 8x10.
    assert root.fft_points == 4 * 6 + 2 * 10 + 6 * 48 + 2 * 80
    outside = tracer.count_fft(np.fft.fftn)
    outside(x)  # no span open: not counted
    assert root.fft_calls == 14


def test_install_patches_and_restores_every_boundary():
    from nsklab import estimates, experiment, solver

    before = (np.fft.rfftn, solver.step, experiment.run, estimates.energy, pathlib.Path.write_text)
    undo = spans.install(spans.Tracer())
    try:
        assert np.fft.rfftn is not before[0]
        assert solver.step is not before[1]
    finally:
        undo()
    after = (np.fft.rfftn, solver.step, experiment.run, estimates.energy, pathlib.Path.write_text)
    assert all(a is b for a, b in zip(before, after))


def test_exercised_spans_cover_every_probe_and_audit_metric():
    exercised = set().union(*(w.exercises for w in WORKLOADS.values()))
    for p in spans.PROBES:
        assert f"probe.{p}" in exercised
    for a in spans.AUDITS:
        assert f"audit.{a}" in exercised


# transforms per step of the untouched steppers, by (dim, formulation)
BASELINE_FFT_CALLS = {"demo": 24, "vacuum-2d": 24, "effective-3d": 37, "primitive-3d": 58}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_span_fires_on_its_workload(name, tmp_path):
    w = WORKLOADS[name]
    config = tmp_path / "config.cfg"
    config.write_text(w.config_text(seed=0, n_steps=2))
    result = run_once(config, tmp_path / "run", trace=True)
    tree = json.loads((tmp_path / "run" / "spans.json").read_text())
    fired = {s["name"] for s in tree}
    assert set(w.exercises) <= fired, sorted(set(w.exercises) - fired)
    m = spans.layer_metrics(tree, n_samples=3)
    assert m["solver.steps"] == 2
    assert m["solver.step.fft_calls"] == BASELINE_FFT_CALLS[name]
    assert m["fft.calls_per_step"] > m["solver.step.fft_calls"]
    assert m["experiment.io.busy_s"] > 0
    assert m["audits.states_checked"] >= 2
    assert result["run_s"] > 0


def test_benchmark_json_names_the_harness_metrics_and_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
