"""Self-tests of the benchmark: metric names, span arithmetic, inputs, checks.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import checks, inputs, layers, run, speed
from perfbench.spans import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Metric names and the metric map


def test_metric_names_and_limits():
    end_to_end = BENCHMARK["end_to_end"]
    per_layer = BENCHMARK["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    names = [entry["name"] for entry in end_to_end + per_layer + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in end_to_end + per_layer:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    for entry in end_to_end:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= end_to_end[0].items()


def test_metric_map_matches_the_benchmark():
    from perfbench.workloads import WORKLOAD_CLASSES

    assert [e["name"] for e in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)
    assert list(METRIC_MAP["per_layer"]) == list(run.benchmark_units("per_layer"))
    figures = set(run.benchmark_units("end_to_end")) | {"ga_generation_ms_p50", "ga_generation_ms_p90"}
    figures |= {cls.rate[0] for cls in WORKLOAD_CLASSES.values()}
    for name, entry in METRIC_MAP["per_layer"].items():
        assert set(entry) == {"layer", "moves", "on", "flat_on", "profile_span"}, name
        assert set(entry["moves"]) <= figures, name
        assert set(entry["on"]) <= set(inputs.WORKLOADS) and set(entry["flat_on"]) <= set(inputs.WORKLOADS)
        assert not set(entry["on"]) & set(entry["flat_on"]), name


# ----------------------------------------------------------------------
# Span arithmetic


def test_self_time_of_a_nested_tree():
    # 0 root [0,100]: children 1 [10,40] and 2 [50,70], 3 [60,80] overlapping
    # 1 has child 4 [15,25]; 4 has child 5 [20,30] that overruns its parent.
    start = [0, 10, 50, 60, 15, 20]
    end = [100, 40, 70, 80, 25, 30]
    parent = [-1, 0, 0, 0, 1, 4]
    assert self_times(start, end, parent) == [40, 20, 20, 20, 5, 10]


def test_tracer_records_nesting_and_restores():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n

    tracer = Tracer()
    original = Layer.__dict__["outer"]
    tracer.patch(Layer, "outer", "outer")
    tracer.patch(Layer, "inner", "inner")
    assert Layer().outer(3) == 4
    tracer.restore()
    assert Layer.__dict__["outer"] is original
    assert list(tracer.parent) == [-1, 0]
    summary = tracer.summary()
    assert summary["outer"].calls == summary["inner"].calls == 1
    outer = summary["outer"]
    assert outer.self_ns == outer.inclusive_ns - summary["inner"].inclusive_ns


def test_tracer_refuses_inherited_methods():
    class Base:
        def process(self):
            return None

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().patch(Child, "process", "process")


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert layers.percentile(values, 90) == 90
    assert layers.percentile(values, 50) == 50
    assert layers.percentile([], 90) == 0.0


# ----------------------------------------------------------------------
# Seeded inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert inputs.workload_inputs(workload, 7) == inputs.workload_inputs(workload, 7)
    assert inputs.workload_inputs(workload, 7) != inputs.workload_inputs(workload, 8)


def test_every_program_seed_derives_from_the_benchmark_seed():
    seeds = json.dumps([inputs.workload_inputs(w, 11) for w in inputs.WORKLOADS])
    assert str(inputs.derive(11, "table2")) in seeds
    assert inputs.derive(11, "a") != inputs.derive(11, "b") != inputs.derive(12, "a")


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        inputs.workload_inputs("nope", 1)


# ----------------------------------------------------------------------
# Output checks reject doctored results


def _cells():
    from repro.eval.table2 import Table2Cell

    return [
        Table2Cell("china", 1, "http", 0.55, 54),
        Table2Cell("iran", 8, "http", 1.0, 100),
        Table2Cell("china", 8, "smtp", 1.0, None),
    ]


def test_table2_check_accepts_and_rejects():
    cells = _cells()
    reference = [checks.cell_key(cell) for cell in cells]
    assert checks.table2_failures(cells, reference) == []
    doctored = _cells()
    doctored[0].measured = 0.70  # 16 points off the paper's 54
    doctored[1].measured = 0.94  # 6 points off a deterministic censor
    assert checks.table2_failures(doctored) == [0, 1]
    drifted = _cells()
    drifted[2].measured = 0.99  # within tolerance, but not what the first pass measured
    assert checks.table2_failures(drifted, reference) == [2]
    assert checks.table2_failures(cells[:2], reference) == [2]


def test_fleet_check_rejects_a_mismatched_record():
    records = [{"flow": i, "outcome": "success"} for i in range(3)]
    reference = [checks.record_text(r) for r in records]
    assert checks.fleet_failures(records, 3, reference) == []
    doctored = [dict(r) for r in records]
    doctored[1]["outcome"] = "reset"
    assert checks.fleet_failures(doctored, 3, reference) == [1]
    assert checks.fleet_failures(records[:2], 3, reference) == [2]
    assert checks.fleet_failures(records + [records[0]], 3, reference) == [0]


def test_search_check_counts_the_operations_of_a_mismatch():
    assert checks.text_failures(["a", "b", "c"], ["a", "b", "c"], [25, 25, 3]) == 0
    assert checks.text_failures(["a", "x", "c"], ["a", "b", "c"], [25, 25, 3]) == 25
    assert checks.text_failures(["a"], ["a", "b"], [25, 25]) == 25


def test_campaign_check_rejects_a_warm_shard_that_executed():
    outputs = {"results": b"r", "cells": [{"rate": 0.5}], "report": b"R"}
    reference = {"results": b"r", "cells": [{"rate": 0.5}], "report": b"R"}
    assert checks.campaign_failures([0, 0, 0], outputs, reference) == []
    assert checks.campaign_failures([0, 4, 0], outputs, reference) == [1]
    assert checks.campaign_failures([0, -1], outputs, reference) == [1]
    changed = dict(outputs, report=b"other")
    assert checks.campaign_failures([0, 0], changed, reference) == [0, 1]
    changed = dict(outputs, cells=[{"rate": 0.6}])
    assert checks.campaign_failures([0, 0], changed, dict(reference, report=None)) == [0, 1]


def test_verdicts_check_passes_against_the_first_and_fail_raising_ones():
    class Doctored:
        name = "doctored"

        def __init__(self):
            self.outputs = iter([["a"], ["a"], ["b"], RuntimeError("boom")])

        def run_pass(self, **_kwargs):
            result = next(self.outputs)
            if isinstance(result, Exception):
                raise result
            return SimpleNamespace(ops=1, result=result)

        def reference(self, output):
            return output.result

        def failures(self, output, reference=None):
            return int(reference is not None and output.result != reference)

        def planned_ops(self):
            return 5

    verdicts = run.Verdicts(Doctored())
    outputs = [verdicts.attempt() for _ in range(4)]
    assert outputs[3] is None
    assert all(output.result is None for output in outputs[:3])
    assert (verdicts.attempted, verdicts.failed, verdicts.raised_passes) == (8, 6, 1)


def test_workload_figures_name_their_units_and_samples():
    passes = [
        SimpleNamespace(outcomes=100, wall=2.0, factor=1.0, extra={"generation_ms": list(range(1, 101))}),
        SimpleNamespace(outcomes=90, wall=1.0, factor=1.0, extra={"generation_ms": list(range(101, 201))}),
        SimpleNamespace(outcomes=50, wall=2.0, factor=0.5, extra={"generation_ms": []}),
    ]
    workload = SimpleNamespace(rate=("flows_per_s", "flows/s"))
    figures = run.workload_figures(workload, passes, attempted=40, failed=2)
    assert figures["flows_per_s"] == (50.0, "flows/s", 3)
    assert figures["failed_frac"] == (0.05, "ratio", 40)
    assert figures["ga_generation_ms_p50"] == (100.5, "ms", 200)
    assert figures["ga_generation_ms_p90"] == (180.0, "ms", 200)
    no_generations = run.workload_figures(workload, passes[2:], attempted=1, failed=0)
    assert set(no_generations) == {"flows_per_s", "failed_frac"}


def test_speed_factor_removes_stolen_time_at_reference_speed():
    start, end = speed.Mark(0, 10.0, 100.0), speed.Mark(5, 11.0, 104.0)
    # 4 host seconds; 1 s stolen over 2 busy CPUs leaves 3.5 s; the loop
    # ran at half the reference speed, so 1.75 reference seconds.
    assert speed.factor(start, end, 2, 2 * speed.REFERENCE_S) == pytest.approx(1.75 / 4)
    # Stolen time is capped.
    capped = speed.factor(speed.Mark(0, 0.0, 100.0), end, 1, speed.REFERENCE_S)
    assert capped == pytest.approx(1 - speed.MAX_STOLEN)
    assert speed.calibrate() > 0


def test_probe_samples_and_stops(tmp_path):
    with speed.Probe(tmp_path / "probe.txt") as probe:
        start = probe.mark()
        deadline = time.monotonic() + 30
        while probe.mark().samples < start.samples + 3 and time.monotonic() < deadline:
            time.sleep(speed.INTERVAL_S)
        end = probe.mark()
    assert probe._process.returncode is not None
    assert end.samples >= start.samples + 3
    assert all(sample.loop > 0 for sample in probe.samples)
    assert probe.loop(start, end) > 0
    assert probe.loop(end, end) == speed.REFERENCE_S
    assert probe.workers_kb(start, end) == 0  # no workers
    assert speed.stolen_seconds(probe.cpus) >= 0


def test_children_peak_sums_live_children_but_the_excluded_one():
    children = [
        subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE)
        for _ in range(2)
    ]
    try:
        deadline = time.monotonic() + 30
        while speed.children_peak_kb(os.getpid(), children[1].pid) == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        one = speed.children_peak_kb(os.getpid(), children[1].pid)
        both = speed.children_peak_kb(os.getpid(), -1)
    finally:
        for child in children:
            child.communicate(b"")
    assert 0 < one < both


def test_layer_metrics_cover_every_per_layer_name():
    from repro.runtime import RunStats

    empty_pass = SimpleNamespace(run_stats=None, extra={})
    values = layers.layer_metrics({}, {}, empty_pass, 1.0, 1.1, {}, RunStats(), (0, 0), [])
    assert list(values) == list(run.benchmark_units("per_layer"))
    assert values["trace.overhead_frac"] == pytest.approx(0.1)


def test_installed_wraps_and_restores_every_layer():
    import importlib

    from perfbench.spans import LAYER_SPANS

    def current():
        return [
            vars(getattr(importlib.import_module(module), cls))[attr]
            for _, module, cls, attr in LAYER_SPANS
        ]

    before = current()
    tracer = Tracer()
    with tracer.installed():
        assert all(now is not then for now, then in zip(current(), before))
    assert current() == before
