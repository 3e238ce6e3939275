"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, pipeline
from perfbench.tracing import (LAYER_NAMES, LAYERS, Tracer, _wrap, entry_points,
                               installed)
from repro.analysis.figures import fig8_to_11_study
from repro.exec import Runner

ROOT = Path(__file__).resolve().parents[2]
LAYER = {name: index for index, name in enumerate(LAYER_NAMES, 1)}


def canonical(report):
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def pins():
    return checks.load_pins()


# -- span arithmetic ----------------------------------------------------------

def test_self_time_on_nested_and_reentrant_spans():
    ticks = iter([0, 10, 15, 20, 26, 30, 40, 45, 50, 60])
    tracer = Tracer(clock=lambda: next(ticks))
    mem = _wrap(tracer, LAYER["mem"], lambda: None)
    runtime_inner = _wrap(tracer, LAYER["runtime"], mem)   # re-entry
    cache = _wrap(tracer, LAYER["cache"], runtime_inner)
    runtime = _wrap(tracer, LAYER["runtime"], cache)

    tracer.begin_trace("probe")                  # root opens at 0
    runtime()       # runtime 10-40 > cache 15-30 > (runtime) > mem 20-26
    mem()           # mem 45-50
    summary = tracer.end_trace()                 # root closes at 60

    assert summary["wall_ns"] == 60
    self_ns = summary["self_ns"]
    assert self_ns["sim"] == 60 - 30 - 5
    assert self_ns["runtime"] == 30 - 15
    assert self_ns["cache"] == 15 - 6
    assert self_ns["mem"] == 6 + 5
    assert sum(self_ns.values()) == 60
    assert summary["calls"]["runtime"] == 1      # re-entry counts once
    assert summary["calls"]["cache"] == 1
    assert summary["calls"]["mem"] == 2
    names = {span[1]: span[3] for span in tracer.spans}
    nested_mem = next(s for s in tracer.spans
                      if s[3] == "mem" and s[4] == 20)
    assert names[nested_mem[2]] == "cache"
    assert {s[0] for s in tracer.spans} == {1}
    assert summary["spans_dropped"] == 0


def test_calls_outside_a_trace_open_no_span():
    tracer = Tracer(clock=lambda: 0)
    _wrap(tracer, LAYER["obs"], lambda: None)()
    assert tracer.calls == [0] * len(tracer.calls)
    assert tracer.spans == []


def test_span_list_is_capped_but_totals_are_not():
    clock = iter(range(1000))
    tracer = Tracer(clock=lambda: next(clock), spans_per_trace=3)
    leaf = _wrap(tracer, LAYER["crypto"], lambda: None)
    tracer.begin_trace("capped")
    for _ in range(10):
        leaf()
    summary = tracer.end_trace()
    assert summary["calls"]["crypto"] == 10
    assert summary["spans_dropped"] == 7
    assert len(tracer.spans) == 4 and tracer.spans[-1][3] == "sim"
    assert sum(summary["self_ns"].values()) == summary["wall_ns"]


def test_layer_self_times_sum_to_traced_wall_per_experiment(pins):
    experiments = pipeline.prepare("spec-sweep", pipeline.DEFAULT_SEED)[:2]
    tracer = Tracer()
    with installed(tracer):
        for experiment in experiments:
            tracer.begin_trace(experiment.name)
            report = pipeline.run_experiment(experiment)
            tracer.end_trace()
            # Tracing must not perturb the simulation.
            assert checks.check_report(
                report, pins["spec-sweep"][experiment.name]) == []
    for summary in tracer.traces:
        assert sum(summary["self_ns"].values()) == summary["wall_ns"]
        calls = summary["calls"]
        for layer in ("runtime", "kernel", "cpu", "cache", "counter_cache",
                      "core", "mem", "obs"):
            assert calls[layer] > 0, layer
        assert calls["crypto"] == 0          # timing-only config


def test_wrapped_methods_are_restored():
    points = entry_points()
    listed = {(cls_name, method) for _, targets in LAYERS
              for _, cls_name, methods in targets for method in methods}
    found = {(klass.__name__, method) for _, klass, method in points}
    assert listed <= found
    before = {(klass, method): vars(klass)[method]
              for _, klass, method in points}
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            for (klass, method), original in before.items():
                assert vars(klass)[method] is not original
            raise RuntimeError("experiment failed mid-trace")
    for (klass, method), original in before.items():
        assert vars(klass)[method] is original


# -- output checks ------------------------------------------------------------

def test_check_fails_on_perturbed_report(pins):
    experiment = pipeline.prepare("spec-sweep", pipeline.DEFAULT_SEED)[0]
    report = pipeline.run_experiment(experiment)
    pinned = pins["spec-sweep"][experiment.name]
    assert checks.check_report(report, pinned) == []

    nvm = copy.deepcopy(report)
    nvm.metrics["mem.nvm.reads"]["value"] += 1
    problems = checks.check_report(nvm, pinned)
    assert any(p.startswith("mem.nvm.reads") for p in problems)
    assert any(p.startswith("digest") for p in problems)

    l3 = copy.deepcopy(report)
    l3.metrics["cache.l3.hits"]["value"] += 1
    assert any("cache.l3 accesses" in p
               for p in checks.identity_violations(l3.metrics))

    ipc = copy.deepcopy(report)
    ipc.ipc += 1e-9
    assert [p for p in checks.check_report(ipc, pinned)
            if p.startswith("digest")]
    assert checks.identity_violations(ipc.metrics) == []


def test_pins_cover_every_experiment(pins):
    for workload in pipeline.WORKLOADS:
        names = [e.name for e in
                 pipeline.prepare(workload, pipeline.DEFAULT_SEED)]
        assert sorted(names) == sorted(pins[workload])


# -- seeds and pipeline equivalence --------------------------------------------

def test_default_seed_matches_the_figure_pipeline():
    for workload, kwargs in (
            ("spec-sweep", {"benchmarks": pipeline.SPEC_MODELS,
                            "scale": pipeline.SPEC_SCALE,
                            "cores": pipeline.SPEC_CORES}),
            ("graph-sweep", {"benchmarks": pipeline.GRAPH_APPS,
                             "powergraph_nodes": pipeline.GRAPH_NODES})):
        ours = [pipeline.run_experiment(e) for e in
                pipeline.prepare(workload, pipeline.DEFAULT_SEED)]
        study = fig8_to_11_study(runner=Runner(jobs=1, use_cache=False),
                                 **kwargs)
        figures = [r for result in study
                   for r in (result.baseline, result.shredder)]
        assert [canonical(r) for r in ours] == \
            [canonical(r) for r in figures], workload


def test_other_seed_changes_inputs_deterministically(pins):
    seed = pipeline.DEFAULT_SEED + 1
    for workload in ("spec-sweep", "graph-sweep"):
        experiments = pipeline.prepare(workload, seed)[:2]
        first = [checks.report_digest(pipeline.run_experiment(e))
                 for e in experiments]
        again = [checks.report_digest(pipeline.run_experiment(e))
                 for e in experiments]
        assert first == again
        assert all(digest != pins[workload][e.name]
                   for digest, e in zip(first, experiments))

    graph = pipeline.graph_input.__wrapped__
    assert graph(50, seed).edges == graph(50, seed).edges
    assert graph(50, seed).edges != graph(50, pipeline.DEFAULT_SEED).edges
    batch = pipeline.ctrl_batch.__wrapped__
    assert list(batch(500, 64, seed, 4096, 64).addresses) == \
        list(batch(500, 64, seed, 4096, 64).addresses)
    assert list(batch(500, 64, seed, 4096, 64).addresses) != \
        list(batch(500, 64, pipeline.DEFAULT_SEED, 4096, 64).addresses)


# -- the command line -------------------------------------------------------------

def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ctrl-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
