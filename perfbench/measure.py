"""Measurement loops behind ``run.py``: untraced, traced, and the checks.

Imported by ``run.py`` once ``src/`` is on the path.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from perfbench import checks, pipeline, tracing
from repro.analysis.figures import study_summary
from repro.sim import compare_runs

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
PAPER_REFERENCE = ("paper, full 29-workload suite (a subset is not "
                   "expected to match): write savings 48.6 %, read "
                   "speedup 3.3x, IPC gain 6.4 %")


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], cwd=HERE.parent, capture_output=True, text=True,
            timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Checker:
    """Counts attempted and failed experiments across repetitions."""

    def __init__(self, workload: str, seed: int) -> None:
        self.pins = (checks.load_pins()[workload]
                     if seed == pipeline.DEFAULT_SEED else {})
        self.attempted = 0
        self.failed = 0

    def check(self, experiment, report) -> None:
        self.attempted += 1
        if report is None:
            self.failed += 1
            return
        name = experiment.name
        expected = self.pins.get(name)
        problems = checks.check_report(report, expected)
        if name not in self.pins:       # later repetitions must repeat it
            self.pins[name] = checks.report_digest(report)
        if problems:
            self.failed += 1
            print(f"perfbench: {name} failed: {'; '.join(problems)}",
                  file=sys.stderr)


def run_once(experiments, checker, tracer=None):
    """One closed-loop pass over the workload; returns (wall s, reports)."""
    reports = []
    start = time.perf_counter()
    for experiment in experiments:
        if tracer is not None:
            tracer.begin_trace(experiment.name)
        try:
            reports.append(pipeline.run_experiment(experiment))
        except Exception:   # an experiment that raises counts as failed
            traceback.print_exc()
            reports.append(None)
        finally:
            if tracer is not None:
                tracer.end_trace()
    wall = time.perf_counter() - start
    for experiment, report in zip(experiments, reports):
        checker.check(experiment, report)
    return wall, reports


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def sim_metrics(reports):
    """Deterministic simulated counts and ratios, summed over a pass."""
    reports = [r for r in reports if r is not None]

    def total(*names):
        return sum(checks.metric_value(r.metrics, name)
                   for r in reports for name in names)

    return {
        "cache.l1.hit_ratio": (_ratio(total("cache.l1.hits"),
                                      total("cache.l1.hits",
                                            "cache.l1.misses")), "ratio"),
        "cache.l4.miss_ratio": (_ratio(total("cache.l4.misses"),
                                       total("cache.l4.hits",
                                             "cache.l4.misses")), "ratio"),
        "counter_cache.miss_ratio": (_ratio(
            total("cache.counter.misses"),
            total("cache.counter.hits", "cache.counter.misses")), "ratio"),
        "core.zero_fill_ratio": (_ratio(
            total("mem.ctrl.zero_fill_reads"),
            total("mem.ctrl.zero_fill_reads", "mem.ctrl.data_reads")),
            "ratio"),
        "kernel.faults": (total("kernel.faults.minor", "kernel.faults.cow",
                                "kernel.faults.huge"), "count"),
        "mem.nvm.reads": (total("mem.nvm.reads"), "count"),
        "mem.nvm.writes": (total("mem.nvm.writes"), "count"),
        "cpu.ipc": (_ratio(sum(r.instructions for r in reports),
                           sum(r.cycles for r in reports)), "ratio"),
    }


def print_model_outputs(workload, reports):
    """The modelled design's own results (not gated)."""
    if any(report is None for report in reports):
        return
    if workload == "ctrl-stream":
        for report in reports:
            reads, writes = (int(checks.metric_value(report.metrics, name))
                             for name in ("mem.nvm.reads", "mem.nvm.writes"))
            print(f"model: {report.name}: "
                  f"{int(report.extra['stream_accesses'])} accesses, "
                  f"{report.zero_fill_reads} zero-fill reads, "
                  f"{report.shreds} shreds, {reads} NVM reads, "
                  f"{writes} NVM writes")
        return
    results = [compare_runs(reports[i], reports[i + 1],
                            reports[i].name.rsplit("-", 1)[0])
               for i in range(0, len(reports), 2)]
    for result in results:
        row = result.row()
        print(f"model: {row['workload']}: write savings "
              f"{row['write_savings_pct']:.1f} %, read savings "
              f"{row['read_savings_pct']:.1f} %, read speedup "
              f"{row['read_speedup']:.2f}x, relative IPC "
              f"{row['relative_ipc']:.4f}")
    summary = study_summary(results)
    print(f"model: {workload} mean over {len(results)} workloads: write "
          f"savings {summary['avg_write_savings_pct']:.1f} %, read savings "
          f"{summary['avg_read_savings_pct']:.1f} %, read speedup "
          f"{summary['avg_read_speedup']:.2f}x, IPC gain "
          f"{summary['avg_ipc_improvement_pct']:.2f} %")
    print(f"model: {PAPER_REFERENCE}")


def untraced(args, experiments, checker):
    setup_s = measure_setup(args.workload, args.seed)
    walls, first = [], None
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        wall, reports = run_once(experiments, checker)
        walls.append(wall)
        first = first or reports
    wall_s = statistics.median(walls)
    operations = sum(pipeline.sim_operations(r) for r in first
                     if r is not None)
    print_model_outputs(args.workload, first)
    print(f"perfbench: {len(walls)} passes, wall "
          f"{', '.join(f'{w:.3f}' for w in walls)} s; {operations} "
          f"simulated accesses per pass")
    return {
        "wall_s": (wall_s, "s"),
        "sim_accesses_per_s": (operations / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced(args, experiments, checker):
    plain, timed, layers, first = [], [], [], None
    started = time.perf_counter()
    while not timed or time.perf_counter() - started < args.seconds:
        wall, reports = run_once(experiments, checker)
        plain.append(wall)
        first = first or reports
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            wall, _ = run_once(experiments, checker, tracer)
        timed.append(wall)
        layers.append((list(tracer.self_ns), list(tracer.calls)))
    if any(calls != layers[0][1] for _, calls in layers):
        print("perfbench: per-layer call counts differ between passes",
              file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file, {"workload": args.workload, "seed": args.seed,
                             "clock": "perf_counter_ns",
                             "spans_per_trace": tracer.spans_per_trace})
    print(f"perfbench: {len(timed)} traced passes; spans in {span_file}")

    metrics = {}
    for index, name in enumerate(tracer.names):
        self_s = statistics.median(s[index] for s, _ in layers) / 1e9
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name != tracing.ROOT:
            calls = layers[-1][1][index]
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.ns_per_call"] = (_ratio(self_s * 1e9, calls),
                                              "ns")
    metrics["trace.overhead_frac"] = (
        statistics.median(timed) / statistics.median(plain) - 1.0, "ratio")
    metrics.update(sim_metrics(first))
    print_model_outputs(args.workload, first)
    return metrics


def main(args) -> int:
    """Run one workload in the mode ``args.trace`` selects and print the
    result line."""
    experiments = pipeline.prepare(args.workload, args.seed)
    checker = Checker(args.workload, args.seed)
    measure = traced if args.trace else untraced
    metrics = measure(args, experiments, checker)
    print(f"perfbench: {checker.failed} of {checker.attempted} experiments "
          f"failed (failed_frac "
          f"{_ratio(checker.failed, checker.attempted):.4f})")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
