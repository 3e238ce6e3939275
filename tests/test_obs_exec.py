"""Exec-layer telemetry: runner counters, the worker's task executor,
worker-side caching, and the distributed-equals-serial invariant."""

import json

import pytest

from repro.exec import (Experiment, ResultCache, Runner, local_cluster,
                        spec_experiment)
from repro.exec.wire import MSG_RESULT, MSG_RUN
from repro.exec.worker import TaskExecutor
from repro.obs import MetricsRegistry


def tiny_experiment(name="GCC", scale=0.1):
    return spec_experiment(name, cores=1, scale=scale)


def sim_metric_items(snapshot):
    """Only the deterministic simulation metrics — exec.* are
    wall-clock and process-local, so excluded from comparisons."""
    return {name: entry for name, entry in snapshot.items()
            if not name.startswith("exec.")}


class TestRunnerMetrics:
    def test_batch_counters(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        experiment = tiny_experiment()
        runner.run([experiment, experiment])
        snapshot = runner.metrics.snapshot()
        assert snapshot["exec.batch.runs"]["value"] == 1
        assert snapshot["exec.batch.experiments"]["value"] == 2
        assert snapshot["exec.batch.unique"]["value"] == 1
        assert snapshot["exec.task.completed"]["value"] == 1
        assert snapshot["exec.cache.misses"]["value"] == 1

    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run([tiny_experiment()])
        runner = Runner(cache=cache)
        runner.run([tiny_experiment()])
        snapshot = runner.metrics.snapshot()
        assert snapshot["exec.cache.hits"]["value"] == 1
        assert snapshot["exec.task.completed"]["value"] == 1

    def test_report_metrics_fold_into_runner_registry(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        reports = runner.run([tiny_experiment("GCC"),
                              tiny_experiment("H264")])
        snapshot = runner.metrics.snapshot()
        expected = sum(r.metrics["mem.ctrl.data_writes"]["value"]
                       for r in reports)
        assert snapshot["mem.ctrl.data_writes"]["value"] == expected

    def test_cached_reports_still_fold_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run([tiny_experiment()])
        runner = Runner(cache=cache)
        reports = runner.run([tiny_experiment()])
        snapshot = runner.metrics.snapshot()
        assert snapshot["mem.ctrl.data_writes"]["value"] \
            == reports[0].metrics["mem.ctrl.data_writes"]["value"]


class TestWorkerWire:
    def test_run_counts_into_the_worker_registry(self):
        executor = TaskExecutor()
        request = {"type": MSG_RUN,
                   "experiment": tiny_experiment().to_dict()}
        reply = executor.run(request)
        assert reply["type"] == MSG_RESULT
        assert "metrics" not in reply
        metrics = executor.metrics.snapshot()
        assert metrics["exec.worker.tasks_served"]["value"] == 1
        assert metrics["exec.worker.task_duration_ns"]["count"] == 1
        # The report document itself is still a loadable SystemReport.
        from repro.sim.system import SystemReport
        report = SystemReport.from_dict(reply["result"])
        assert report.metrics     # sim metrics embedded in the report

    def test_metrics_are_cumulative_across_tasks(self):
        executor = TaskExecutor()
        request = {"type": MSG_RUN,
                   "experiment": tiny_experiment().to_dict()}
        executor.run(request)
        executor.run(request)
        snapshot = executor.metrics.snapshot()
        assert snapshot["exec.worker.tasks_served"]["value"] == 2

    def test_worker_side_cache(self, tmp_path):
        executor = TaskExecutor(cache_dir=tmp_path)
        request = {"type": MSG_RUN,
                   "experiment": tiny_experiment().to_dict()}
        first = executor.run(request)
        second = executor.run(request)
        assert first["result"] == second["result"]
        metrics = executor.metrics.snapshot()
        assert metrics["exec.worker.cache.misses"]["value"] == 1
        assert metrics["exec.worker.cache.hits"]["value"] == 1

    def test_errors_counted_not_fatal(self):
        executor = TaskExecutor()
        reply = executor.run({"type": MSG_RUN,
                              "experiment": Experiment("bogus").to_dict()})
        assert reply["type"] == "error"
        assert executor.metrics.snapshot()["exec.worker.errors"]["value"] == 1


class TestDistributedMetrics:
    def test_merged_sim_totals_match_serial(self, tmp_path):
        batch = [tiny_experiment("GCC"), tiny_experiment("H264")]

        serial = Runner(use_cache=False)
        serial.run([Experiment.from_dict(e.to_dict()) for e in batch])
        serial_snapshot = sim_metric_items(serial.metrics.snapshot())

        registry = MetricsRegistry()
        with local_cluster(2, metrics=registry) as cluster:
            distributed = Runner(backend=cluster.backend, use_cache=False,
                                 metrics=registry)
            distributed.run(batch)
        merged = distributed.metrics.snapshot()

        assert sim_metric_items(merged) == serial_snapshot
        assert json.dumps(sim_metric_items(merged), sort_keys=True) \
            == json.dumps(serial_snapshot, sort_keys=True)
        # The in-process dispatcher counts into the run's registry.
        assert merged["exec.cluster.tasks_completed"]["value"] == 2
