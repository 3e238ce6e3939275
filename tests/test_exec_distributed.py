"""The distributed path: the experiment cluster run on one machine.

Every distributed run goes through the cluster dispatcher. These cases
drive it the way ``--spawn-local`` does, through ``local_cluster``: a
dispatcher on a background thread plus forked registered workers.
Workloads registered here are inherited by the forked workers — the
fault injection below (crashes, sleeps, flaky failures) rides on that.
"""

import json
import os
import threading
import time

import pytest

from repro.analysis.figures import fig8_to_11_study
from repro.cli import _runner_context, build_parser
from repro.errors import BackendError, ExperimentError
from repro.exec import (Experiment, ResultCache, Runner, experiment_pair,
                        local_cluster, register_workload, spec_experiment)


@register_workload("dist-napper")
def _napper(system, params):
    """Sleep, so batches take long enough to inject faults into."""
    time.sleep(float(params.get("seconds", 0.05)))


@register_workload("dist-flaky")
def _flaky(system, params):
    """Fail until a marker file exists; the first attempt plants it."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        raise RuntimeError("transient failure, retry me")


@register_workload("dist-crasher")
def _crasher(system, params):
    """Kill the whole worker process mid-task until the marker exists."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        os._exit(17)


def canonical(reports):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


def nap_batch(count, seconds=0.15):
    return [Experiment("dist-napper", params={"seconds": seconds, "i": i},
                       name=f"nap-{i}") for i in range(count)]


class TestDistributedDeterminism:
    def test_small_batch_matches_serial_byte_for_byte(self):
        batch = []
        for name in ("GCC", "H264"):
            batch.extend(experiment_pair(
                spec_experiment(name, cores=1, scale=0.15)))
        serial = Runner(use_cache=False).run(batch)
        with local_cluster(2) as cluster:
            distributed = Runner(backend=cluster.backend,
                                 use_cache=False).run(batch)
        assert canonical(distributed) == canonical(serial)

    def test_fig8_study_acceptance(self, tmp_path, monkeypatch):
        """A fig8-11 study over ``--spawn-local 2`` is byte-identical to
        the serial backend."""
        kwargs = dict(benchmarks=["GCC", "H264"], scale=0.15, cores=1)
        serial = fig8_to_11_study(
            runner=Runner(cache=ResultCache(tmp_path / "serial")), **kwargs)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli"))
        args = build_parser().parse_args(
            ["figure", "fig8", "--spawn-local", "2"])
        with _runner_context(args) as runner:
            assert runner.backend.describe().startswith("cluster(")
            distributed = fig8_to_11_study(runner=runner, **kwargs)
        assert canonical(serial) == canonical(distributed)

    def test_results_cached_like_any_backend(self, tmp_path):
        cache = ResultCache(tmp_path)
        batch = nap_batch(3, seconds=0.01)
        with local_cluster(2) as cluster:
            Runner(backend=cluster.backend, cache=cache).run(batch)
        assert len(cache) == 3
        # Warm rerun needs no workers at all.
        events = []
        Runner(cache=ResultCache(tmp_path), progress=events.append).run(batch)
        assert {event.source for event in events} == {"cache"}


class TestFaultTolerance:
    def test_worker_killed_mid_batch_requeues(self):
        """Kill one of two workers mid-batch; the batch still completes
        and the re-queue surfaces as a retry progress event."""
        batch = nap_batch(8)
        events = []
        with local_cluster(2, task_timeout=60) as cluster:
            runner = Runner(backend=cluster.backend, use_cache=False,
                            progress=events.append)
            killer = threading.Timer(0.25, cluster.workers[0].terminate)
            killer.start()
            reports = runner.run(batch)
            killer.join()
        assert len(reports) == 8
        assert [r.name for r in reports] == [f"nap-{i}" for i in range(8)]
        retries = [e for e in events if e.source == "retry"]
        assert retries, "the killed worker's tasks must be re-queued"
        completions = [e for e in events if e.source == "worker"]
        assert len(completions) == 8

    def test_worker_crash_mid_task_retries_elsewhere(self, tmp_path):
        """os._exit inside the executor: the connection dies mid-task,
        the task is re-queued, and the surviving worker finishes it."""
        marker = str(tmp_path / "crashed-once")
        batch = [Experiment("dist-crasher", params={"marker": marker},
                            name="kamikaze")]
        events = []
        with local_cluster(2, task_timeout=60) as cluster:
            reports = Runner(backend=cluster.backend, use_cache=False,
                             progress=events.append).run(batch)
        assert len(reports) == 1
        assert os.path.exists(marker)
        assert [e.source for e in events] == ["retry", "worker"]

    def test_retry_then_succeed(self, tmp_path):
        """An executor exception is an error reply: retried until it
        succeeds, visible as a retry progress event."""
        marker = str(tmp_path / "flaked-once")
        batch = [Experiment("dist-flaky", params={"marker": marker},
                            name="flaky-one")]
        events = []
        with local_cluster(1, task_timeout=60) as cluster:
            reports = Runner(backend=cluster.backend, use_cache=False,
                             progress=events.append).run(batch)
        assert len(reports) == 1
        retries = [e for e in events if e.source == "retry"]
        assert len(retries) == 1
        assert retries[0].label == "flaky-one"
        assert events[-1].source == "worker"

    def test_slow_worker_hits_timeout_then_exhausts(self):
        """A task slower than the per-task timeout burns its retry
        budget and surfaces an ExperimentError naming the experiment.

        Each retry really re-runs the task once the worker is free, so
        the task is kept short: four 1 s attempts (the default three
        retries), each cut at 0.3 s.
        """
        batch = [Experiment("dist-napper", params={"seconds": 1.0},
                            name="slowpoke")]
        started = time.monotonic()
        with local_cluster(1, task_timeout=0.3) as cluster:
            with pytest.raises(ExperimentError,
                               match=r"slowpoke.*4 attempts.*0\.3s"):
                Runner(backend=cluster.backend, use_cache=False).run(batch)
            timeouts = cluster.server.dispatcher.metrics.snapshot()[
                "exec.cluster.timeouts"]["value"]
        assert timeouts == 4
        assert time.monotonic() - started < 20

    def test_retries_exhausted_names_the_experiment(self, tmp_path):
        """A deterministic failure exhausts max_retries and the error
        carries the experiment label and attempt count."""
        batch = [Experiment("no-such-workload-kind", name="doomed")]
        with local_cluster(1, task_timeout=30) as cluster:
            with pytest.raises(BackendError, match=r"doomed.*4 attempts"):
                Runner(backend=cluster.backend, use_cache=False).run(batch)

    def test_all_workers_dead_fails_the_batch(self):
        """Every local worker gone with work outstanding: the batch
        fails within seconds instead of waiting out a timeout."""
        with pytest.raises(BackendError, match="2 local workers exited"):
            with local_cluster(2) as cluster:
                for worker in cluster.workers:
                    worker.terminate()
                started = time.monotonic()
                try:
                    Runner(backend=cluster.backend,
                           use_cache=False).run(nap_batch(3))
                finally:
                    elapsed = time.monotonic() - started
        assert elapsed < 10


class TestLocalWorkerPool:
    def test_spawn_and_terminate(self):
        with local_cluster(2) as cluster:
            workers = cluster.workers
            assert len({w.process.pid for w in workers}) == 2
            assert all(w.is_alive() for w in workers)
            assert ":" in cluster.server.endpoint
        assert not any(w.is_alive() for w in workers)

    def test_rejects_zero_workers(self):
        with pytest.raises(BackendError):
            with local_cluster(0):
                pass
