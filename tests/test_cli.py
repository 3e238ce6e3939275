"""The command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestDescribe:
    def test_scaled(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "L4 Cache" in out
        assert "Counter Cache" in out

    def test_full(self, capsys):
        assert main(["describe", "--full"]) == 0
        out = capsys.readouterr().out
        assert "8 cores" in out
        assert "16 GB" in out


class TestList:
    def test_lists_workloads(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "GCC" in out and "PAGERANK" in out
        assert out.count("\n") >= 29


class TestCompare:
    def test_spec(self, capsys):
        assert main(["compare", "--benchmark", "HMMER",
                     "--scale", "0.15", "--cores", "1"]) == 0
        out = capsys.readouterr().out
        assert "HMMER" in out
        assert "write_savings_pct" in out

    def test_powergraph(self, capsys):
        assert main(["compare", "--benchmark", "kcore",
                     "--nodes", "200"]) == 0
        assert "KCORE" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["compare", "--benchmark", "NOPE"]) == 2


class TestFigure:
    def test_policies(self, capsys):
        assert main(["figure", "policies"]) == 0
        out = capsys.readouterr().out
        assert "major-reset-minors" in out

    def test_fig8_subset_runs(self, capsys):
        # Tiny scale so the CLI path stays fast in CI.
        assert main(["figure", "fig12", "--scale", "0.1"]) == 0
        assert "miss_rate" in capsys.readouterr().out


class TestCacheSweep:
    def populate(self, directory):
        from repro.exec import ResultCache, spec_experiment
        from repro.sim.system import SystemReport
        cache = ResultCache(directory, salt="cli-test")
        for i in range(3):
            report = SystemReport(name=f"r{i}", shredder=False,
                                  instructions=1, cycles=1.0, ipc=1.0,
                                  memory_reads=0, memory_writes=0)
            cache.put(spec_experiment("GCC", cores=1, scale=0.1 + i * 0.01),
                      report)
        return cache

    def test_sweep_requires_a_bound(self, capsys):
        assert main(["cache", "sweep"]) == 2
        assert "max-bytes" in capsys.readouterr().err

    def test_sweep_with_size_bound(self, tmp_path, capsys):
        cache = self.populate(tmp_path / "c")
        assert len(cache) == 3
        assert main(["cache", "sweep", "--max-bytes", "0",
                     "--dir", str(tmp_path / "c")]) == 0
        assert "swept 3 of 3" in capsys.readouterr().out
        assert len(cache) == 0

    def test_sweep_size_suffixes(self, tmp_path, capsys):
        self.populate(tmp_path / "c")
        assert main(["cache", "sweep", "--max-bytes", "1G",
                     "--dir", str(tmp_path / "c")]) == 0
        assert "swept 0 of 3" in capsys.readouterr().out

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "sweep",
                                       "--max-bytes", "lots"])


class TestWorkerCli:
    def test_serve_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_serve_announces_and_honours_max_tasks(self, capsys):
        """Drive a real serve() through one task over TCP."""
        import re
        import socket
        import threading
        from repro.exec.wire import recv_message, send_message

        codes = {}

        def run_server():
            codes["exit"] = main(["worker", "serve", "--max-tasks", "1"])

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        # Scrape the announced ephemeral port.
        endpoint = None
        for _ in range(100):
            match = re.search(r"listening on ([\d.]+):(\d+)",
                              capsys.readouterr().out)
            if match:
                endpoint = (match.group(1), int(match.group(2)))
                break
            thread.join(timeout=0.05)
        assert endpoint, "server never announced its endpoint"
        with socket.create_connection(endpoint, timeout=10) as conn:
            conn.settimeout(10)
            send_message(conn, {"type": "run", "experiment": "junk"})
            assert recv_message(conn)["type"] == "error"
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes["exit"] == 0

    def test_workers_flag_parsed(self):
        args = build_parser().parse_args(
            ["figure", "fig8", "--workers", "a:1,b:2",
             "--task-timeout", "7"])
        assert args.workers == "a:1,b:2"
        assert args.task_timeout == 7.0

    def test_make_runner_builds_distributed_backend(self):
        from repro.cli import _runner_context
        from repro.exec import DistributedBackend
        args = build_parser().parse_args(
            ["figure", "fig8", "--workers", "a:1, b:2", "--no-cache",
             "--task-timeout", "9"])
        with _runner_context(args) as runner:
            assert isinstance(runner.backend, DistributedBackend)
            assert runner.backend.addresses == [("a", 1), ("b", 2)]
            assert runner.backend.task_timeout == 9.0
            assert runner.cache is None

    def test_distributed_failure_is_a_clean_exit(self, tmp_path, capsys,
                                                 monkeypatch):
        """A dead endpoint surfaces as exit code 1, not a traceback."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        code = main(["compare", "--benchmark", "GCC", "--scale", "0.1",
                     "--cores", "1", "--workers", "127.0.0.1:1",
                     "--no-cache"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExportConfig:
    def test_export_and_reload(self, tmp_path, capsys):
        from repro.serialization import load_config
        from repro.config import bench_config
        path = tmp_path / "cfg.json"
        assert main(["export-config", str(path)]) == 0
        assert load_config(path) == bench_config()

    def test_figure_csv_flag(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        assert main(["figure", "policies", "--csv", str(path)]) == 0
        assert path.read_text().startswith("policy,")


class TestObservabilityCli:
    def test_compare_emits_metrics_dump(self, tmp_path, capsys):
        dump_path = tmp_path / "metrics.jsonl"
        assert main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
                     "--cores", "1", "--emit-metrics", str(dump_path)]) == 0
        from repro.obs import read_jsonl
        with open(dump_path, encoding="utf-8") as stream:
            dump = read_jsonl(stream)
        assert dump.meta["command"] == "compare"
        assert dump.metrics["exec.batch.runs"]["value"] == 1
        assert "mem.ctrl.data_writes" in dump.metrics
        assert any(s["name"] == "exec.batch" for s in dump.spans)

    def test_bench_emits_metrics_dump(self, tmp_path, capsys):
        dump_path = tmp_path / "bench-metrics.jsonl"
        assert main(["bench", "smoke", "--warmup", "0", "--repeat", "1",
                     "--output-dir", str(tmp_path),
                     "--emit-metrics", str(dump_path)]) == 0
        from repro.obs import read_jsonl
        with open(dump_path, encoding="utf-8") as stream:
            dump = read_jsonl(stream)
        assert dump.meta["command"] == "bench"
        assert dump.meta["scenarios"] == ["smoke"]
        assert any(s["name"].startswith("bench.") for s in dump.spans)

    def test_stats_renders_dump(self, tmp_path, capsys):
        dump_path = tmp_path / "metrics.jsonl"
        main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
              "--cores", "1", "--emit-metrics", str(dump_path)])
        capsys.readouterr()
        assert main(["stats", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert "mem.ctrl.data_writes" in out
        assert "exec.batch" in out

    def test_stats_prometheus_and_prefix(self, tmp_path, capsys):
        dump_path = tmp_path / "metrics.jsonl"
        main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
              "--cores", "1", "--emit-metrics", str(dump_path)])
        capsys.readouterr()
        assert main(["stats", str(dump_path), "--format", "prom"]) == 0
        assert "# TYPE mem_ctrl_data_writes counter" \
            in capsys.readouterr().out
        assert main(["stats", str(dump_path), "--prefix", "cache."]) == 0
        out = capsys.readouterr().out
        assert "cache.counter.hits" in out
        assert "mem.ctrl.data_writes" not in out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2

    def test_spawn_local_flag_parsed(self):
        args = build_parser().parse_args(
            ["figure", "fig12", "--spawn-local", "2"])
        assert args.spawn_local == 2

    def test_spawn_local_conflicts_with_workers(self, capsys):
        assert main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
                     "--spawn-local", "1",
                     "--workers", "127.0.0.1:1"]) == 1
        assert "at most one" in capsys.readouterr().err


class TestFlagSurface:
    """The unified flag surface: one definition per shared flag, so
    spelling, defaults and help text agree across every subcommand."""

    RUNNER_COMMANDS = {
        "compare": ["compare"],
        "figure": ["figure", "fig8"],
    }

    def subparser(self, *path):
        """The argparse subparser object behind a command path."""
        parser = build_parser()
        for name in path:
            actions = [a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
            parser = actions[0].choices[name]
        return parser

    def flag(self, subparser, option):
        for action in subparser._actions:
            if option in action.option_strings:
                return action
        raise AssertionError(f"{option} missing from {subparser.prog}")

    def test_runner_flags_identical_across_compare_and_figure(self):
        for option in ("--jobs", "--backend", "--workers", "--spawn-local",
                       "--task-timeout", "--no-cache", "--emit-metrics"):
            actions = [self.flag(self.subparser(cmd), option)
                       for cmd in ("compare", "figure")]
            helps = {a.help for a in actions}
            defaults = {a.default for a in actions}
            assert len(helps) == 1, f"{option} help text diverged"
            assert len(defaults) == 1, f"{option} default diverged"

    def test_emit_metrics_spelled_identically_everywhere(self):
        surfaces = [self.subparser("compare"), self.subparser("figure"),
                    self.subparser("bench"),
                    self.subparser("worker", "serve"),
                    self.subparser("cluster", "serve")]
        helps = {self.flag(s, "--emit-metrics").help for s in surfaces}
        assert len(helps) == 1

    def test_task_timeout_shared_with_cluster_commands(self):
        surfaces = [self.subparser("compare"),
                    self.subparser("cluster", "serve"),
                    self.subparser("cluster", "drain")]
        helps = {self.flag(s, "--task-timeout").help for s in surfaces}
        defaults = {self.flag(s, "--task-timeout").default for s in surfaces}
        assert len(helps) == 1
        assert defaults == {300.0}

    def test_keyfile_shared_across_worker_and_cluster(self):
        surfaces = [self.subparser("worker", "serve"),
                    self.subparser("cluster", "serve"),
                    self.subparser("cluster", "status"),
                    self.subparser("cluster", "drain"),
                    self.subparser("cluster", "shutdown")]
        helps = {self.flag(s, "--keyfile").help for s in surfaces}
        assert len(helps) == 1

    def test_backend_spec_flag_parsed(self):
        args = build_parser().parse_args(
            ["compare", "--backend", "cluster://hub:7071?weight=2"])
        assert args.backend == "cluster://hub:7071?weight=2"

    def test_backend_conflicts_with_workers(self, capsys):
        assert main(["compare", "--benchmark", "HMMER", "--scale", "0.1",
                     "--backend", "serial",
                     "--workers", "127.0.0.1:1"]) == 1
        assert "at most one" in capsys.readouterr().err

    def test_backend_serial_runs_end_to_end(self, capsys):
        assert main(["compare", "--benchmark", "HMMER", "--scale", "0.15",
                     "--cores", "1", "--no-cache",
                     "--backend", "serial"]) == 0
        assert "HMMER" in capsys.readouterr().out

    def test_bad_backend_spec_is_a_clean_exit(self, capsys):
        assert main(["compare", "--benchmark", "HMMER",
                     "--backend", "warp-drive"]) == 1
        assert "cannot parse backend spec" in capsys.readouterr().err


class TestClusterCli:
    def test_cluster_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_keygen_writes_keyfile(self, tmp_path, capsys):
        path = tmp_path / "cluster.key"
        assert main(["cluster", "keygen", str(path)]) == 0
        assert "cluster key written" in capsys.readouterr().out
        from repro.exec import FrameAuth
        assert FrameAuth.from_keyfile(path) is not None

    def test_status_against_live_dispatcher(self, capsys):
        from repro.exec import ClusterServer
        with ClusterServer() as server:
            host, port = server.address
            assert main(["cluster", "status", f"{host}:{port}"]) == 0
            status = json.loads(capsys.readouterr().out)
        assert status["queue_depth"] == 0
        assert status["workers"] == []

    def test_drain_and_shutdown_round_trip(self, capsys):
        from repro.exec import ClusterServer
        with ClusterServer() as server:
            host, port = server.address
            endpoint = f"{host}:{port}"
            assert main(["cluster", "drain", endpoint]) == 0
            assert "drained" in capsys.readouterr().out
            assert main(["cluster", "shutdown", endpoint]) == 0
            assert server.wait(timeout=30)

    def test_status_unreachable_is_a_clean_exit(self, capsys):
        assert main(["cluster", "status", "127.0.0.1:1"]) == 1
        assert "error:" in capsys.readouterr().err
