"""``repro bench``: scenario runs, determinism, and regression gating."""

import copy
import json
import pstats

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.obs.registry import MetricsRegistry
from repro.exec.bench import (SCENARIOS, WALL_CLOCK_KEYS, BenchScenario,
                              compare_results, deterministic_view,
                              load_result, run_scenario, scenario_names,
                              write_result)


@pytest.fixture(scope="module")
def smoke_result():
    """One shared smoke run (module-scoped: runs take real time)."""
    return run_scenario("smoke", warmup=0, repeat=1)


class TestCatalog:
    def test_required_scenarios_exist(self):
        names = scenario_names()
        assert {"smoke", "counter-hot", "counter-cold"} <= set(names)
        assert len(names) >= 3

    def test_every_scenario_races_both_engines(self):
        for scenario in SCENARIOS.values():
            assert scenario.engines == ("scalar", "batch")

    def test_new_scenarios_present(self):
        assert {"llc-thrash", "coherence-pingpong"} <= set(scenario_names())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ExperimentError, match="unknown bench scenario"):
            run_scenario("nope")

    def test_bad_repeat_rejected(self):
        with pytest.raises(ExperimentError, match="repeat"):
            run_scenario("smoke", repeat=0)


class TestResultDocument:
    def test_document_shape(self, smoke_result):
        doc = smoke_result
        assert doc["schema"] == 2
        assert doc["scenario"] == "smoke"
        assert doc["engines"] == ["scalar", "batch"]
        det = doc["deterministic"]
        assert det["reports_identical"] is True
        assert set(det["report_digests"]) == {"scalar", "batch"}
        assert det["engines"]["scalar"]["accesses"] == \
            det["engines"]["batch"]["accesses"] > 0
        assert doc["timing"]["speedup_batch_over_scalar"] > 0
        for key in WALL_CLOCK_KEYS:
            assert key in doc

    def test_spans_cover_phases(self, smoke_result):
        names = {span["name"] for span in smoke_result["spans"]}
        assert {"bench.smoke", "build-batch", "measure.scalar",
                "measure.batch"} <= names

    def test_deterministic_view_drops_wall_clock(self, smoke_result):
        view = deterministic_view(smoke_result)
        for key in WALL_CLOCK_KEYS:
            assert key not in view
        assert "deterministic" in view and "params" in view

    def test_two_runs_reproduce_exactly(self, smoke_result):
        again = run_scenario("smoke", warmup=0, repeat=2)
        assert deterministic_view(again) == deterministic_view(smoke_result)

    def test_write_and_load_roundtrip(self, smoke_result, tmp_path):
        path = write_result(smoke_result, directory=tmp_path / "sub")
        assert path.name == "BENCH_smoke.json"
        assert load_result(path) == json.loads(path.read_text())

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot load"):
            load_result(tmp_path / "BENCH_none.json")


class TestCompare:
    def test_self_compare_is_clean(self, smoke_result):
        assert compare_results(smoke_result, smoke_result) == []

    def test_fresh_run_matches_earlier_baseline(self, smoke_result):
        current = run_scenario("smoke", warmup=0, repeat=1)
        # Generous threshold: only deterministic divergence should fail.
        assert compare_results(current, smoke_result, threshold=100.0) == []

    def test_scenario_mismatch_fails_fast(self, smoke_result):
        other = dict(smoke_result, scenario="counter-hot")
        failures = compare_results(smoke_result, other)
        assert failures and "scenario mismatch" in failures[0]

    def test_deterministic_divergence_fails(self, smoke_result):
        tampered = copy.deepcopy(smoke_result)
        tampered["deterministic"]["report_digest"] = "0" * 64
        tampered["deterministic"]["report_digests"]["scalar"] = "0" * 64
        failures = compare_results(smoke_result, tampered)
        assert any("deterministic sections diverge" in f for f in failures)

    def test_timing_regression_fails(self, smoke_result):
        baseline = copy.deepcopy(smoke_result)
        for engine in ("scalar", "batch"):
            baseline["timing"][engine]["best_s"] /= 100.0
        failures = compare_results(smoke_result, baseline, threshold=0.5)
        assert any("regressed" in f for f in failures)

    def test_missing_engine_fails(self, smoke_result):
        current = copy.deepcopy(smoke_result)
        del current["timing"]["batch"]
        failures = compare_results(current, smoke_result)
        assert any("missing from current" in f for f in failures)


class TestProfileAndMetrics:
    def test_profile_dir_gets_per_engine_pstats(self, tmp_path):
        profile_dir = tmp_path / "prof"
        doc = run_scenario("smoke", warmup=0, repeat=1,
                           profile_dir=profile_dir)
        names = sorted(p.name for p in profile_dir.glob("*.pstats"))
        assert names == ["smoke.batch.pstats", "smoke.scalar.pstats"]
        assert sorted(doc["meta"]["profiles"]) == ["batch", "scalar"]
        # The dumps are loadable pstats databases.
        stats = pstats.Stats(str(profile_dir / "smoke.batch.pstats"))
        assert stats.total_calls > 0

    def test_bulk_metrics_published(self, monkeypatch):
        # A small hierarchy-datapath scenario (the bulk counters only
        # exist when the batch carries a cores array).
        tiny = BenchScenario(
            name="tiny-bulk", description="test-only", accesses=2000,
            pages=4, locality=0.95, epoch_length=128, num_cores=2,
            burst=4)
        monkeypatch.setitem(SCENARIOS, "tiny-bulk", tiny)
        metrics = MetricsRegistry()
        run_scenario("tiny-bulk", warmup=0, repeat=1, metrics=metrics)
        snapshot = metrics.snapshot()
        bulk = {name for name in snapshot
                if name.startswith("cache.bulk.")}
        assert {"cache.bulk.runs", "cache.bulk.fast_hits"} <= bulk
        for name in bulk:
            assert snapshot[name]["value"] > 0

    def test_no_bulk_metrics_without_hierarchy(self):
        metrics = MetricsRegistry()
        run_scenario("smoke", warmup=0, repeat=1, metrics=metrics)
        assert not any(name.startswith("cache.bulk.")
                       for name in metrics.snapshot())


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_bench_unknown_scenario(self, capsys):
        assert main(["bench", "warp-drive"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bench_compare_needs_single_scenario(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_smoke.json"
        baseline.write_text("{}")
        assert main(["bench", "smoke", "counter-hot",
                     "--compare", str(baseline)]) == 2
        assert "exactly one scenario" in capsys.readouterr().err

    def test_bench_smoke_run_and_gate(self, capsys, tmp_path):
        assert main(["bench", "smoke", "--warmup", "0", "--repeat", "1",
                     "--output-dir", str(tmp_path)]) == 0
        path = tmp_path / "BENCH_smoke.json"
        assert path.exists()
        assert "reports_identical=True" in capsys.readouterr().out
        # Gate a second run against the first; huge threshold = only
        # deterministic divergence could fail, and there is none.
        assert main(["bench", "smoke", "--warmup", "0", "--repeat", "1",
                     "--output-dir", str(tmp_path / "again"),
                     "--compare", str(path), "--threshold", "100"]) == 0
        assert "within" in capsys.readouterr().out
