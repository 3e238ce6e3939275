"""The benchmark's workloads: inputs from a seed, experiments, one closed loop.

Every workload is a list of :class:`repro.exec.Experiment` values run
one at a time through ``Runner(jobs=1, use_cache=False)``: one
process, serial, no result cache, scalar engine, and each experiment
starts only after the previous one returned. Modelled caches start
empty in every experiment, matching the paper's checkpoint at the start
of the initialization phase.

The seed only shapes the inputs. :data:`DEFAULT_SEED` reproduces the
repository's own inputs exactly (the SPEC model seeds of
``multiprogrammed_tasks``, graph seed 42, and the ``access-stream``
default batch seed), so at that seed the sweeps' reports are
byte-identical to :func:`repro.analysis.figures.fig8_to_11_study`.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Dict, List

from repro.config import bench_config, fast_config
from repro.exec import Experiment, Runner, experiment_pair, register_workload
from repro.sim import AccessBatch
from repro.sim.system import SystemReport
from repro.workloads import (POWERGRAPH_APPS, SPEC_BENCHMARKS,
                             power_law_graph, spec_task)

DEFAULT_SEED = 1234

# spec-sweep: the Figs. 8-11 study on a subset that spans write-light
# (H264, DEAL) to write-heavy (MCF, LBM, MILC) models and the most
# memory-bound one (BWAVES).
SPEC_MODELS = ("H264", "DEAL", "GCC", "MCF", "BWAVES", "GEMS", "LBM", "MILC")
SPEC_CORES = 2
SPEC_SCALE = 0.05

# graph-sweep: the three PowerGraph apps on one power-law graph.
GRAPH_APPS = ("PAGERANK", "SIMPLE_COLORING", "KCORE")
GRAPH_NODES = 500
GRAPH_EDGES_PER_NODE = 5      # powergraph_task's default
GRAPH_SEED = 42               # powergraph_task's default

# ctrl-stream: reads, writes and shreds straight into the controller,
# over twice the pages the 64 KB counter cache of fast_config() covers.
CTRL_ACCESSES = 22_000
CTRL_PAGES = 2048
CTRL_READ_FRACTION = 0.6
CTRL_SHRED_FRACTION = 0.02

WORKLOADS = ("spec-sweep", "graph-sweep", "ctrl-stream")


def _seed_offset(seed: int) -> int:
    """Shift applied to every repository seed; 0 at the default seed.

    The stride keeps shifted SPEC seeds clear of the ``1000 * core``
    spacing between the per-core instances of one model.
    """
    return (seed - DEFAULT_SEED) * 1_000_003


@functools.lru_cache(maxsize=2)
def graph_input(num_nodes: int, seed: int):
    """The graph-sweep's power-law graph (built once, shared read-only)."""
    return power_law_graph(num_nodes, GRAPH_EDGES_PER_NODE,
                           GRAPH_SEED + _seed_offset(seed))


@functools.lru_cache(maxsize=2)
def ctrl_batch(accesses: int, pages: int, seed: int, page_size: int,
               block_size: int) -> AccessBatch:
    """The ctrl-stream's access batch (patterned payloads on writes)."""
    return AccessBatch.synthetic(accesses, num_pages=pages,
                                 page_size=page_size, block_size=block_size,
                                 read_fraction=CTRL_READ_FRACTION,
                                 shred_fraction=CTRL_SHRED_FRACTION,
                                 seed=seed)


# Executors run inside Runner exactly like the repository's own ``spec``
# and ``powergraph`` kinds; they differ only in taking the seed as a
# parameter and reading prebuilt inputs.

@register_workload("perfbench-spec")
def _run_spec(system, params):
    model = SPEC_BENCHMARKS[params["benchmark"]].scaled(params["scale"])
    offset = _seed_offset(params["seed"])
    tasks = [spec_task(replace(model, seed=model.seed + 1000 * core + offset))
             for core in range(params["cores"])]
    system.run(tasks)
    system.machine.hierarchy.flush_all()


@register_workload("perfbench-graph")
def _run_graph(system, params):
    graph = graph_input(params["num_nodes"], params["seed"])
    system.run([POWERGRAPH_APPS[params["app"]](graph)])
    system.machine.hierarchy.flush_all()


@register_workload("perfbench-ctrl")
def _run_ctrl(system, params) -> Dict[str, float]:
    batch = ctrl_batch(params["accesses"], params["pages"], params["seed"],
                       system.config.kernel.page_size,
                       system.config.block_size)
    result = system.access_engine().run(batch)
    return {"stream_accesses": float(result.accesses)}


def prepare(workload: str, seed: int) -> List[Experiment]:
    """Build configs and inputs; return the experiments in run order."""
    if workload == "spec-sweep":
        config = bench_config()
        return [exp for name in SPEC_MODELS for exp in experiment_pair(
            Experiment(workload="perfbench-spec",
                       params={"benchmark": name, "cores": SPEC_CORES,
                               "scale": SPEC_SCALE, "seed": seed},
                       config=config, name=name))]
    if workload == "graph-sweep":
        graph_input(GRAPH_NODES, seed)
        config = bench_config()
        return [exp for app in GRAPH_APPS for exp in experiment_pair(
            Experiment(workload="perfbench-graph",
                       params={"app": app, "num_nodes": GRAPH_NODES,
                               "seed": seed},
                       config=config, name=app))]
    if workload == "ctrl-stream":
        config = fast_config()
        ctrl_batch(CTRL_ACCESSES, CTRL_PAGES, seed, config.kernel.page_size,
                   config.block_size)
        return [Experiment(workload="perfbench-ctrl",
                           params={"accesses": CTRL_ACCESSES,
                                   "pages": CTRL_PAGES, "seed": seed},
                           config=config, shredder=True, name="ctrl-stream")]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run_experiment(experiment: Experiment) -> SystemReport:
    """One experiment through the figures' execution path."""
    return Runner(jobs=1, use_cache=False).run([experiment])[0]


def sim_operations(report: SystemReport) -> int:
    """Simulated memory operations: CPU loads + stores (= L1 accesses),
    or stream accesses for a run that bypasses the CPU."""
    if "stream_accesses" in report.extra:
        return int(report.extra["stream_accesses"])
    metrics = report.metrics
    return int(metrics["cpu.loads"]["value"] + metrics["cpu.stores"]["value"])
