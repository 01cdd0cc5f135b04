"""Properties of the suite stage DAG and its executor.

The load-bearing guarantee of :mod:`repro.sched` is *determinism*: the
DAG executor must produce byte-identical wash plans to serial execution
for any worker count — the workers only overlap independent work, they
never change a decision.  These tests pin that property for worker
counts 1, 2 and 8 on cold (cache-bypassing) runs, anchored against the
serial ``run_suite`` path, plus the structural invariants of the derived
graph itself.
"""

from __future__ import annotations

import pytest

from repro.core import PDWConfig
from repro.export import canonical_plan_json
from repro.sched.graph import RUN, SHARED, benchmark_nodes, build_graph

SUITE = ["Kinase-act-1", "PCR"]
NODES_PER_BENCHMARK = 11  # synthesis + replay + 5 pdw + 3 dawo + collect


def _canonical_rows(result) -> list:
    """(name, pdw plan bytes, dawo plan bytes) per run, in result order."""
    return [
        (run.name, canonical_plan_json(run.pdw), canonical_plan_json(run.dawo))
        for run in result.runs
    ]


class TestWorkerCountInvariance:
    def test_plans_byte_identical_for_any_worker_count(self):
        """Cold DAG runs at 1, 2 and 8 workers = cold serial, byte for byte."""
        from repro.experiments.runner import run_suite
        from repro.sched.executor import DagExecutor

        cfg = PDWConfig(time_limit_s=61.0)
        serial = run_suite(SUITE, cfg, use_cache=False, workers=1)
        assert serial.ok
        baseline = _canonical_rows(serial)
        assert [name for name, _, _ in baseline] == SUITE

        for workers in (1, 2, 8):
            result = DagExecutor(use_cache=False, workers=workers).run(SUITE, cfg)
            assert result.ok
            rows = _canonical_rows(result)
            # Identically ordered rows *and* byte-identical plan JSON.
            assert rows == baseline, f"workers={workers} diverged from serial"

    def test_forked_plans_byte_identical_to_run_benchmark(self):
        """Budgeted runs (one forked child per benchmark) = run_benchmark."""
        from repro.experiments.runner import run_benchmark
        from repro.sched.executor import DagExecutor
        from repro.sched.journal import RunBudget

        cfg = PDWConfig(time_limit_s=61.2)
        runs = [run_benchmark(name, cfg, use_cache=False) for name in SUITE]
        baseline = [
            (run.name, canonical_plan_json(run.pdw), canonical_plan_json(run.dawo))
            for run in runs
        ]
        for workers in (1, 2):
            executor = DagExecutor(
                budget=RunBudget(timeout_s=600.0), use_cache=False, workers=workers
            )
            result = executor.run(SUITE, cfg)
            assert result.ok
            assert _canonical_rows(result) == baseline, f"workers={workers} diverged"


class TestGraphShape:
    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_derived_edges_are_topological(self, name):
        nodes = benchmark_nodes(name)
        assert len(nodes) == NODES_PER_BENCHMARK
        ids = [node.id for node in nodes]
        assert len(set(ids)) == len(ids)
        seen: set = set()
        for node in nodes:
            assert set(node.deps) <= seen, f"{node.id} depends on a later node"
            seen.add(node.id)

    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_shared_replay_is_a_single_node(self, name):
        nodes = benchmark_nodes(name)
        replays = [n for n in nodes if n.stage == "replay"]
        assert len(replays) == 1
        assert replays[0].method == SHARED
        # Both method chains hang off the shared node.
        consumers = {
            n.method for n in nodes if replays[0].id in n.deps
        }
        assert consumers == {"pdw", "dawo"}

    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_collect_joins_both_plan_chains(self, name):
        nodes = benchmark_nodes(name)
        (collect,) = [n for n in nodes if n.method == RUN]
        assert collect.deps == (f"{name}/dawo/sweepline", f"{name}/pdw/assemble")

    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_priorities_are_critical_path_lengths(self, name):
        nodes = benchmark_nodes(name)
        by_id = {n.id: n for n in nodes}
        for node in nodes:
            for dep in node.deps:
                # A provider's critical path strictly contains its consumer's.
                assert by_id[dep].priority > node.priority

    def test_build_graph_is_deterministic(self):
        a = build_graph(SUITE)
        b = build_graph(SUITE)
        assert a == b
        assert len(a) == NODES_PER_BENCHMARK * len(SUITE)
        # Suite position breaks priority ties deterministically.
        assert [n.bench_index for n in a] == [0] * 11 + [1] * 11
