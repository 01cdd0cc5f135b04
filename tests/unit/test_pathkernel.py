"""Kernel-vs-networkx equivalence tests for the CSR routing kernel.

The :class:`~repro.arch.pathkernel.PathKernel` replaced networkx on the
routing hot path; these tests pin its contract to the reference
implementation on random grids and on every benchmark chip's generated
layout: same shortest-path cost, valid simple paths, identical k-path
cost ordering, and cache-served results identical to cold queries.  The
reference graph is each chip's networkx twin (``tests/nxoracle.py``).
"""

import random

import networkx as nx
import pytest

from repro.arch.builder import ChipBuilder
from repro.arch.pathkernel import PathKernel, kernel_for
from repro.arch.routing import Router, is_simple
from repro.bench import BENCHMARKS
from repro.errors import RoutingError
from repro.synth.binding import build_device_list
from repro.synth.layout import generate_layout
from tests.nxoracle import WEIGHT, with_twin


def nx_cost(graph, src, dst, banned=frozenset()):
    """Reference shortest-path cost, or ``None`` when unreachable."""
    if banned:
        keep = (set(graph) - set(banned)) | {src, dst}
        graph = graph.subgraph(keep)
    try:
        cost, _ = nx.bidirectional_dijkstra(graph, src, dst, weight=WEIGHT)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    return cost


def assert_valid_path(chip, path, src, dst, length):
    """The kernel's path is a real, simple walk of the claimed length."""
    assert path[0] == src and path[-1] == dst
    assert is_simple(path)
    total = 0.0
    for a, b in zip(path, path[1:]):
        assert chip.has_edge(a, b)
        total += chip.edge_length_mm(a, b)
    assert length == pytest.approx(total)


def random_grid_chip(seed, width=6, height=5):
    """A connected grid of junctions with random channel lengths."""
    rng = random.Random(seed)
    b = ChipBuilder(f"grid-{seed}")
    for x in range(width):
        for y in range(height):
            b.add_junction(f"n{x}_{y}", pos=(float(x), float(y)))
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                b.add_channel(
                    f"n{x}_{y}", f"n{x + 1}_{y}", round(rng.uniform(0.5, 4.0), 3)
                )
            if y + 1 < height:
                b.add_channel(
                    f"n{x}_{y}", f"n{x}_{y + 1}", round(rng.uniform(0.5, 4.0), 3)
                )
    b.add_flow_port("in1", pos=(-1.0, 0.0))
    b.add_channel("in1", "n0_0", 1.0)
    b.add_waste_port("out1", pos=(float(width), float(height - 1)))
    b.add_channel(f"n{width - 1}_{height - 1}", "out1", 1.0)
    return b.build()


def query_pairs(chip, rng, count=12):
    """Port pairs plus random interior pairs of one chip."""
    nodes = chip.nodes
    pairs = [(fp, wp) for fp in chip.flow_ports for wp in chip.waste_ports]
    for _ in range(count):
        a, b = rng.choice(nodes), rng.choice(nodes)
        if a != b:
            pairs.append((a, b))
    return pairs


@pytest.fixture(scope="module", params=sorted(BENCHMARKS))
def bench_twin(request):
    spec = BENCHMARKS[request.param]
    devices = build_device_list(spec.inventory)
    return with_twin(lambda: generate_layout(devices, name=f"{spec.name}-chip"))


class TestBenchmarkChipEquivalence:
    def test_shortest_costs_match_networkx(self, bench_twin):
        bench_chip, graph = bench_twin
        kernel = PathKernel(bench_chip)
        rng = random.Random(7)
        for src, dst in query_pairs(bench_chip, rng):
            expected = nx_cost(graph, src, dst)
            if expected is None:
                with pytest.raises(RoutingError):
                    kernel.shortest(src, dst)
                continue
            path, length = kernel.shortest(src, dst)
            assert length == pytest.approx(expected)
            assert_valid_path(bench_chip, path, src, dst, length)

    def test_avoid_sets_match_networkx_subgraph(self, bench_twin):
        bench_chip, graph = bench_twin
        kernel = PathKernel(bench_chip)
        rng = random.Random(11)
        interior = [n for n in bench_chip.nodes if not bench_chip.is_port(n)]
        for src, dst in query_pairs(bench_chip, rng, count=6):
            banned = frozenset(
                n for n in rng.sample(interior, min(3, len(interior)))
                if n not in (src, dst)
            )
            expected = nx_cost(graph, src, dst, banned)
            if expected is None:
                with pytest.raises(RoutingError):
                    kernel.shortest(src, dst, kernel.mask(banned))
                continue
            path, length = kernel.shortest(src, dst, kernel.mask(banned))
            assert length == pytest.approx(expected)
            assert not banned & set(path[1:-1])
            assert_valid_path(bench_chip, path, src, dst, length)

    def test_k_path_cost_ordering_matches_networkx(self, bench_twin):
        bench_chip, graph = bench_twin
        kernel = PathKernel(bench_chip)
        k = 4
        for src in bench_chip.flow_ports[:2]:
            for dst in bench_chip.waste_ports[:2]:
                found = kernel.k_shortest(src, dst, k)
                costs = [length for _, length in found]
                assert costs == sorted(costs)
                gen = nx.shortest_simple_paths(graph, src, dst, weight=WEIGHT)
                expected = []
                for path in gen:
                    expected.append(
                        sum(graph.edges[a, b][WEIGHT] for a, b in zip(path, path[1:]))
                    )
                    if len(expected) == len(found):
                        break
                assert costs == pytest.approx(expected)
                for path, length in found:
                    assert_valid_path(bench_chip, path, src, dst, length)


class TestRandomGridEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shortest_costs_match_networkx(self, seed):
        chip, graph = with_twin(lambda: random_grid_chip(seed))
        kernel = PathKernel(chip)
        rng = random.Random(seed * 101)
        for src, dst in query_pairs(chip, rng, count=20):
            expected = nx_cost(graph, src, dst)
            path, length = kernel.shortest(src, dst)
            assert length == pytest.approx(expected)
            assert_valid_path(chip, path, src, dst, length)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_k_path_cost_ordering_matches_networkx(self, seed):
        chip, graph = with_twin(lambda: random_grid_chip(seed))
        kernel = PathKernel(chip)
        gen = nx.shortest_simple_paths(graph, "in1", "out1", weight=WEIGHT)
        expected = []
        for path in gen:
            expected.append(
                sum(graph.edges[a, b][WEIGHT] for a, b in zip(path, path[1:]))
            )
            if len(expected) == 5:
                break
        costs = [length for _, length in kernel.k_shortest("in1", "out1", 5)]
        assert costs == pytest.approx(expected)


class TestCache:
    def test_cache_hit_identical_to_cold(self):
        chip = random_grid_chip(9)
        kernel = PathKernel(chip)
        cold = kernel.shortest("in1", "out1")
        hits0, misses0, _ = kernel.cache_info()
        warm = kernel.shortest("in1", "out1")
        hits1, misses1, _ = kernel.cache_info()
        assert warm == cold
        assert (hits1, misses1) == (hits0 + 1, misses0)

    def test_negative_result_cached(self):
        chip = random_grid_chip(10)
        kernel = PathKernel(chip)
        # in1 attaches to the grid only through n0_0; banning it cuts in1 off.
        banned = kernel.mask({"n0_0"})
        with pytest.raises(RoutingError):
            kernel.shortest("in1", "out1", banned)
        _, misses0, _ = kernel.cache_info()
        with pytest.raises(RoutingError):
            kernel.shortest("in1", "out1", banned)
        _, misses1, _ = kernel.cache_info()
        assert misses1 == misses0  # second failure served from the cache

    def test_eviction_bounds_cache(self):
        chip = random_grid_chip(12)
        kernel = PathKernel(chip, cache_size=4)
        nodes = chip.nodes[:6]
        for a in nodes:
            for b in nodes:
                if a != b:
                    kernel.shortest(a, b)
        _, _, size = kernel.cache_info()
        assert size <= 4

    def test_kernel_for_is_cached_per_chip(self):
        chip = random_grid_chip(13)
        assert kernel_for(chip) is kernel_for(chip)


class TestRowCache:
    def test_rows_and_legs_share_the_cache_budget(self):
        chip = random_grid_chip(14)
        kernel = PathKernel(chip, cache_size=16)
        nodes = chip.nodes
        kernel.distances_from(nodes[0])
        for a in nodes:
            kernel.distances_from(a, kernel.mask(nodes[:3]))
            for b in nodes[:4]:
                kernel.shortest(a, b)
            assert kernel.cache_info()[2] <= 16
        hits, misses, _ = kernel.cache_info()
        kernel.distances_from(nodes[0])  # evicted by the later entries
        assert kernel.cache_info()[:2] == (hits, misses + 1)

    def test_a_row_lookup_counts_as_one_hit_or_miss(self):
        chip = random_grid_chip(16)
        kernel = PathKernel(chip)
        cold = kernel.distances_from("in1", kernel.mask({"n0_0"}))
        assert kernel.cache_info() == (0, 1, 1)
        warm = kernel.distances_from("in1", kernel.mask({"n0_0"}))
        assert warm is cold
        assert kernel.cache_info() == (1, 1, 1)
        kernel.clear_cache()
        assert kernel.cache_info()[2] == 0


class TestBanMasks:
    def test_mask_ignores_names_that_are_not_chip_nodes(self):
        chip = random_grid_chip(17)
        kernel = PathKernel(chip)
        a, b = kernel.bit["n0_0"], kernel.bit["n1_0"]
        assert a == 1 << kernel.index["n0_0"]
        assert kernel.mask(()) == 0
        assert kernel.mask(["no-such-node"]) == 0
        assert kernel.mask(["n0_0", "no-such-node", "n1_0", "n0_0"]) == a | b

    def test_stop_vector_equals_naive_decode(self):
        spec = BENCHMARKS["Synthetic3"]
        chip = generate_layout(build_device_list(spec.inventory), name="s3-chip")
        kernel = PathKernel(chip)
        n = len(kernel.nodes)
        rng = random.Random(19)
        masks = [0, 1, 1 << (n - 1), (1 << n) - 1]
        masks += [rng.getrandbits(n) for _ in range(20)]
        for m in masks:
            naive = bytearray((m >> i) & 1 for i in range(n))
            assert kernel._stops(m) == naive, hex(m)
            s, t = rng.randrange(n), rng.randrange(n)
            naive[s] = naive[t] = 0
            assert kernel._stops(m, s, t) == naive, (hex(m), s, t)

    def test_non_node_avoid_name_shares_the_cache_entry(self):
        """A name that is not a chip node has no bit in a ban mask, so a
        query whose ``avoid`` also holds one is served by the cache entry
        of the same query without it: one miss, then a hit.  This is the
        one visible difference from the frozenset keys masks replaced,
        under which the two queries were two misses."""
        router = Router(random_grid_chip(18))
        kernel = router.kernel
        first = router.shortest_path_mm("in1", "out1", avoid=["n2_2"])
        assert kernel.cache_info()[:2] == (0, 1)
        second = router.shortest_path_mm("in1", "out1", avoid=["n2_2", "ghost"])
        assert kernel.cache_info()[:2] == (1, 1)
        assert second == first


def test_cache_keys_hold_int_masks_not_frozensets():
    """Structural memory guard: candidate generation leaves only ``int``
    ban masks in the kernel LRU's keys, never a frozenset of node names
    (which cost ~2 KB a key on the larger benchmark chips)."""
    from repro.bench import benchmark, load_benchmark
    from repro.core.pathgen import integration_candidates
    from repro.schedule.tasks import TaskKind
    from repro.synth import synthesize

    synthesis = synthesize(load_benchmark("IVD"), inventory=benchmark("IVD").inventory)
    chip = synthesis.chip
    removals = [rm.path for rm in synthesis.schedule.tasks(TaskKind.REMOVAL)]
    assert removals
    targets = sorted(chip.devices)[:2]
    kernel = kernel_for(chip)
    kernel.clear_cache()
    Router(chip).port_to_port_candidates_mm(targets)
    after_ports = len(kernel._cache)
    integration_candidates(chip, targets, removals)
    keys = list(kernel._cache)
    assert len(keys) > after_ports > 0
    assert {len(key) for key in keys} == {2, 3}  # rows and legs both ran
    for key in keys:
        assert type(key[-1]) is int, key
        assert not any(isinstance(part, frozenset) for part in key), key


def test_pathgen_counters_count_every_kernel_lookup(monkeypatch):
    """``routing_cache_hits + misses`` is the number of kernel lookups,
    legs and rows alike, so ``arch.pathkernel.queries`` and the
    ``pdw report timings`` routing line account for all routing work."""
    from repro.core import PDWConfig
    from repro.core.stages import PDW_PIPELINE, PDWContext
    from repro.synth import synthesize
    from repro.bench import benchmark, load_benchmark

    lookups = {"shortest": 0, "distances_from": 0}
    for method in lookups:
        original = getattr(PathKernel, method)

        def counted(self, *args, _original=original, _method=method, **kwargs):
            lookups[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PathKernel, method, counted)
    synthesis = synthesize(load_benchmark("PCR"), inventory=benchmark("PCR").inventory)
    ctx = PDWContext(synthesis=synthesis, config=PDWConfig())
    for stage in PDW_PIPELINE:
        if stage.name == "pathgen":
            break
        stage.apply(ctx, stage.compute(ctx))
    for method in lookups:
        lookups[method] = 0
    result = stage.compute(ctx)
    assert lookups["distances_from"] > 0
    total = result.routing_cache_hits + result.routing_cache_misses
    assert total == lookups["shortest"] + lookups["distances_from"]


class TestPlanLifecycle:
    """The kernel LRU is the working memory of one plan: pathgen, the last
    stage that routes, empties it, so no routing entry is alive during the
    ILP solve or after the plan.  The hit/miss counters survive the clear."""

    def test_pathgen_stage_empties_the_lru_and_keeps_its_counts(self):
        from repro.bench import benchmark, load_benchmark
        from repro.core import PDWConfig
        from repro.core.stages import PDW_PIPELINE, PDWContext
        from repro.synth import synthesize

        synthesis = synthesize(load_benchmark("PCR"), inventory=benchmark("PCR").inventory)
        ctx = PDWContext(synthesis=synthesis, config=PDWConfig())
        for stage in PDW_PIPELINE:
            if stage.name == "pathgen":
                break
            stage.apply(ctx, stage.compute(ctx))
        kernel = kernel_for(synthesis.chip)
        hits0, misses0, size0 = kernel.cache_info()
        assert size0 > 0  # clustering routed on this chip
        result = stage.compute(ctx)
        hits1, misses1, size1 = kernel.cache_info()
        assert size1 == 0
        assert result.routing_cache_hits > 0 and result.routing_cache_misses > 0
        assert (hits1 - hits0, misses1 - misses0) == (
            result.routing_cache_hits,
            result.routing_cache_misses,
        )

    def test_cold_benchmark_run_ends_with_an_empty_lru(self):
        import json
        from pathlib import Path

        from repro.arch.pathkernel import cache_counters
        from repro.core import PDWConfig
        from repro.experiments.runner import run_benchmark

        pins = Path(__file__).resolve().parents[1] / "data" / "table2_kernel_counts.json"
        want = json.loads(pins.read_text(encoding="utf-8"))["counts"]["table2/PCR"]
        run = run_benchmark("PCR", PDWConfig(time_limit_s=120), use_cache=False)
        chip = run.synthesis.chip
        assert kernel_for(chip).cache_info()[2] == 0
        assert cache_counters(chip) == (want["hits"], want["misses"])

    def test_degraded_plan_ends_with_an_empty_lru(self):
        from repro.bench import benchmark, load_benchmark
        from repro.core import PDWConfig, optimize_washes
        from repro.synth import synthesize

        synthesis = synthesize(load_benchmark("IVD"), inventory=benchmark("IVD").inventory)
        kernel = kernel_for(synthesis.chip)
        misses_before = kernel.cache_info()[1]  # synthesis routes on this kernel too
        config = PDWConfig(time_limit_s=120, degrade="channels=2:valves=1:seed=1")
        plan = optimize_washes(synthesis, config)
        assert plan.degradation is not None and plan.degradation.dead
        assert plan.report.get("pathgen").counters["routing_cache_misses"] > 0
        _, misses_after, size_after = kernel.cache_info()
        assert misses_after > misses_before  # the degraded plan did route
        assert size_after == 0


def _pinned(path: str) -> dict:
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    return json.loads((root / path).read_text(encoding="utf-8"))


class TestBoundIsAPureMemo:
    """The LRU bound trades hits for misses and changes nothing else: at
    any bound every plan equals its pin, every lookup is still counted
    once, and the LRU never holds more entries than the bound.  The pins
    are the HiGHS rung's plans, so a forced rung or an injected solver
    fault is cleared for these runs."""

    @pytest.mark.parametrize("bound", [1, 64, None], ids=["1", "64", "default"])
    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_plans_and_lookups_do_not_depend_on_the_bound(self, name, bound, monkeypatch):
        import hashlib

        from repro.arch import pathkernel
        from repro.arch.pathkernel import cache_counters
        from repro.core import PDWConfig
        from repro.experiments.runner import run_benchmark
        from repro.export import canonical_plan_json
        from repro.ilp import faults

        monkeypatch.delenv(faults.ENV_FORCE, raising=False)
        monkeypatch.delenv(faults.ENV_FAULT, raising=False)
        if bound is not None:
            monkeypatch.setattr(pathkernel, "DEFAULT_CACHE_SIZE", bound)
        limit = pathkernel.DEFAULT_CACHE_SIZE
        largest = [0]
        store = PathKernel._store

        def watched(self, key, value):
            store(self, key, value)
            largest[0] = max(largest[0], len(self._cache))

        monkeypatch.setattr(PathKernel, "_store", watched)
        run = run_benchmark(name, PDWConfig(time_limit_s=120), use_cache=False)

        key = f"table2/{name}"
        for method, path in (
            ("pdw", "perf/reference.json"),
            ("dawo", "tests/data/table2_dawo_digests.json"),
        ):
            text = canonical_plan_json(getattr(run, method))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == _pinned(path)["digests"][key], method
        want = _pinned("tests/data/table2_kernel_counts.json")["counts"][key]
        hits, misses = cache_counters(run.synthesis.chip)
        assert hits + misses == want["hits"] + want["misses"]
        if bound is None:
            assert (hits, misses) == (want["hits"], want["misses"])
        assert 0 < largest[0] <= limit
        assert kernel_for(run.synthesis.chip).cache_info()[2] == 0


class TestSingleThreaded:
    """The kernel LRU and the runner's memo take no lock: nothing in one
    process plans or routes from two threads."""

    @pytest.mark.parametrize("entry", ["run_benchmark", "plan_one"])
    def test_planning_starts_no_thread(self, entry, monkeypatch):
        import threading

        from repro.core import PDWConfig
        from repro.experiments import runner

        started = []
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: started.append(self.name)
        )
        config = PDWConfig(time_limit_s=120)
        if entry == "run_benchmark":
            runner.run_benchmark("PCR", config, use_cache=False)
        else:
            runner.plan_one("PCR", "pdw", config, cache=None)
        assert started == []
