"""Property tests: the dict-backed graphs match their networkx twins.

The sequencing graph and the chip network keep insertion-ordered dict
adjacency.  Plans stay byte-identical only if every iteration order the
pipeline consumes equals what networkx gave: topological order, edge
order (it feeds float sums), neighbour order, the ``PathKernel`` CSR and
``Router._chain_order``.  Each test builds the same graph twice, once
through the runtime and once in networkx, and compares.
"""

import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.builder import ChipBuilder
from repro.arch.device import DeviceKind
from repro.arch.pathkernel import PathKernel
from repro.arch.routing import Router
from repro.assay import Operation, Reagent, SequencingGraph
from repro.assay.fluids import composite_fluid
from repro.assay.operations import is_transformative
from repro.bench import BENCHMARKS
from repro.synth.binding import build_device_list
from repro.synth.layout import generate_layout
from tests.nxoracle import WEIGHT, nx_chain_order, nx_csr, with_twin

TRANSFORMING = ("mix", "dilute", "heat", "incubate", "filter")
PASSING = ("detect", "store")


# -- sequencing graph ---------------------------------------------------------

def random_assay(seed):
    """A random assay and its ``nx.DiGraph`` twin, built call for call.

    Reagents are interleaved with operations, and ``add_input`` adds
    extra forward edges (and wires every reagent into some consumer).
    """
    rng = random.Random(seed)
    assay, twin = SequencingGraph(f"dag-{seed}"), nx.DiGraph()
    nodes, transforming = [], []

    def reagent():
        rid = f"r{len(nodes)}"
        assay.add_reagent(Reagent(rid, rng.choice(["serum", "dye", "salt"])))
        twin.add_node(rid)
        nodes.append(rid)

    reagent()
    for i in range(rng.randint(1, 14)):
        while rng.random() < 0.4:
            reagent()
        op_type = rng.choice(TRANSFORMING + PASSING)
        fan_in = rng.randint(1, 3) if is_transformative(op_type) else 1
        inputs = rng.sample(nodes, min(fan_in, len(nodes)))
        oid = f"o{i}"
        assay.add_operation(Operation(oid, op_type), inputs)
        twin.add_node(oid)
        twin.add_edges_from((src, oid) for src in inputs)
        nodes.append(oid)
        if is_transformative(op_type):
            transforming.append(oid)
    for _ in range(rng.randint(0, 6)):
        if not transforming:
            break
        oid = rng.choice(transforming)
        src = rng.choice(nodes[: nodes.index(oid)])
        if not twin.has_edge(src, oid):
            assay.add_input(oid, src)
            twin.add_edge(src, oid)
    for rid in [n for n in nodes if n.startswith("r") and not twin.out_degree(n)]:
        later = [o for o in transforming if nodes.index(o) > nodes.index(rid)]
        if later:
            oid = rng.choice(later)
            assay.add_input(oid, rid)
            twin.add_edge(rid, oid)
    return assay, twin


def nx_fluid_types(assay, twin):
    """The networkx-era ``SequencingGraph.fluid_types``."""
    types = {r.id: r.fluid_type for r in assay.reagents}
    for node in nx.topological_sort(twin):
        if node in types:
            continue
        op = assay.operation(node)
        input_types = [types[src] for src in sorted(twin.predecessors(node))]
        if is_transformative(op.op_type):
            types[node] = composite_fluid(op.id, op.op_type, input_types)
        else:
            types[node] = input_types[0]
    return types


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_assay_queries_match_networkx(seed):
    assay, twin = random_assay(seed)
    assert assay.dependency_edges() == list(twin.edges())
    assume(not assay.issues())
    ops = {o.id for o in assay.operations}
    assert assay.topological_operations() == [
        n for n in nx.topological_sort(twin) if n in ops
    ]
    assert assay.fluid_types() == nx_fluid_types(assay, twin)
    for op in ops:
        assert assay.inputs_of(op) == sorted(twin.predecessors(op))


# -- chip network -------------------------------------------------------------

def random_grid_chip(seed):
    """A random connected grid, declared in shuffled node and channel order.

    Some channels are declared twice with a new length, which must keep
    the segment's first position and take the last length (as
    ``nx.Graph.add_edge`` does).
    """
    rng = random.Random(seed)
    width, height = rng.randint(2, 7), rng.randint(2, 6)
    cells = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(cells)
    b = ChipBuilder(f"grid-{seed}")
    name = {}
    for x, y in cells:
        if rng.random() < 0.15:
            name[x, y] = f"d{x}_{y}"
            b.add_device(name[x, y], DeviceKind.MIXER, pos=(float(x), float(y)))
        else:
            name[x, y] = f"n{x}_{y}"
            b.add_junction(name[x, y], pos=(float(x), float(y)))
    segments = [
        (name[(x, y)], name[(x + dx, y + dy)])
        for x, y in cells
        for dx, dy in ((1, 0), (0, 1))
        if (x + dx, y + dy) in name
    ]
    rng.shuffle(segments)
    for a, c in segments:
        if rng.random() < 0.5:
            a, c = c, a
        b.add_channel(a, c, round(rng.uniform(0.5, 4.0), 3))
    for a, c in rng.sample(segments, len(segments) // 4):
        b.add_channel(c, a, round(rng.uniform(0.5, 4.0), 3))
    b.add_flow_port("in1").add_waste_port("out1")
    b.add_channel("in1", name[cells[0]], 1.0)
    b.add_channel(name[cells[-1]], "out1", 1.0)
    return b.build()


def assert_network_matches(chip, twin):
    assert chip.nodes == list(twin.nodes)
    assert chip.edges() == list(twin.edges)
    for a, b in chip.edges():
        assert chip.edge_length_mm(a, b) == twin.edges[a, b][WEIGHT]
    for node in chip.nodes:
        assert chip.neighbors(node) == list(twin.neighbors(node))
        assert chip.degree(node) == twin.degree(node)
    kernel = PathKernel(chip)
    nodes, offsets, targets, weights = nx_csr(twin, chip.parameters.cell_pitch_mm)
    assert kernel.nodes == nodes
    assert list(kernel.offsets) == offsets
    assert list(kernel.targets) == targets
    assert list(kernel.weights) == weights


def target_sets(chip, rng, count):
    """Sorted target lists: windows of shortest paths (chains) and random sets."""
    interior = [n for n in chip.nodes if not chip.is_port(n)]
    kernel = PathKernel(chip)
    out = []
    for _ in range(count):
        a, b = rng.sample(interior, 2)
        path = [n for n in kernel.shortest(a, b)[0] if not chip.is_port(n)]
        start = rng.randrange(len(path))
        out.append(sorted(path[start:start + rng.randint(1, 6)]))
        out.append(sorted(rng.sample(interior, rng.randint(2, min(5, len(interior))))))
    return out


def assert_subsets_match(chip, twin, rng, count=15):
    router = Router(chip)
    for targets in target_sets(chip, rng, count):
        assert router._chain_order(targets) == nx_chain_order(twin, targets)
        mine = sorted(sorted(c) for c in chip.components(targets))
        ref = sorted(sorted(c) for c in nx.connected_components(twin.subgraph(targets)))
        assert mine == ref


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_random_grid_matches_networkx(seed):
    chip, twin = with_twin(lambda: random_grid_chip(seed))
    assert_network_matches(chip, twin)
    assert_subsets_match(chip, twin, random.Random(seed))


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_chip_matches_networkx(name):
    spec = BENCHMARKS[name]
    devices = build_device_list(spec.inventory)
    chip, twin = with_twin(lambda: generate_layout(devices, name=f"{name}-chip"))
    assert_network_matches(chip, twin)
    assert_subsets_match(chip, twin, random.Random(name), count=40)
    chains = [t for t in target_sets(chip, random.Random(name), 40) if len(t) > 2]
    assert any(Router(chip)._chain_order(t) for t in chains)
