"""Property tests: serialization round-trips on randomly generated artifacts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.device import Device, DeviceKind
from repro.arch.io import chip_from_json, chip_to_json
from repro.assay import graph_from_json, graph_to_json
from repro.assay.dsl import format_assay, parse_assay
from repro.bench.synthetic import synthetic_assay
from repro.errors import BenchmarkError
from repro.synth.layout import ArchSpec, generate_layout


def random_graph(seed, n_ops, slack):
    try:
        return synthetic_assay(f"g{seed}", n_ops, n_ops + slack, seed)
    except BenchmarkError:
        return None


@given(
    seed=st.integers(min_value=0, max_value=500),
    n_ops=st.integers(min_value=2, max_value=12),
    slack=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_assay_json_round_trip(seed, n_ops, slack):
    graph = random_graph(seed, n_ops, slack)
    if graph is None:
        return
    restored = graph_from_json(graph_to_json(graph))
    assert restored.operation_count == graph.operation_count
    assert restored.edge_count == graph.edge_count
    assert restored.fluid_types() == graph.fluid_types()


@given(
    seed=st.integers(min_value=0, max_value=500),
    n_ops=st.integers(min_value=2, max_value=12),
    slack=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_assay_dsl_round_trip(seed, n_ops, slack):
    graph = random_graph(seed, n_ops, slack)
    if graph is None:
        return
    restored = parse_assay(format_assay(graph))
    assert restored.operation_count == graph.operation_count
    assert sorted(r.id for r in restored.reagents) == sorted(
        r.id for r in graph.reagents
    )
    for op in graph.operations:
        assert restored.inputs_of(op.id) == graph.inputs_of(op.id)


@given(
    n_devices=st.integers(min_value=1, max_value=10),
    flow_ports=st.integers(min_value=1, max_value=5),
    waste_ports=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_chip_json_round_trip(n_devices, flow_ports, waste_ports):
    devices = [Device(f"mixer{i}", DeviceKind.MIXER) for i in range(1, n_devices + 1)]
    chip = generate_layout(devices, ArchSpec(flow_ports, waste_ports))
    restored = chip_from_json(chip_to_json(chip))
    assert restored.stats() == chip.stats()
    assert sorted(restored.nodes) == sorted(chip.nodes)
    assert restored.flow_ports == chip.flow_ports
    for a, b in chip.edges():
        assert restored.edge_length_mm(a, b) == chip.edge_length_mm(a, b)
