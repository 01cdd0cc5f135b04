"""Unit tests for sequencing graphs, fluid typing and operations."""

import pytest

from repro.assay import Operation, Reagent, SequencingGraph
from repro.assay.fluids import Fluid, buffer_fluid, composite_fluid
from repro.assay.operations import default_duration, is_transformative, spec_for
from repro.errors import AssayError


@pytest.fixture
def graph(demo_assay):
    return demo_assay


class TestOperationTaxonomy:
    def test_detect_is_pass_through(self):
        assert not is_transformative("detect")
        assert not is_transformative("store")

    def test_mix_and_heat_transform(self):
        assert is_transformative("mix")
        assert is_transformative("heat")

    def test_unknown_type_rejected(self):
        with pytest.raises(KeyError):
            spec_for("levitate")

    def test_default_durations_positive(self):
        assert default_duration("mix") == 5
        assert default_duration("detect") == 4


class TestFluids:
    def test_same_type_does_not_contaminate(self):
        a, b = Fluid("x", "serum"), Fluid("y", "serum")
        assert not a.contaminates(b)

    def test_different_types_contaminate(self):
        assert Fluid("x", "serum").contaminates(Fluid("y", "dye"))

    def test_buffer_never_contaminates(self):
        buf = buffer_fluid()
        assert buf.is_buffer
        assert not buf.contaminates(Fluid("y", "dye"))
        assert not Fluid("y", "dye").contaminates(buf)

    def test_composite_fluid_embeds_op_identity(self):
        a = composite_fluid("o1", "mix", ["x", "y"])
        b = composite_fluid("o2", "mix", ["x", "y"])
        assert a != b

    def test_composite_fluid_input_order_irrelevant(self):
        assert composite_fluid("o1", "mix", ["x", "y"]) == composite_fluid(
            "o1", "mix", ["y", "x"]
        )


class TestGraphConstruction:
    def test_duplicate_ids_rejected(self, graph):
        with pytest.raises(AssayError):
            graph.add_reagent(Reagent("r1", "again"))
        with pytest.raises(AssayError):
            graph.add_operation(Operation("o1", "mix"), ["r1"])

    def test_unknown_input_rejected(self, graph):
        with pytest.raises(AssayError):
            graph.add_operation(Operation("oX", "mix"), ["ghost"])

    def test_operation_needs_inputs(self, graph):
        with pytest.raises(AssayError):
            graph.add_operation(Operation("oX", "mix"), [])

    def test_duration_defaults_by_type(self):
        assert Operation("o", "mix").duration == 5
        assert Operation("o", "mix", 9).duration == 9

    def test_add_input_extends_edges(self, graph):
        before = graph.edge_count
        graph.add_reagent(Reagent("extra", "water"))
        graph.add_input("o1", "extra")
        assert graph.edge_count == before + 1

    def test_add_input_rejects_duplicates(self, graph):
        with pytest.raises(AssayError):
            graph.add_input("o1", "r1")


class TestGraphQueries:
    def test_counts(self, graph):
        assert graph.operation_count == 6
        # 4 reagent edges + 5 internal + 1 terminal
        assert graph.edge_count == 10

    def test_terminal_operations(self, graph):
        assert graph.terminal_operations() == ["o6"]

    def test_inputs_and_consumers(self, graph):
        assert graph.inputs_of("o5") == ["o3", "o4"]
        assert graph.consumers_of("o1") == ["o3"]

    def test_topological_order_respects_dependencies(self, graph):
        order = graph.topological_operations()
        assert order.index("o1") < order.index("o3") < order.index("o5")

    def test_required_device_kinds(self, graph):
        kinds = graph.required_device_kinds()
        assert kinds == {"mixer": 3, "detector": 2, "heater": 1}


class TestFluidPropagation:
    def test_reagents_keep_their_type(self, graph):
        types = graph.fluid_types()
        assert types["r1"] == "sample"

    def test_pass_through_detect(self, graph):
        types = graph.fluid_types()
        assert types["o3"] == types["o1"]
        assert types["o6"] == types["o5"]

    def test_transformative_creates_new_type(self, graph):
        types = graph.fluid_types()
        assert types["o1"] not in ("sample", "enzyme")
        assert types["o1"] != types["o2"]

    def test_heat_transforms(self, graph):
        types = graph.fluid_types()
        assert types["o4"] != types["o2"]


class TestValidation:
    def test_valid_graph_passes(self, graph):
        graph.validate()

    def test_unused_reagent_flagged(self, graph):
        graph.add_reagent(Reagent("lonely", "water"))
        assert any("lonely" in issue for issue in graph.issues())

    def test_multi_input_pass_through_flagged(self):
        g = SequencingGraph("bad")
        g.add_reagent(Reagent("r1", "a"))
        g.add_reagent(Reagent("r2", "b"))
        g.add_operation(Operation("o1", "detect"), ["r1", "r2"])
        assert any("pass-through" in issue for issue in g.issues())
        with pytest.raises(AssayError):
            g.validate()

    def test_back_edge_is_a_dependency_cycle(self, graph):
        graph.add_input("o1", "o5")  # o1 -> o3 -> o5 -> o1
        with pytest.raises(AssayError, match="dependency cycle") as info:
            graph.validate()
        message = str(info.value)
        for edge in [("o1", "o3"), ("o3", "o5"), ("o5", "o1")]:
            assert repr(edge) in message
        with pytest.raises(AssayError, match="dependency cycle"):
            graph.topological_operations()

    def test_self_loop_is_a_dependency_cycle(self, graph):
        graph.add_input("o5", "o5")
        assert any("dependency cycle: [('o5', 'o5')]" in i for i in graph.issues())

    def test_empty_graph_invalid(self):
        g = SequencingGraph("empty")
        assert g.issues()

    def test_name_required(self):
        with pytest.raises(AssayError):
            SequencingGraph("")
