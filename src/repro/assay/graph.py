"""The sequencing graph :math:`G(O, E)` of a bioassay.

Nodes are reagent inputs (:class:`Reagent`) and biochemical operations
(:class:`Operation`); directed edges carry fluids from producers to
consumers.  The edge count reported for the paper's benchmarks (Table II,
column 2) includes reagent-input edges and terminal output edges — the only
reading consistent with e.g. Kinase act-1 having 4 operations but 16 edges —
so :attr:`SequencingGraph.edge_count` follows the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.assay.fluids import composite_fluid
from repro.assay.operations import default_duration, is_transformative, spec_for
from repro.errors import AssayError


@dataclass(frozen=True)
class Reagent:
    """An input reagent injected from a flow port."""

    id: str
    fluid_type: str

    def __post_init__(self) -> None:
        if not self.id:
            raise AssayError("reagent id cannot be empty")
        if not self.fluid_type:
            raise AssayError(f"reagent {self.id!r}: fluid type cannot be empty")


@dataclass(frozen=True)
class Operation:
    """A biochemical operation with an execution time.

    ``duration_s`` is the paper's :math:`t(o_i)`; when ``None`` it defaults
    to the taxonomy value for the operation type.
    """

    id: str
    op_type: str
    duration_s: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise AssayError("operation id cannot be empty")
        spec_for(self.op_type)  # raises on unknown types
        if self.duration_s is not None and self.duration_s < 1:
            raise AssayError(f"operation {self.id!r}: duration must be >= 1 s")

    @property
    def duration(self) -> int:
        """Effective execution time in seconds."""
        return self.duration_s if self.duration_s is not None else default_duration(self.op_type)


class SequencingGraph:
    """A validated bioassay DAG.

    Example
    -------
    >>> g = SequencingGraph("demo")
    >>> g.add_reagent(Reagent("r1", "sample"))
    >>> g.add_reagent(Reagent("r2", "enzyme"))
    >>> g.add_operation(Operation("o1", "mix"), inputs=["r1", "r2"])
    >>> g.add_operation(Operation("o2", "detect"), inputs=["o1"])
    >>> g.validate()
    >>> g.operation_count, g.edge_count
    (2, 4)
    """

    def __init__(self, name: str):
        if not name:
            raise AssayError("assay name cannot be empty")
        self.name = name
        #: Insertion-ordered adjacency: node -> {successor/predecessor: None}.
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}
        self._reagents: Dict[str, Reagent] = {}
        self._operations: Dict[str, Operation] = {}

    # -- construction ----------------------------------------------------------

    def _add_node(self, node_id: str) -> None:
        self._succ[node_id] = {}
        self._pred[node_id] = {}

    def _add_edge(self, src: str, dst: str) -> None:
        self._succ[src][dst] = None
        self._pred[dst][src] = None

    def add_reagent(self, reagent: Reagent) -> None:
        """Register an input reagent node."""
        if reagent.id in self._succ:
            raise AssayError(f"duplicate node id {reagent.id!r}")
        self._reagents[reagent.id] = reagent
        self._add_node(reagent.id)

    def add_operation(self, op: Operation, inputs: Sequence[str]) -> None:
        """Register an operation node consuming the given producers.

        ``inputs`` may name reagents or previously added operations; each
        input contributes one dependency edge (:math:`e_{j,i}`).
        """
        if op.id in self._succ:
            raise AssayError(f"duplicate node id {op.id!r}")
        if not inputs:
            raise AssayError(f"operation {op.id!r} must consume at least one input")
        for src in inputs:
            if src not in self._succ:
                raise AssayError(f"operation {op.id!r}: unknown input {src!r}")
        self._operations[op.id] = op
        self._add_node(op.id)
        for src in inputs:
            self._add_edge(src, op.id)

    def add_input(self, op_id: str, src: str) -> None:
        """Add an extra dependency edge from ``src`` into existing ``op_id``.

        Used by benchmark generators to top up multi-reagent operations.
        """
        if op_id not in self._operations:
            raise AssayError(f"unknown operation {op_id!r}")
        if src not in self._succ:
            raise AssayError(f"unknown input {src!r}")
        if op_id in self._succ[src]:
            raise AssayError(f"edge {src!r} -> {op_id!r} already exists")
        self._add_edge(src, op_id)

    # -- queries -----------------------------------------------------------------

    @property
    def reagents(self) -> List[Reagent]:
        """All reagent inputs, in insertion order."""
        return list(self._reagents.values())

    @property
    def operations(self) -> List[Operation]:
        """All operations, in insertion order."""
        return list(self._operations.values())

    def operation(self, op_id: str) -> Operation:
        """Look up an operation by id."""
        try:
            return self._operations[op_id]
        except KeyError:
            raise AssayError(f"unknown operation {op_id!r}") from None

    def is_reagent(self, node_id: str) -> bool:
        """Whether ``node_id`` names a reagent input."""
        return node_id in self._reagents

    def inputs_of(self, op_id: str) -> List[str]:
        """Producer node ids feeding ``op_id``."""
        return sorted(self._pred[op_id])

    def consumers_of(self, node_id: str) -> List[str]:
        """Operation ids consuming the output of ``node_id``."""
        return sorted(self._succ[node_id])

    def terminal_operations(self) -> List[str]:
        """Operations whose output leaves the chip as assay product/waste."""
        return [o.id for o in self.operations if not self.consumers_of(o.id)]

    def dependency_edges(self) -> List[Tuple[str, str]]:
        """All (producer, consumer) edges, producers may be reagents."""
        return [(src, dst) for src, succ in self._succ.items() for dst in succ]

    def _topological_order(self) -> List[str]:
        """All node ids in Kahn order; :class:`AssayError` on a cycle.

        ``order`` doubles as the FIFO queue: the producer-free nodes come
        first, and each node is appended once its last producer has been
        taken off the queue.  So the order runs generation by generation
        (every node of one all-inputs-ready layer before any of the next),
        which is the order ``networkx.topological_sort`` yields.
        """
        indegree = {n: len(pred) for n, pred in self._pred.items() if pred}
        order = [n for n, pred in self._pred.items() if not pred]
        for node in order:  # grows while it is walked
            for child in self._succ[node]:
                indegree[child] -= 1
                if not indegree[child]:
                    order.append(child)
                    del indegree[child]
        if indegree:
            raise AssayError(f"dependency cycle: {self._cycle_in(indegree)}")
        return order

    def _cycle_in(self, blocked: Dict[str, int]) -> List[Tuple[str, str]]:
        """One cycle among ``blocked`` nodes, as its list of edges.

        Every node Kahn's pass never released keeps a producer that was
        never released either (``blocked`` maps them to their remaining
        in-degree), so walking such producers back from any
        blocked node must revisit one: that loop is a cycle.
        """
        walk = [next(iter(blocked))]
        at = {walk[0]: 0}
        while True:
            prev = next(p for p in self._pred[walk[-1]] if p in blocked)
            if prev in at:
                loop = walk[at[prev]:][::-1]
                return list(zip(loop, loop[1:] + loop[:1]))
            at[prev] = len(walk)
            walk.append(prev)

    def topological_operations(self) -> List[str]:
        """Operation ids in a valid execution order."""
        self.validate()
        return [n for n in self._topological_order() if n in self._operations]

    # -- size metrics (Table II conventions) ------------------------------------

    @property
    def operation_count(self) -> int:
        """|O| — number of biochemical operations."""
        return len(self._operations)

    @property
    def edge_count(self) -> int:
        """|E| — dependency edges plus terminal output edges (see module doc)."""
        return len(self.dependency_edges()) + len(self.terminal_operations())

    def required_device_kinds(self) -> Dict[str, int]:
        """How many concurrent devices each kind needs at minimum (>= 1 each)."""
        kinds: Dict[str, int] = {}
        for op in self.operations:
            kind = spec_for(op.op_type).device_kind.value
            kinds[kind] = kinds.get(kind, 0) + 1
        return kinds

    # -- fluid typing -----------------------------------------------------------

    def fluid_types(self) -> Dict[str, str]:
        """Output fluid type of every node (reagent or operation).

        Pass-through operations (detect, store) forward their single input
        type; transformative operations create a composite type via
        :func:`~repro.assay.fluids.composite_fluid`.
        """
        self.validate()
        types: Dict[str, str] = {r.id: r.fluid_type for r in self.reagents}
        for node in self._topological_order():
            if node in types:
                continue
            op = self._operations[node]
            input_types = [types[src] for src in self.inputs_of(node)]
            if is_transformative(op.op_type):
                types[node] = composite_fluid(op.id, op.op_type, input_types)
            else:
                types[node] = input_types[0]
        return types

    # -- validation -------------------------------------------------------------

    def issues(self) -> List[str]:
        """Structural problems, empty when the assay is well-formed."""
        problems: List[str] = []
        if not self._operations:
            problems.append("assay has no operations")
        if not self._reagents:
            problems.append("assay has no input reagents")
        try:
            self._topological_order()
        except AssayError as exc:
            problems.append(str(exc))
        for reagent in self._reagents.values():
            if not self._succ[reagent.id]:
                problems.append(f"reagent {reagent.id!r} is never consumed")
        for op in self._operations.values():
            if not is_transformative(op.op_type) and len(self.inputs_of(op.id)) > 1:
                problems.append(
                    f"pass-through operation {op.id!r} ({op.op_type}) "
                    "cannot merge multiple inputs"
                )
        return problems

    def validate(self) -> None:
        """Raise :class:`~repro.errors.AssayError` on any structural problem."""
        problems = self.issues()
        if problems:
            raise AssayError(f"assay {self.name!r}: " + "; ".join(problems))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SequencingGraph({self.name!r}, |O|={self.operation_count}, "
            f"|E|={self.edge_count}, reagents={len(self._reagents)})"
        )
