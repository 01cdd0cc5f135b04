"""Bioassay modeling: fluids, operations and sequencing graphs.

A bioassay is "modeled as a sequencing graph G(O, E), where O is a set of
biochemical operations with specific execution times and E indicates the
dependencies between these operations" (Section II).  This package provides

* :class:`~repro.assay.operations.OperationSpec` — the operation taxonomy
  (mix, heat, detect, ...) with default durations and the
  transformative/pass-through distinction that drives Type 2 wash
  exemptions,
* :class:`~repro.assay.graph.SequencingGraph` — the DAG of reagent inputs
  and operations, with fluid-type propagation,
* JSON (de)serialization in :mod:`repro.assay.io`.

The names below resolve on first access, so importing one submodule
loads only what that submodule itself imports.
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.assay.fluids": ("Fluid", "composite_fluid"),
        "repro.assay.operations": (
            "OPERATION_TYPES", "OperationSpec", "is_transformative", "default_duration",
        ),
        "repro.assay.graph": ("Operation", "Reagent", "SequencingGraph"),
        "repro.assay.dsl": ("format_assay", "parse_assay"),
        "repro.assay.io": (
            "graph_from_dict", "graph_from_json", "graph_to_dict", "graph_to_json",
        ),
    },
)
