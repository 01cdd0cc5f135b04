"""PathDriver-Wash (PDW) — the paper's primary contribution.

The optimizer takes a synthesis result (chip + wash-free schedule), runs the
wash-necessity analysis of Section II-A, groups the required wash targets
into wash operations, generates candidate port-to-port wash paths, and
solves the ILP of Section III (Eqs. 1-26) to pick paths and time windows
that minimize

.. math::

    \\alpha N_{wash} + \\beta L_{wash} + \\gamma T_{assay}.

Entry point: :func:`~repro.core.pdw.optimize_washes` /
:class:`~repro.core.pdw.PathDriverWash`.

Every name resolves on first access (PEP 562): importing
``repro.core.config`` loads no optimizer, and a greedy-path plan never
loads the exact path ILP.
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("PDWConfig",),
        "repro.core.plan": ("WashOperation", "WashPlan"),
        "repro.core.targets": ("WashCluster", "cluster_requirements"),
        "repro.core.pathgen": ("candidate_paths",),
        "repro.core.path_ilp": ("exact_wash_path",),
        "repro.core.pdw": ("PathDriverWash", "optimize_washes"),
    },
)
