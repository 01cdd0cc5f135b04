"""Baseline wash methods the paper compares against.

* :class:`~repro.baselines.dawo.DelayAwareWashOptimizer` — the DAWO method
  of [10] as described in Section IV: per-spot wash operations, BFS wash
  paths, sweep-line time-interval assignment, no necessity analysis and no
  removal integration.
* :func:`~repro.baselines.immediate.immediate_wash_plan` — a naive
  wash-everything-immediately policy, used by the ablation benches as a
  lower anchor.

Both resolve on first access (PEP 562).
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.dawo": ("DelayAwareWashOptimizer", "dawo_plan"),
        "repro.baselines.immediate": ("immediate_wash_plan",),
    },
)
