"""Exporters: wash plans, schedules and valve control programs.

Downstream consumers of a wash-optimized assay are (a) humans reviewing a
plan, (b) other EDA tools, and (c) the pressure controller actually driving
the chip.  This package serves all three:

* :func:`~repro.export.plan_json.plan_to_dict` /
  :func:`~repro.export.plan_json.plan_to_json` — full machine-readable
  plan (tasks, washes, metrics),
* :func:`~repro.export.actuation.actuation_program` — the tick-by-tick
  valve program (CSV) a controller executes,
* :func:`~repro.viz.svg.render_svg` (re-exported) — layout drawings.

Every name resolves on first access (PEP 562): a plan's canonical JSON
loads neither the actuation program nor the SVG renderer.
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.export.plan_json": (
            "canonical_plan_dict",
            "canonical_plan_json",
            "plan_to_dict",
            "plan_to_json",
        ),
        "repro.export.actuation": ("actuation_program",),
        "repro.viz.svg": ("render_svg",),
    },
)
