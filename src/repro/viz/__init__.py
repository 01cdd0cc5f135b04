"""Text visualization helpers used by the examples.

Both resolve on first access (PEP 562).
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.viz.ascii_chip": ("render_chip",),
        "repro.schedule.gantt": ("render_gantt",),
    },
)
