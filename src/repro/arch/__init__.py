"""Chip architecture model for continuous-flow LoC biochips.

A chip is modeled as a *flow network*: a graph whose nodes are grid cells of
the paper's virtual grid ``R`` — channel junctions (the ``s_i`` switches of
Fig. 2), devices (mixer, heater, detectors, filter, ...), flow ports and
waste ports.  Edges are channel segments with a physical length.

Two construction routes are provided:

* :class:`~repro.arch.builder.ChipBuilder` — explicit construction used by
  the Fig. 2 preset (:func:`~repro.arch.presets.figure2_chip`) and by users
  describing their own chips,
* the synthesis flow in :mod:`repro.synth`, which places devices on a
  :class:`~repro.arch.grid.Grid` and routes channels automatically.

The names below resolve on first access, so importing one submodule
(``repro.arch.device`` for the benchmark table) loads only what that
submodule itself imports.
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.arch.device": ("Device", "DeviceKind"),
        "repro.arch.grid": ("Grid",),
        "repro.arch.chip": ("Chip", "NodeKind"),
        "repro.arch.builder": ("ChipBuilder",),
        "repro.arch.routing": ("Router",),
        "repro.arch.presets": ("figure2_chip",),
    },
)
