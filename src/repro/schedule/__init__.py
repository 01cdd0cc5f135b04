"""Schedule substrate: task records, timelines and conflict detection.

The synthesis flow (:mod:`repro.synth`) produces a :class:`Schedule` of
biochemical operations, fluid transport tasks (:math:`p_{j,i,1}`), excess
removal tasks (:math:`p_{j,i,2}`) and waste disposal flows; the wash
optimizers (:mod:`repro.core`, :mod:`repro.baselines`) extend it with wash
tasks and re-time everything.  :class:`Timeline` answers the occupancy
queries both need: which chip nodes are busy when, and where the earliest
conflict-free slot for a new flow is.

Every name resolves on first access (PEP 562), so planning never loads
the Gantt renderer.
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.schedule.tasks": ("ScheduledTask", "TaskKind"),
        "repro.schedule.timeline": ("Timeline", "intervals_overlap"),
        "repro.schedule.schedule": ("Schedule",),
        "repro.schedule.gantt": ("render_gantt",),
    },
)
