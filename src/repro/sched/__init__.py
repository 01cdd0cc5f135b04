"""Stage-DAG suite execution (the Polyphony-style worklist scheduler).

Turns a suite run into an explicit DAG of ``(benchmark, method, stage)``
nodes — edges derived from the stages' declared ``requires``/``provides``
dataflow, the PDW↔DAWO shared replay artifact a single node — and
executes it with a priority-ordered ready-worklist scheduler
(:class:`DagExecutor`), in process on a thread pool or, under a
wall-clock / address-space budget, one forked child per benchmark.
Entry points:

* :func:`repro.experiments.runner.run_suite` (in process),
* ``pdw suite`` (budgeted: one child per benchmark),
* ``pdw bench --sched-workers N`` and each ``pdw serve`` benchmark job,
* :func:`build_graph` for the static DAG alone.

The journal submodule (:mod:`repro.sched.journal`) holds the JSONL
append/read/replay primitives, :class:`~repro.sched.journal.RunBudget`
and the ``pdw report failures`` renderer.
"""

from repro.sched.graph import StageNode, build_graph

__all__ = ["DagExecutor", "StageNode", "build_graph"]


def __getattr__(name):
    # DagExecutor imports the runner layers; loading it lazily keeps
    # `import repro.sched.journal` light and cycle-free.
    if name == "DagExecutor":
        from repro.sched.executor import DagExecutor

        return DagExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
