"""Suite execution: the work-item worklist and its run journal.

:class:`~repro.sched.executor.SuiteExecutor` runs a suite as a worklist
of benchmarks (each attempt one
:func:`~repro.experiments.runner.run_benchmark`) or of degradation-matrix
cells (each attempt one :meth:`~repro.degrade.suite.Cell.plan`) — inline,
or under a wall-clock / address-space budget in one forked child per
attempt.  Entry points:

* :func:`repro.experiments.runner.run_suite` (inline),
* ``pdw suite`` with or without ``--degrade`` (budgeted: one child per
  attempt).

A retry, or a later run of the same suite, gets every stage that
finished before back from the per-stage artifact cache; the journal only
records what happened.  The journal submodule (:mod:`repro.sched.journal`)
holds the JSONL append/read primitives, the process's stage-record
setting (which ``pdw serve`` jobs use too),
:class:`~repro.sched.journal.RunBudget` and the ``pdw report failures``
renderer.
"""

__all__ = ["SuiteExecutor"]


def __getattr__(name):
    # SuiteExecutor imports the runner layers; loading it lazily keeps
    # `import repro.sched.journal` light and cycle-free.
    if name == "SuiteExecutor":
        from repro.sched.executor import SuiteExecutor

        return SuiteExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
