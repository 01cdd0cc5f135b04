"""Suite execution: the benchmark worklist and its run journal.

:class:`~repro.sched.executor.SuiteExecutor` runs a suite as a worklist
of benchmarks, each attempt one
:func:`~repro.experiments.runner.run_benchmark` — inline, or under a
wall-clock / address-space budget in one forked child per attempt.
Entry points:

* :func:`repro.experiments.runner.run_suite` (inline),
* ``pdw suite`` (budgeted: one child per attempt),
* each ``pdw serve`` benchmark job (inline, in the job's child).

The journal submodule (:mod:`repro.sched.journal`) holds the JSONL
append/read/replay primitives, the process's stage-record setting,
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
