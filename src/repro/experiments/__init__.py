"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.experiments.table2` — Table II (DAWO vs PDW on
  :math:`N_{wash}`, :math:`L_{wash}`, :math:`T_{delay}`, :math:`T_{assay}`),
* :mod:`repro.experiments.fig4` — Fig. 4 (average waiting time of
  biochemical operations),
* :mod:`repro.experiments.fig5` — Fig. 5 (total wash time),
* :mod:`repro.experiments.ablation` — contribution-wise ablations of the
  PDW techniques (ours; motivated by Section II).

Run from the command line::

    python -m repro.experiments table2
    python -m repro.experiments fig4
    python -m repro.experiments fig5
    python -m repro.experiments ablation
    python -m repro.experiments all

Every name below resolves on first access (PEP 562), so importing one
submodule — ``repro.experiments.runner``, say, which every planning
process needs — loads none of the report modules.
"""

from repro.lazyutil import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.runner": (
            "BenchmarkRun",
            "FailureRecord",
            "SuiteResult",
            "adopt_run",
            "default_config",
            "run_benchmark",
            "run_suite",
        ),
        "repro.experiments.table2": ("table2_report",),
        "repro.experiments.fig4": ("fig4_report",),
        "repro.experiments.fig5": ("fig5_report",),
        "repro.experiments.ablation": ("ablation_report",),
        "repro.experiments.necessity_stats": ("necessity_report",),
        "repro.experiments.pareto": ("pareto_report",),
        "repro.experiments.timings": ("timings_report",),
    },
)
