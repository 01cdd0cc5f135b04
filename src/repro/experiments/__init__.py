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
"""

from repro.experiments.runner import (
    BenchmarkRun,
    FailureRecord,
    SuiteResult,
    adopt_run,
    default_config,
    run_benchmark,
    run_suite,
)
from repro.experiments.table2 import table2_report
from repro.experiments.fig4 import fig4_report
from repro.experiments.fig5 import fig5_report
from repro.experiments.ablation import ablation_report
from repro.experiments.necessity_stats import necessity_report
from repro.experiments.pareto import pareto_report
from repro.experiments.timings import timings_report

__all__ = [
    "BenchmarkRun",
    "FailureRecord",
    "SuiteResult",
    "ablation_report",
    "adopt_run",
    "default_config",
    "fig4_report",
    "fig5_report",
    "necessity_report",
    "pareto_report",
    "run_benchmark",
    "run_suite",
    "table2_report",
    "timings_report",
]
