"""Command-line entry: ``python -m repro.experiments <report>``."""

from __future__ import annotations

import argparse
import sys

from repro.core import PDWConfig
from repro.experiments.ablation import ablation_report
from repro.experiments.fig4 import fig4_report
from repro.experiments.fig5 import fig5_report
from repro.experiments.necessity_stats import necessity_report
from repro.experiments.pareto import pareto_report
from repro.experiments.table2 import table2_report
from repro.experiments.timings import timings_report

REPORTS = (
    "table2", "fig4", "fig5", "ablation", "necessity", "pareto", "timings", "all",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("report", choices=REPORTS, help="which artifact to regenerate")
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="benchmark subset (default: the full Table II suite)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=120.0,
        help="ILP time limit per benchmark in seconds (default 120)",
    )
    args = parser.parse_args(argv)
    config = PDWConfig(time_limit_s=args.time_limit)

    if args.report in ("table2", "all"):
        print(table2_report(args.benchmarks, config))
    if args.report in ("fig4", "all"):
        print(fig4_report(args.benchmarks, config))
    if args.report in ("fig5", "all"):
        print(fig5_report(args.benchmarks, config))
    if args.report in ("ablation", "all"):
        print(ablation_report(args.benchmarks, config))
    if args.report in ("necessity", "all"):
        print(necessity_report(args.benchmarks))
    if args.report in ("timings", "all"):
        print(timings_report(args.benchmarks, config))
    if args.report == "pareto":
        print(pareto_report(args.benchmarks[0] if args.benchmarks else "PCR", config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
