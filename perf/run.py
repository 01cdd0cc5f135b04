"""Run the repository benchmark.

    python3 perf/run.py [--workload W ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--runs N] [--out FILE] [--smoke]

Without ``--trace`` every chosen workload runs untraced once per seed and
then traced once, at the first seed; only table2-cold has a separate
traced run, the other workloads print the per-layer values of their first
untraced run.
Each (workload, trace) run prints its metrics by name with their units,
then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--out`` writes every run, with its samples, checks and plan digests, to
one JSON file that ``perf/check.py`` compares.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import END_TO_END, INFO, PER_LAYER, ROOT, HarnessError, Scratch
from workloads import TRACED, WORKLOADS, Options, Outcome

#: Default seed and the reference plan digests ``plan_drift`` compares to.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(outcome: Outcome, trace: bool) -> dict:
    declared = PER_LAYER if trace else END_TO_END
    values = outcome.layers if trace else outcome.metrics
    return {
        "correct": not outcome.checks and set(values) >= set(declared),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()
            if name in values
        },
    }


def info_values(outcome: Outcome, trace: bool) -> dict:
    """The ungated end-to-end timings of an untraced run."""
    return {} if trace else {n: outcome.metrics[n] for n in INFO if n in outcome.metrics}


def report(workload: str, seed: int, trace: bool, outcome: Outcome, line: dict) -> None:
    mode = "traced" if trace else "end-to-end"
    print(f"== {workload} seed={seed} {mode}: attempted={line['attempted']} "
          f"failed={line['failed']} correct={line['correct']}")
    for name, metric in line["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in info_values(outcome, trace).items():
        print(f"  {name:28s} {value:14.6g} {INFO[name]} (information, no bound)")
    for check in outcome.checks:
        print(f"  CHECK FAILED: {check}")
    for drift in outcome.plan_drift:
        print(f"  plan_drift: {drift}")
    print(json.dumps(line, sort_keys=True), flush=True)


def precompile() -> None:
    """Byte-compile the sources once, untimed, so no sample pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
    )


def parse_args(argv, config: dict, reference: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=config["run_seconds"],
                        help="measured time per run: sampling stops once another "
                        "sample would end past it and the workload's least sample "
                        "count is reached (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, 1: per-layer only "
                        "(default: both, untraced first)")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each run with seeds seed, seed+1, ...")
    parser.add_argument("--out", type=Path, default=None, help="result file")
    parser.add_argument("--smoke", action="store_true",
                        help="Kinase-act-1 only, a 10-request serve trace, one sample each")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    config = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(REFERENCE_PATH)
    args = parse_args(argv, config, reference)
    workloads = args.workload or list(WORKLOADS)
    seeds = [args.seed + offset for offset in range(args.runs)]
    if args.trace is None:
        schedule = [(seed, False) for seed in seeds] + [(seeds[0], True)]
    else:
        schedule = [(seed, bool(args.trace)) for seed in seeds]
    # SIGTERM unwinds like Ctrl-C, so every child is killed and reaped and
    # the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    precompile()

    runs = []
    # Plans do not depend on the seed: later runs check against the first
    # table2-cold run's digests.
    table2_digests: dict = {}
    # The first untraced outcome of each workload, whose per-layer values
    # serve its traced line when the workload has no separate traced run.
    first: dict = {}
    for seed, trace in schedule:
        for workload in workloads:
            started = time.perf_counter()
            if trace and workload not in TRACED and workload in first:
                outcome = first[workload]
            else:
                with Scratch() as scratch:
                    opts = Options(seed=seed, seconds=args.seconds, scratch=scratch,
                                   reference=reference["digests"],
                                   smoke=args.smoke, table2_digests=table2_digests)
                    procedure = TRACED.get(workload) if trace else None
                    try:
                        outcome = (procedure or WORKLOADS[workload])(opts)
                    except HarnessError as exc:
                        outcome = Outcome()
                        outcome.fail(str(exc))
                if not trace:
                    first.setdefault(workload, outcome)
            line = result_line(outcome, trace)
            report(workload, seed, trace, outcome, line)
            runs.append({"workload": workload, "seed": seed, "trace": int(trace),
                         "seconds": args.seconds, "run_wall_s": time.perf_counter() - started,
                         **line, "info": info_values(outcome, trace), "checks": outcome.checks,
                         "plan_drift": outcome.plan_drift, "detail": outcome.detail})

    if args.out is not None:
        args.out.write_text(
            json.dumps({"schema": "pdw-perf/1", "runs": runs}, indent=1, default=str) + "\n",
            encoding="utf-8",
        )
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
