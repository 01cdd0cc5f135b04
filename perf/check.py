"""Compare two benchmark result files under the bounds in BENCHMARK.json.

    python3 perf/check.py BASE.json NEW.json
    python3 perf/check.py BASE_1.json BASE_2.json ... -- NEW_1.json NEW_2.json ...

The files come from ``perf/run.py --out``, usually with ``--runs 10``;
with ``--``, the runs of all files on each side are pooled (one file per
alternating A/B pair).
For every workload and end-to-end metric the verdict is:

* ``ok`` — NEW's median is no worse than BASE's by more than the bound;
* ``regression`` — it is worse by more than the bound;
* ``unresolved`` — the spread of either side (interquartile distance over
  median) exceeds the bound, so the comparison cannot tell, unless every
  NEW run reads better than every BASE run.

The ungated end-to-end timings (``harness.INFO``) follow with their
medians, change and spread, and no verdict.

Before comparing, it validates BENCHMARK.json (metric names, counts,
units, bounds: at most 0.10 on a timing) against the metrics the harness
declares and emits.  Exits 0 only when the files are valid and every
verdict is ``ok``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List

from harness import END_TO_END, INFO, PER_LAYER, ROOT, median, spread

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
#: Bounds on timings (units of time or rate) are no looser than this.
MAX_TIMING_BOUND = 0.10
TIMING_UNITS = ("s", "1/s")
#: Counts that repeat exactly for fixed code; a change in them is reported.
EXACT = ("arch.pathkernel.queries", "ilp.rows", "ilp.binaries",
         "n_wash", "l_wash_mm", "t_delay_s", "t_assay_s")


def validate_config(config: dict) -> List[str]:
    """Problems with BENCHMARK.json's metric lists (empty when valid)."""
    problems = []
    for section, declared, cap in (
        ("end_to_end", END_TO_END, MAX_END_TO_END),
        ("per_layer", PER_LAYER, MAX_PER_LAYER),
    ):
        entries = config.get(section, [])
        if not 1 <= len(entries) <= cap:
            problems.append(f"{section}: {len(entries)} metrics, allowed 1..{cap}")
        names = [e.get("name", "") for e in entries]
        for entry in entries:
            name = entry.get("name", "")
            if not NAME.match(name):
                problems.append(f"{section}: bad metric name {name!r}")
            if not UNIT.match(entry.get("unit", "")):
                problems.append(f"{section}: {name} has a bad unit {entry.get('unit')!r}")
            if entry.get("better") not in ("lower", "higher"):
                problems.append(f"{section}: {name} 'better' must be lower or higher")
            if section == "end_to_end":
                bound = entry.get("bound")
                limit = MAX_TIMING_BOUND if entry.get("unit") in TIMING_UNITS else MAX_BOUND
                if not isinstance(bound, (int, float)) or not 0 < bound <= limit:
                    problems.append(f"{section}: {name} bound {bound!r} not in (0, {limit}]")
            if declared.get(name, entry.get("unit")) != entry.get("unit"):
                problems.append(f"{section}: {name} unit {entry.get('unit')} but the "
                                f"harness emits {declared[name]}")
        for dup in sorted({n for n in names if names.count(n) > 1}):
            problems.append(f"{section}: {dup} declared twice")
        for name in sorted(set(declared) - set(names)):
            problems.append(f"{section}: harness emits {name}, BENCHMARK.json lacks it")
        for name in sorted(set(names) - set(declared)):
            problems.append(f"{section}: BENCHMARK.json declares {name}, harness lacks it")
    return problems


def validate_results(payload: dict, config: dict, label: str) -> List[str]:
    """Metric names a result file carries that BENCHMARK.json does not declare."""
    declared = {
        0: {e["name"] for e in config["end_to_end"]},
        1: {e["name"] for e in config["per_layer"]},
    }
    problems = []
    for run in payload["runs"]:
        for name in sorted(set(run["metrics"]) - declared[run["trace"]]):
            problems.append(f"{label}: {run['workload']} emits undeclared {name}")
    return problems


def series(payload: dict, trace: int) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` over the runs of one mode,
    the ungated timings of untraced runs included."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in payload["runs"]:
        if run["trace"] != trace:
            continue
        per = out.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
        for name, value in run.get("info", {}).items():
            per.setdefault(name, []).append(value)
    return out


def verdict(base: List[float], new: List[float], bound: float, lower: bool):
    """``(verdict, worse_by, spread)`` of NEW against BASE."""
    mb, mn = median(base), median(new)
    worse = ((mn - mb) if lower else (mb - mn)) / abs(mb) if mb else 0.0
    noise = max(spread(base), spread(new))
    if noise > bound:
        clear = max(new) < min(base) if lower else min(new) > max(base)
        return ("ok" if clear else "unresolved"), worse, noise
    return ("regression" if worse > bound else "ok"), worse, noise


def compare(base: dict, new: dict, config: dict) -> List[str]:
    """Print the verdict table; return the failing lines."""
    failing = []
    bounds = {e["name"]: e for e in config["end_to_end"]}
    sb, sn = series(base, 0), series(new, 0)
    print(f"{'workload':16s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'worse':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in config["workloads"]]:
        for name, entry in bounds.items():
            b = sb.get(workload, {}).get(name)
            n = sn.get(workload, {}).get(name)
            if not b or not n:
                line = f"{workload:16s} {name:12s} missing on {'base' if not b else 'new'}"
                print(line)
                failing.append(line)
                continue
            result, worse, noise = verdict(b, n, entry["bound"], entry["better"] == "lower")
            line = (f"{workload:16s} {name:12s} {median(b):12.6g} {median(n):12.6g} "
                    f"{100 * worse:+7.2f}% {100 * noise:6.2f}% {100 * entry['bound']:5.1f}%  "
                    f"{result} (n={len(b)}/{len(n)})")
            print(line)
            if result != "ok":
                failing.append(line)
    print(f"\n{'workload':16s} {'timing':12s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s}  (information: no bound holds on a shared host)")
    for workload in [w["name"] for w in config["workloads"]]:
        for name in INFO:
            b = sb.get(workload, {}).get(name)
            n = sn.get(workload, {}).get(name)
            if b and n:
                change = (median(n) - median(b)) / abs(median(b)) if median(b) else 0.0
                print(f"{workload:16s} {name:12s} {median(b):12.6g} {median(n):12.6g} "
                      f"{100 * change:+7.2f}% {100 * max(spread(b), spread(n)):6.2f}%")
    for trace in (0, 1):
        tb, tn = series(base, trace), series(new, trace)
        for workload in sorted(set(tb) & set(tn)):
            for name in EXACT:
                b, n = tb[workload].get(name), tn[workload].get(name)
                if b and n and (set(b) != set(n) or len(set(b)) > 1):
                    print(f"note: {workload} {name} does not repeat exactly: "
                          f"{sorted(set(b))} vs {sorted(set(n))}")
    return failing


def load_side(paths: List[str]) -> dict:
    """The runs of every result file in ``paths``, pooled."""
    runs = []
    for path in paths:
        runs += json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    return {"runs": runs}


def main(argv: List[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        base_paths, new_paths = argv[:cut], argv[cut + 1:]
    else:
        base_paths, new_paths = argv[:1], argv[1:]
    if not base_paths or not new_paths or ("--" not in argv and len(argv) != 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load_side(base_paths), load_side(new_paths)
    problems = validate_config(config)
    problems += validate_results(base, config, "base")
    problems += validate_results(new, config, "new")
    for problem in problems:
        print(f"invalid: {problem}")
    failing = compare(base, new, config)
    print(f"{len(failing)} failing comparison(s), {len(problems)} validation problem(s)")
    return 0 if not failing and not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
