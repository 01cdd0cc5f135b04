"""``pdw report degrade`` — the robustness table from journaled matrix runs.

Every degradation-matrix cell (:class:`~repro.degrade.suite.Cell`) appends an
``"event": "degrade"`` record to the suite journal; this report reads
them back (latest record per benchmark × scenario wins, so re-runs
supersede stale rows) and renders the robustness table without
re-executing anything — same contract as ``pdw report failures``.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.reporting import render_table
from repro.sched import journal as sched_journal


def degrade_report(journal_path: Optional[Path] = None) -> str:
    """Render the journaled degradation-matrix history as text."""
    path = sched_journal.journal_or_default(journal_path)
    records = sched_journal.read_records(path)
    latest: Dict[Tuple[str, str], dict] = {}
    for record in records:
        if record.get("event") != "degrade":
            continue
        key = (str(record.get("benchmark", "?")), str(record.get("scenario", "?")))
        latest[key] = record  # journal order: later records supersede

    title = f"Degradation robustness table ({path})\n"
    if not latest:
        return title + "no degrade runs on record\n"

    headers = [
        "When (UTC)", "Benchmark", "Scenario", "Outcome",
        "Coverage", "Dead", "Washes", "Repairs", "Detail",
    ]
    rows: List[List[str]] = []
    for key in sorted(latest):
        record = latest[key]
        when = datetime.fromtimestamp(
            float(record.get("ts", 0.0)), tz=timezone.utc
        ).strftime("%Y-%m-%d %H:%M:%S")
        coverage = float(record.get("coverage", 1.0))
        detail = str(record.get("message", ""))
        uncovered = record.get("uncovered") or []
        if not detail and uncovered:
            detail = "uncovered: " + ",".join(str(n) for n in uncovered[:4])
        if len(detail) > 48:
            detail = detail[:45] + "..."
        rows.append(
            [
                when,
                key[0],
                key[1],
                str(record.get("outcome", "?")),
                f"{100.0 * coverage:.0f}%",
                str(len(record.get("dead") or [])),
                str(record.get("washes", 0)),
                str(record.get("repair_rounds", 0)),
                detail,
            ]
        )
    summary = _summary_line(latest)
    return title + render_table(headers, rows) + "\n" + summary


def _summary_line(latest: Dict[Tuple[str, str], dict]) -> str:
    counts: Dict[str, int] = {}
    for record in latest.values():
        outcome = str(record.get("outcome", "?"))
        counts[outcome] = counts.get(outcome, 0) + 1
    parts = [f"{outcome}={counts[outcome]}" for outcome in sorted(counts)]
    return f"{len(latest)} cells: " + ", ".join(parts) + "\n"
