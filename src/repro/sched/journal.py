"""Append-only JSONL run journaling, shared by both suite executors.

The subprocess :class:`~repro.experiments.supervisor.SuiteSupervisor` and
the in-process :class:`~repro.sched.executor.DagExecutor` write the same
journal file (``<cache>/journal/suite.jsonl``) through these primitives,
so ``pdw report failures`` and ``--resume`` work identically under
either.  Benchmark-level events (``attempt``/``success``/``failure``/
``retry``/``metrics``) are common to both; the DAG executor additionally
records one event per stage node (``node_attempt``/``node_success``/
``node_retry``/``node_failure``/``node_cancelled``).

The file is append-only and reads are tolerant of a truncated final line
— the interruption resume exists to survive.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.forksafe import renew_lock_in_child

#: Serializes concurrent appends from the DAG executor's worker threads
#: (the supervisor appends from a single thread; sharing the lock is free).
_WRITE_LOCK = threading.Lock()
renew_lock_in_child(sys.modules[__name__], "_WRITE_LOCK")


def append_record(path: Path, record: dict) -> None:
    """Append one timestamped JSONL record (one write per event)."""
    path = Path(path)
    payload = {"ts": time.time(), **record}
    line = json.dumps(payload, sort_keys=True) + "\n"
    with _WRITE_LOCK:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(line)


def journal_size(path: Path) -> int:
    """The journal's length in bytes now (0 when it does not exist yet): an
    offset :func:`read_records` can later start from."""
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def read_records(path: Path, offset: int = 0) -> List[dict]:
    """Parsed journal records from byte ``offset`` on, skipping malformed
    (truncated) lines."""
    records: List[dict] = []
    try:
        with Path(path).open("rb") as fh:
            fh.seek(offset)
            text = fh.read().decode("utf-8", errors="replace")
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def journaled_successes(records: Iterable[dict]) -> Dict[str, str]:
    """Latest terminal outcome per benchmark: ``{name: digest}`` of
    successes, dropping names whose most recent terminal event is a
    failure."""
    done: Dict[str, str] = {}
    for record in records:
        event = record.get("event")
        name = record.get("benchmark")
        if not name:
            continue
        if event == "success":
            done[name] = record.get("digest", "")
        elif event == "failure":
            done.pop(name, None)
    return done


def node_attempts(
    records: Iterable[dict],
    benchmark: Optional[str] = None,
    stage: Optional[str] = None,
) -> List[dict]:
    """The ``node_attempt`` events, optionally filtered.

    The chaos tests and the CI ``dag-executor`` job assert retry scoping
    through this view — e.g. "an injected ILP crash leaves exactly one
    pathgen attempt for that benchmark".
    """
    out: List[dict] = []
    for record in records:
        if record.get("event") != "node_attempt":
            continue
        if benchmark is not None and record.get("benchmark") != benchmark:
            continue
        if stage is not None and record.get("stage") != stage:
            continue
        out.append(record)
    return out
