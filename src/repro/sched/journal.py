"""The suite's run journal, budgets and journal reports.

:class:`~repro.sched.executor.SuiteExecutor` (every ``pdw suite``, with
or without ``--degrade``) and ``pdw serve`` append to one JSONL file,
``<cache>/journal/suite.jsonl`` (:func:`default_journal_path`).
Work-item events are ``attempt``/``success``/``failure``/``retry``/
``metrics``, and a matrix cell's ``degrade`` row (those of a cell carry
its ``scenario``); serve adds ``serve`` lifecycle events.  While a process has
a run journal set (:func:`stage_journal`), every stage a
:class:`~repro.pipeline.stage.PipelineRun` records adds one ``stage``
event (:func:`record_stage`): ``pdw serve`` counts a job's own (they
carry its id) for job progress.
``pdw suite --resume`` skips journaled successes
(:func:`journaled_successes`), ``pdw report failures`` renders the
history (:func:`failures_report`) and :func:`merged_metrics` rebuilds a
run's metrics from the snapshots its benchmark processes journaled.

The file is append-only and reads are tolerant of a truncated final line
— the interruption resume exists to survive.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.forksafe import renew_lock_in_child
from repro.obs import metrics as obs_metrics

# The submodule, not the package: repro.pipeline.stage imports this module
# while repro.pipeline itself is still initializing.
from repro.pipeline.cache import ArtifactCache, default_cache, default_cache_dir

#: Serializes concurrent appends from the threads of one process (serve's
#: lifecycle events, the stage records of a job).
_WRITE_LOCK = threading.Lock()
renew_lock_in_child(sys.modules[__name__], "_WRITE_LOCK")

#: Journal file name, relative to the cache root.
JOURNAL_NAME = os.path.join("journal", "suite.jsonl")

#: Failure kinds worth retrying: a flaky crash or a stall can be
#: transient, while ``error`` (a deterministic ReproError) and ``oom``
#: (the same allocation will fail again under the same cap) are not.
RETRYABLE_KINDS = ("crash", "timeout")


@dataclass(frozen=True)
class RunBudget:
    """Per-benchmark execution limits and retry policy.

    Setting ``timeout_s`` or ``max_rss_bytes`` runs each benchmark in a
    forked child the executor kills past its budget.
    """

    #: Wall-clock seconds per attempt; the benchmark's child is killed past it.
    timeout_s: Optional[float] = None
    #: Best-effort address-space cap (``resource.setrlimit``) in bytes.
    max_rss_bytes: Optional[int] = None
    #: How many times a transient failure is retried (0 = never).
    retries: int = 0
    #: First backoff delay; doubles per retry, jittered, capped below.
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0

    @property
    def forks(self) -> bool:
        """Whether each benchmark runs in a forked child."""
        return self.timeout_s is not None or bool(self.max_rss_bytes)


def default_journal_path(cache: Optional[ArtifactCache] = None) -> Path:
    """Where the suite journal lives: under the artifact cache directory."""
    root = cache.root if cache is not None else default_cache_dir()
    return Path(root) / JOURNAL_NAME


def append_record(path: Path, record: dict) -> None:
    """Append one timestamped JSONL record (one write per event)."""
    path = Path(path)
    payload = {"ts": time.time(), **record}
    line = json.dumps(payload, sort_keys=True) + "\n"
    with _WRITE_LOCK:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(line)


#: This process's stage-record target, ``(journal, benchmark, job)``,
#: while a suite attempt or a serve job runs (:func:`stage_journal`);
#: ``None`` records nothing.
_STAGE_JOURNAL: Optional[Tuple[Path, str, Optional[str]]] = None


@contextmanager
def stage_journal(
    path: Optional[Path], benchmark: str, job: Optional[str] = None
) -> Iterator[None]:
    """Journal every stage this process records as ``benchmark``'s, to
    ``path`` (``None``: to nowhere), for the duration of the block; each
    record carries the serve ``job`` id when one is given."""
    global _STAGE_JOURNAL
    previous = _STAGE_JOURNAL
    _STAGE_JOURNAL = (Path(path), benchmark, job) if path is not None else None
    try:
        yield
    finally:
        _STAGE_JOURNAL = previous


def record_stage(label: str, stage: str, origin: str) -> None:
    """Append one ``stage`` event when this process has a run journal set.

    ``label`` is the recording run's report label (``bench:PCR``,
    ``PDW:PCR``, ``DAWO:PCR``); its prefix, lower-cased, is the method.
    """
    target = _STAGE_JOURNAL
    if target is None:
        return
    path, benchmark, job = target
    record = {
        "event": "stage",
        "benchmark": benchmark,
        "method": label.split(":", 1)[0].lower(),
        "stage": stage,
        "origin": origin,
    }
    if job is not None:
        record["job"] = job
    append_record(path, record)


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


def journaled_successes(records: Iterable[dict]) -> Dict[Tuple[str, Optional[str]], dict]:
    """The finished work items and their terminal records, keyed by
    ``(benchmark, scenario)`` (``scenario`` ``None`` for a benchmark):
    a benchmark whose latest terminal event is a ``success``, a matrix
    cell whose latest ``degrade`` row is ``ok``."""
    done: Dict[Tuple[str, Optional[str]], dict] = {}
    for record in records:
        event = record.get("event")
        key = (record.get("benchmark"), record.get("scenario"))
        if not key[0]:
            continue
        if event == "success" or (event == "degrade" and record.get("ok")):
            done[key] = record
        elif event in ("failure", "degrade"):
            done.pop(key, None)
    return done


def journal_or_default(journal_path: Optional[Path]) -> Path:
    """``journal_path``, or the default cache's journal when ``None``."""
    if journal_path is not None:
        return Path(journal_path)
    return default_journal_path(default_cache())


def merged_metrics(journal_path: Optional[Path] = None) -> obs_metrics.MetricsRegistry:
    """Rebuild a run-wide metrics registry from the journal's snapshots.

    Offline counterpart of the ``metrics.json`` dump: every ``metrics``
    event (one per finished benchmark process) is merged in journal order.
    """
    snapshots = [
        rec["snapshot"]
        for rec in read_records(journal_or_default(journal_path))
        if rec.get("event") == "metrics" and isinstance(rec.get("snapshot"), dict)
    ]
    return obs_metrics.merge_snapshots(snapshots)


def failures_report(journal_path: Optional[Path] = None) -> str:
    """Render the suite journal's failure history as text."""
    from repro.experiments.reporting import render_table

    path = journal_or_default(journal_path)
    records = read_records(path)
    if not records:
        return f"no suite journal at {path}\n"

    headers = ["When (UTC)", "Benchmark", "Event", "Kind", "Attempt", "Message"]
    rows: List[List[str]] = []
    last_outcome: Dict[str, str] = {}
    for record in records:
        event = record.get("event")
        name = str(record.get("benchmark", "?"))
        if event == "success":
            last_outcome[name] = "ok"
            continue
        if event not in ("failure", "retry"):
            continue
        if event == "failure":
            last_outcome[name] = f"FAILED({record.get('kind', '?')})"
        when = datetime.fromtimestamp(
            float(record.get("ts", 0.0)), tz=timezone.utc
        ).strftime("%Y-%m-%d %H:%M:%S")
        message = str(record.get("message", ""))
        if len(message) > 100:
            message = message[:97] + "..."
        rows.append(
            [
                when, name, str(event), str(record.get("kind", "-")),
                str(record.get("attempt", "-")), message,
            ]
        )

    title = f"Suite failure journal ({path})\n"
    if not rows:
        return title + "no failures on record\n"
    text = title + render_table(headers, rows)
    text += "\nlatest outcome per benchmark:\n"
    for name in sorted(last_outcome):
        text += f"  {name}: {last_outcome[name]}\n"
    return text
