"""Hierarchical trace spans with an ambient (thread-local) context.

A *span* covers one timed region of work — a pipeline stage, a solver
ladder rung, a benchmark process's attempt — and nests under whatever span was
open on the same thread when it started::

    with span("pdw.pathgen") as sp:
        sp.set("candidates", len(pool))

Spans are recorded into the process-global :class:`Tracer` only while
tracing is enabled (:func:`enable` / ``REPRO_TRACE=1``); when disabled,
``span()`` costs one truthiness check and yields a shared no-op handle,
so the instrumentation can stay in the hot paths permanently.

Two export forms:

* :meth:`Tracer.chrome_trace` — the Chrome trace-event JSON format
  (``chrome://tracing`` / Perfetto): one complete ``"ph": "X"`` event per
  span with microsecond timestamps, plus a process-metadata record
  carrying the run's config digest, and
* :meth:`Tracer.render_tree` — an indented text tree with durations,
  shown by ``pdw report trace <benchmark>``.

Naming convention (docs/OBSERVABILITY.md): dotted lowercase components,
``<subsystem>.<unit>`` — ``stage.pathgen``, ``ilp.rung.highs``,
``suite.attempt``.  The hierarchy comes from nesting, not from the name.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.forksafe import renew_lock_in_child

#: Environment variable that enables tracing at import time.
ENV_TRACE = "REPRO_TRACE"

AttrValue = Union[str, int, float, bool]


@dataclass
class SpanRecord:
    """One finished span: timing, nesting, and free-form attributes."""

    name: str
    #: Seconds relative to the tracer's epoch (``perf_counter`` based).
    start_s: float
    end_s: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, or ``None``.
    parent: Optional[int]
    index: int
    thread_id: int
    attrs: Dict[str, AttrValue] = field(default_factory=dict)
    status: str = "ok"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
            "parent": self.parent,
            "index": self.index,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class _ActiveSpan:
    """The handle yielded by :func:`span` while the region is open."""

    __slots__ = ("name", "attrs", "status", "_started")

    def __init__(self, name: str, attrs: Dict[str, AttrValue]):
        self.name = name
        self.attrs = attrs
        self.status = "ok"
        self._started = 0.0

    def set(self, key: str, value: AttrValue) -> None:
        """Attach one attribute to the span (exported in ``args``)."""
        self.attrs[key] = value


class _NoopSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: AttrValue) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Collects finished spans; one per process is usually enough.

    Thread-safe: each thread keeps its own open-span stack (the ambient
    context), finished spans are appended under a lock.
    """

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._epoch_unix = time.time()
        self.spans: List[SpanRecord] = []

    # -- state -------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        """Drop recorded spans and restart the epoch."""
        with self._lock:
            self.spans = []
            self._epoch = time.perf_counter()
            self._epoch_unix = time.time()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, **attrs: AttrValue):
        """Context manager opening one span nested in the ambient context."""
        if not self._enabled:
            return _noop_ctx()
        return _span_ctx(self, name, attrs)

    def record_span(
        self,
        name: str,
        started_s: float,
        ended_s: float,
        status: str = "ok",
        **attrs: AttrValue,
    ) -> SpanRecord:
        """Record an already-measured region (``perf_counter`` endpoints).

        Used where the region's lifetime does not match a ``with`` block —
        e.g. a budgeted suite's forked benchmark attempts.
        """
        if not self._enabled:
            return SpanRecord(name, 0.0, 0.0, None, -1, 0, dict(attrs), status)
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            rec = SpanRecord(
                name=name,
                start_s=started_s - self._epoch,
                end_s=ended_s - self._epoch,
                parent=parent,
                index=len(self.spans),
                thread_id=threading.get_ident(),
                attrs=dict(attrs),
                status=status,
            )
            self.spans.append(rec)
        return rec

    # -- export ------------------------------------------------------------------

    def chrome_trace(self, config_digest: str = "") -> str:
        """The recorded spans as Chrome trace-event JSON.

        Loads in ``chrome://tracing`` and Perfetto: complete (``"X"``)
        events with microsecond timestamps, one metadata record naming
        the process, and the run's config digest in ``otherData`` so the
        numbers stay attributable.
        """
        pid = os.getpid()
        events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "pdw"},
            }
        ]
        with self._lock:
            spans = list(self.spans)
        for rec in spans:
            args: Dict[str, object] = dict(rec.attrs)
            if rec.status != "ok":
                args["status"] = rec.status
            events.append(
                {
                    "name": rec.name,
                    "ph": "X",
                    "ts": round(rec.start_s * 1e6, 3),
                    "dur": round(rec.duration_s * 1e6, 3),
                    "pid": pid,
                    "tid": rec.thread_id,
                    "args": args,
                }
            )
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.trace",
                "config_digest": config_digest,
                "epoch_unix": round(self._epoch_unix, 3),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_tree(self) -> str:
        """Indented text tree of the recorded spans with durations."""
        with self._lock:
            spans = list(self.spans)
        if not spans:
            return "no spans recorded\n"
        children: Dict[Optional[int], List[SpanRecord]] = {}
        for rec in spans:
            children.setdefault(rec.parent, []).append(rec)
        for bucket in children.values():
            bucket.sort(key=lambda r: (r.start_s, r.index))

        lines: List[str] = []

        def walk(rec: SpanRecord, depth: int) -> None:
            attrs = " ".join(f"{k}={v}" for k, v in sorted(rec.attrs.items()))
            mark = "" if rec.status == "ok" else f" [{rec.status}]"
            lines.append(
                f"{'  ' * depth}{rec.name:<{max(1, 40 - 2 * depth)}}"
                f"{rec.duration_s * 1e3:10.2f} ms{mark}"
                + (f"  {attrs}" if attrs else "")
            )
            for child in children.get(rec.index, ()):
                walk(child, depth + 1)

        for root in children.get(None, ()):
            walk(root, 0)
        return "\n".join(lines) + "\n"


class _span_ctx:
    """``with``-statement body of :meth:`Tracer.span` (enabled path)."""

    __slots__ = ("_tracer", "_handle", "_parent", "_index")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, AttrValue]):
        self._tracer = tracer
        self._handle = _ActiveSpan(name, dict(attrs))

    def __enter__(self) -> _ActiveSpan:
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._handle._started = time.perf_counter()
        # Reserve the index up front so children recorded inside the
        # region can point at this span before it is finished.
        with self._tracer._lock:
            index = len(self._tracer.spans)
            self._tracer.spans.append(
                SpanRecord(
                    name=self._handle.name,
                    start_s=self._handle._started - self._tracer._epoch,
                    end_s=self._handle._started - self._tracer._epoch,
                    parent=self._parent,
                    index=index,
                    thread_id=threading.get_ident(),
                )
            )
        stack.append(index)
        self._index = index
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        ended = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] == self._index:
            stack.pop()
        elif self._index in stack:  # exotic: exited out of order
            stack.remove(self._index)
        with self._tracer._lock:
            rec = self._tracer.spans[self._index]
            rec.end_s = ended - self._tracer._epoch
            rec.attrs = dict(self._handle.attrs)
            if exc_type is not None:
                rec.status = f"error:{exc_type.__name__}"
            elif self._handle.status != "ok":
                rec.status = self._handle.status
        return False  # never swallow the exception


class _noop_ctx:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


# ---------------------------------------------------------------------------
# process-global tracer
# ---------------------------------------------------------------------------

_GLOBAL = Tracer(enabled=os.environ.get(ENV_TRACE, "") not in ("", "0", "off"))
renew_lock_in_child(_GLOBAL, "_lock")


def tracer() -> Tracer:
    """The process-global tracer."""
    return _GLOBAL


def span(name: str, **attrs: AttrValue):
    """Open a span on the process-global tracer (no-op while disabled)."""
    return _GLOBAL.span(name, **attrs)


def enable() -> None:
    _GLOBAL.enable()


def disable() -> None:
    _GLOBAL.disable()


def clear() -> None:
    _GLOBAL.clear()


def spans() -> List[SpanRecord]:
    """Snapshot of the globally recorded spans."""
    with _GLOBAL._lock:
        return list(_GLOBAL.spans)
