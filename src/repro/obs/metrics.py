"""Central metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process aggregates everything the
pipeline, the solver portfolio and the suite layers emit, replacing the
ad-hoc per-call-site counter dicts.  Metric identity is
``(name, sorted labels)``; names follow the Prometheus convention
(``pdw_stage_wall_seconds``, ``pdw_suite_attempts_total`` — see
docs/OBSERVABILITY.md for the full catalogue).

Three instrument kinds:

* :class:`Counter` — monotonically increasing float,
* :class:`Gauge` — last-written value,
* :class:`Histogram` — observation counts over *fixed* bucket upper
  bounds (fixed so snapshots from different processes merge exactly),
  plus running sum and count.

Serialization targets both machines and scrapers:

* :meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.from_dict` —
  plain-JSON snapshots, mergeable via :meth:`MetricsRegistry.merge`
  (counters and histogram buckets add; gauges take the incoming value).
  The suite supervisor journals one snapshot per worker subprocess and
  merges them into the run-wide dump,
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``pdw export --what metrics --format prom``).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.forksafe import renew_lock_in_child

LabelValue = Union[str, int, float, bool]
#: Canonical metric identity: name + sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram bucket upper bounds (seconds-flavoured latencies).
#: Fixed across the codebase so cross-process snapshots merge bucket-wise.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0,
)


def _label_key(labels: Mapping[str, LabelValue]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter; negative increments are rejected."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def state(self) -> Dict[str, object]:
        return {"value": self.value}

    def absorb(self, state: Mapping[str, object]) -> None:
        self.value += float(state.get("value", 0.0))


class Gauge:
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def state(self) -> Dict[str, object]:
        return {"value": self.value}

    def absorb(self, state: Mapping[str, object]) -> None:
        # A merged gauge keeps the incoming (more recent) observation.
        self.value = float(state.get("value", self.value))


class Histogram:
    """Cumulative-bucket histogram over fixed upper bounds.

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    (*non*-cumulative storage; rendering accumulates), with one implicit
    ``+Inf`` overflow bucket at the end.
    """

    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def state(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def absorb(self, state: Mapping[str, object]) -> None:
        bounds = tuple(float(b) for b in state.get("bounds", ()))
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{bounds} vs {self.bounds}"
            )
        counts = list(state.get("counts", ()))
        if len(counts) != len(self.counts):
            raise ValueError("histogram bucket count mismatch")
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.sum += float(state.get("sum", 0.0))
        self.count += int(state.get("count", 0))


Instrument = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe get-or-create store of labelled instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[MetricKey, Instrument] = {}

    # -- instruments -------------------------------------------------------------

    def _get(self, name: str, labels: Mapping[str, LabelValue], factory) -> Instrument:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._metrics.get(key)
            if inst is None:
                inst = self._metrics[key] = factory()
            return inst

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        inst = self._get(name, labels, Counter)
        if not isinstance(inst, Counter):
            raise TypeError(f"metric {name!r} already registered as {inst.kind}")
        return inst

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        inst = self._get(name, labels, Gauge)
        if not isinstance(inst, Gauge):
            raise TypeError(f"metric {name!r} already registered as {inst.kind}")
        return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: LabelValue,
    ) -> Histogram:
        inst = self._get(name, labels, lambda: Histogram(buckets))
        if not isinstance(inst, Histogram):
            raise TypeError(f"metric {name!r} already registered as {inst.kind}")
        return inst

    # -- snapshots ---------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON snapshot: one entry per (name, labels) series."""
        series: List[Dict[str, object]] = []
        with self._lock:
            items = sorted(self._metrics.items())
            for (name, labels), inst in items:
                series.append(
                    {
                        "name": name,
                        "labels": dict(labels),
                        "kind": inst.kind,
                        **inst.state(),
                    }
                )
        return {"schema": "pdw-metrics/1", "series": series}

    @classmethod
    def from_dict(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        reg = cls()
        reg.merge(snapshot)
        return reg

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a JSON snapshot into this registry.

        Counters and histogram buckets add up; gauges take the incoming
        value.  Used to combine supervisor-worker snapshots (journalled
        per subprocess) into the run-wide dump.
        """
        for entry in snapshot.get("series", ()):
            name = str(entry["name"])
            labels = {str(k): str(v) for k, v in dict(entry.get("labels", {})).items()}
            kind = str(entry.get("kind", "counter"))
            factory = _KINDS.get(kind)
            if factory is None:
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")
            if kind == "histogram":
                bounds = tuple(float(b) for b in entry.get("bounds", DEFAULT_BUCKETS))
                inst = self._get(name, labels, lambda: Histogram(bounds))
            else:
                inst = self._get(name, labels, factory)
            if inst.kind != kind:
                raise TypeError(
                    f"metric {name!r} is {inst.kind} here but {kind} in snapshot"
                )
            inst.absorb(entry)

    # -- rendering ---------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (0.0.4)."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: List[str] = []
        seen_type: set = set()
        for (name, labels), inst in items:
            if name not in seen_type:
                lines.append(f"# TYPE {name} {inst.kind}")
                seen_type.add(name)
            base = dict(labels)
            if isinstance(inst, Histogram):
                cumulative = 0
                for bound, count in zip(inst.bounds, inst.counts):
                    cumulative += count
                    lines.append(
                        _sample(f"{name}_bucket", {**base, "le": _fmt(bound)}, cumulative)
                    )
                cumulative += inst.counts[-1]
                lines.append(_sample(f"{name}_bucket", {**base, "le": "+Inf"}, cumulative))
                lines.append(_sample(f"{name}_sum", base, inst.sum))
                lines.append(_sample(f"{name}_count", base, inst.count))
            else:
                lines.append(_sample(name, base, inst.value))
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    out = f"{value:g}"
    return out


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, labels: Mapping[str, str], value: float) -> str:
    if labels:
        inner = ",".join(
            f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {_fmt(float(value))}"
    return f"{name} {_fmt(float(value))}"


# ---------------------------------------------------------------------------
# process-global registry
# ---------------------------------------------------------------------------

_GLOBAL = MetricsRegistry()
renew_lock_in_child(_GLOBAL, "_lock")


def registry() -> MetricsRegistry:
    """The process-global registry every subsystem emits into."""
    return _GLOBAL


def reset() -> None:
    """Drop every globally recorded series (tests, fresh bench runs)."""
    _GLOBAL.clear()


def snapshot() -> Dict[str, object]:
    """JSON snapshot of the global registry (what workers ship home)."""
    return _GLOBAL.as_dict()


def merge_snapshots(
    snapshots: Sequence[Mapping[str, object]],
    into: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Merge many JSON snapshots into one registry (journal → dump)."""
    reg = into if into is not None else MetricsRegistry()
    for snap in snapshots:
        reg.merge(snap)
    return reg
