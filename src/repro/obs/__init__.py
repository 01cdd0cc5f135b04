"""Observability: trace spans, the metrics registry, perf baselines.

Zero-dependency instrumentation substrate for the whole stack
(DESIGN.md §10, docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — hierarchical spans with an ambient
  thread-local context (``with span("stage.pathgen") as sp: ...``),
  exported as Chrome-trace JSON (``pdw export --what trace``) or an
  indented tree (``pdw report trace <benchmark>``),
* :mod:`repro.obs.metrics` — a central registry of counters, gauges and
  fixed-bucket histograms, serializable to JSON and the Prometheus text
  format, with exact cross-process snapshot merging (the suite engine
  journals one snapshot per benchmark process and dumps the merge),
* :mod:`repro.obs.perf` — ``pdw bench``: cold-run medians/p95 per stage
  and per solver rung over the pinned matrix, written as
  ``BENCH_<git-sha>.json`` and gated by ``pdw bench --compare``.

Every exported artifact (trace, metrics dump, bench JSON) carries the
run's config digest so numbers stay attributable.
"""

from repro.obs import metrics, perf, trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    registry,
)
from repro.obs.perf import (
    BENCH_SCHEMA,
    BenchResult,
    CompareReport,
    Regression,
    compare_bench,
    load_bench,
    run_bench,
)
from repro.obs.trace import SpanRecord, Tracer, span, tracer

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "CompareReport",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Regression",
    "SpanRecord",
    "Tracer",
    "compare_bench",
    "load_bench",
    "merge_snapshots",
    "metrics",
    "perf",
    "registry",
    "run_bench",
    "span",
    "trace",
    "tracer",
]
