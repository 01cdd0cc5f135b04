"""Per-stage instrumentation of a pipeline run.

Every pipeline execution (PDW, DAWO, the benchmark runner) fills a
:class:`RunReport`: one :class:`StageRecord` per executed stage with its
wall time, whether the artifact came from the cache, free-form numeric
counters (cluster counts, candidate-pool sizes, solver statistics) and an
optional detail string (e.g. the ILP model-size summary).

The report is attached to the produced :class:`~repro.core.plan.WashPlan`
and to the runner's :class:`~repro.experiments.runner.BenchmarkRun`, and is
rendered by ``pdw run --stats`` and ``python -m repro.experiments timings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import metrics as obs_metrics


@dataclass
class StageRecord:
    """Instrumentation of one executed (or cache-served) stage."""

    stage: str
    wall_s: float
    cached: bool = False
    counters: Dict[str, float] = field(default_factory=dict)
    detail: str = ""

    @property
    def origin(self) -> str:
        """Where the artifact came from: computed | cache | shared.

        Derived (not stored) from ``cached`` and the ``shared`` counter,
        which already say it, so the three can never disagree.
        ``shared`` rows were handed in by another pipeline (zero wall
        time); ``cache`` rows cost one cache lookup, recorded as this
        record's ``wall_s`` (and the ``cache_lookup_s`` counter).
        Timing statistics must average ``computed`` rows only.
        """
        if self.counters.get("shared"):
            return "shared"
        return "cache" if self.cached else "computed"

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view (used by reports and JSON export)."""
        return {
            "stage": self.stage,
            "wall_s": self.wall_s,
            "cached": self.cached,
            "origin": self.origin,
            "counters": dict(self.counters),
            "detail": self.detail,
        }

    def publish(self) -> None:
        """Emit this record into the central metrics registry.

        The single choke point through which every stage execution —
        pipeline stages, ad-hoc timed steps, solver-rung records —
        reaches :mod:`repro.obs.metrics`: wall-time histograms split by
        origin, a run counter, and one gauge per artifact counter.
        """
        reg = obs_metrics.registry()
        reg.counter(
            "pdw_stage_runs_total", stage=self.stage, origin=self.origin
        ).inc()
        if self.origin == "computed":
            reg.histogram("pdw_stage_wall_seconds", stage=self.stage).observe(
                self.wall_s
            )
        elif self.origin == "cache":
            reg.histogram(
                "pdw_stage_cache_lookup_seconds", stage=self.stage
            ).observe(self.wall_s)
        for key, value in self.counters.items():
            reg.gauge("pdw_stage_counter", stage=self.stage, key=key).set(
                float(value)
            )


@dataclass
class RunReport:
    """Ordered per-stage records of one pipeline run."""

    label: str = ""
    stages: List[StageRecord] = field(default_factory=list)

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        stage: str,
        wall_s: float,
        cached: bool = False,
        counters: Optional[Dict[str, float]] = None,
        detail: str = "",
    ) -> StageRecord:
        """Append one stage record, publish it to the registry, return it."""
        rec = StageRecord(stage, wall_s, cached, dict(counters or {}), detail)
        rec.publish()
        self.stages.append(rec)
        return rec

    def extend(self, other: "RunReport", prefix: str = "") -> None:
        """Absorb another report's records (optionally namespaced)."""
        for rec in other.stages:
            name = f"{prefix}{rec.stage}" if prefix else rec.stage
            self.stages.append(
                StageRecord(name, rec.wall_s, rec.cached, dict(rec.counters), rec.detail)
            )

    # -- queries -----------------------------------------------------------------

    def get(self, stage: str) -> Optional[StageRecord]:
        """The first record of ``stage``, or ``None``."""
        for rec in self.stages:
            if rec.stage == stage:
                return rec
        return None

    def stage_names(self) -> List[str]:
        """Stage names in execution order."""
        return [rec.stage for rec in self.stages]

    @property
    def total_wall_s(self) -> float:
        """Summed wall time over all recorded stages."""
        return sum(rec.wall_s for rec in self.stages)

    @property
    def cache_hits(self) -> int:
        """Number of stages served from the artifact cache (``shared``
        rows were handed in by another pipeline, not served)."""
        return sum(1 for rec in self.stages if rec.origin == "cache")

    # -- export -------------------------------------------------------------------

    def flat(self) -> Dict[str, float]:
        """Flat float mapping suitable for ``WashPlan.notes``.

        Keys look like ``stage.replay.wall_s`` / ``stage.ilp.cached`` /
        ``stage.ilp.solve_time_s``.
        """
        out: Dict[str, float] = {}
        for rec in self.stages:
            out[f"stage.{rec.stage}.wall_s"] = round(rec.wall_s, 6)
            out[f"stage.{rec.stage}.cached"] = float(rec.cached)
            for key, value in rec.counters.items():
                out[f"stage.{rec.stage}.{key}"] = float(value)
        return out

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view of the whole report."""
        return {
            "label": self.label,
            "total_wall_s": self.total_wall_s,
            "cache_hits": self.cache_hits,
            "stages": [rec.as_dict() for rec in self.stages],
        }

    def render(self) -> str:
        """Aligned text table of the per-stage instrumentation."""
        headers = ("stage", "wall(s)", "cached", "counters", "detail")
        rows: List[tuple] = []
        for rec in self.stages:
            counters = " ".join(
                f"{k}={v:g}" for k, v in sorted(rec.counters.items())
            )
            rows.append(
                (rec.stage, f"{rec.wall_s:.4f}", "yes" if rec.cached else "-",
                 counters, rec.detail)
            )
        rows.append(
            ("total", f"{self.total_wall_s:.4f}",
             f"{self.cache_hits}/{len(self.stages)}", "", "")
        )
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
        ]

        def fmt(cells) -> str:
            return "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells)).rstrip()

        title = f"pipeline report [{self.label}]" if self.label else "pipeline report"
        lines = [title, fmt(headers), "  ".join("-" * w for w in widths)]
        lines.extend(fmt(r) for r in rows)
        return "\n".join(lines)
