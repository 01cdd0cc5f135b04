"""The :class:`Stage` protocol and the :class:`PipelineRun` context.

A *stage* is one step of a staged pipeline: it computes an immutable,
picklable artifact from a context object, declares a cache key describing
every input the artifact depends on (or ``None`` to opt out of caching),
and reports numeric counters about what it produced.  A stage carries no
code version: the cache salts every key with the package source
(:func:`repro.pipeline.cache.code_salt`), so any edit to ``repro``
invalidates the artifacts the previous code computed.

A :class:`PipelineRun` executes stages in order, consults the
content-addressed :class:`~repro.pipeline.cache.ArtifactCache` before
computing, and records one :class:`~repro.pipeline.report.StageRecord` per
stage (wall time, cache hit, counters) into its :class:`RunReport` — and,
while the process has a run journal set, one ``stage`` event into that
journal (:func:`repro.sched.journal.record_stage`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Protocol, runtime_checkable

from repro.obs.trace import span
from repro.pipeline import chaos
from repro.pipeline.cache import ArtifactCache, stable_digest
from repro.pipeline.report import RunReport
from repro.sched import journal as run_journal


@runtime_checkable
class Stage(Protocol):
    """One pipeline step producing a cacheable artifact from a context.

    Beyond the required members below, a stage may declare ``provides``
    (the context attribute its artifact fills, bound by ``apply``).
    """

    #: Stage name; also the instrumentation label.
    name: str

    def key(self, ctx: Any) -> Optional[Any]:
        """Cache-key material covering every input, or ``None`` (no cache)."""
        ...

    def compute(self, ctx: Any) -> Any:
        """Produce the artifact (only called on a cache miss)."""
        ...

    def counters(self, artifact: Any) -> Dict[str, float]:
        """Numeric instrumentation derived from the artifact."""
        ...


class StageBase:
    """Convenience base: no cache key, no counters, no detail, and an
    anonymous output unless a subclass declares ``provides``."""

    name = "stage"
    #: Context attribute its artifact fills, or "".
    provides: str = ""

    def key(self, ctx: Any) -> Optional[Any]:
        return None

    def counters(self, artifact: Any) -> Dict[str, float]:
        return {}

    def detail(self, artifact: Any) -> str:
        """Free-form one-line description recorded with the stage."""
        return ""

    def apply(self, ctx: Any, artifact: Any) -> None:
        """Bind the produced artifact back onto the context.

        The default stores the artifact under the declared ``provides``
        attribute; stages whose context field is a *view* of the artifact
        (e.g. pathgen's candidate pools inside a richer result object)
        override this.
        """
        if self.provides:
            setattr(ctx, self.provides, artifact)


class PipelineRun:
    """Executes stages, serving artifacts from the cache when possible."""

    def __init__(
        self,
        label: str = "",
        cache: Optional[ArtifactCache] = None,
        report: Optional[RunReport] = None,
    ):
        self.cache = cache
        self.report = report if report is not None else RunReport(label=label)

    # -- stage execution ---------------------------------------------------------

    def run_stage(self, stage: Stage, ctx: Any) -> Any:
        """Run one stage against ``ctx`` (cache-first) and record it.

        Cache hits are recorded with the *lookup* wall time (never a flat
        ``0.0``) plus a ``cache_lookup_s`` counter, and flagged
        ``cached=True`` so timing aggregations can exclude them instead
        of silently averaging near-zero rows.
        """
        with span(f"stage.{stage.name}") as sp:
            chaos.trip(stage.name)
            started = time.perf_counter()
            digest: Optional[str] = None
            key = stage.key(ctx)
            if self.cache is not None and key is not None:
                digest = stable_digest("stage", stage.name, key)
                artifact = self.cache.get(digest)
                if artifact is not None:
                    lookup_s = time.perf_counter() - started
                    sp.set("origin", "cache")
                    counters = stage.counters(artifact)
                    counters["cache_lookup_s"] = round(lookup_s, 6)
                    self.report.record(
                        stage.name,
                        wall_s=lookup_s,
                        cached=True,
                        counters=counters,
                        detail=getattr(stage, "detail", lambda a: "")(artifact),
                    )
                    run_journal.record_stage(self.report.label, stage.name, "cache")
                    return artifact
            artifact = stage.compute(ctx)
            if self.cache is not None and digest is not None and artifact is not None:
                self.cache.put(digest, artifact)
            sp.set("origin", "computed")
            self.report.record(
                stage.name,
                wall_s=time.perf_counter() - started,
                cached=False,
                counters=stage.counters(artifact),
                detail=getattr(stage, "detail", lambda a: "")(artifact),
            )
            run_journal.record_stage(self.report.label, stage.name, "computed")
            return artifact

    def provided(self, name: str, counters: Optional[Dict[str, float]] = None) -> None:
        """Record a stage whose artifact was handed in by the caller.

        Used when an upstream artifact (e.g. the contamination replay) is
        shared between pipelines instead of recomputed: the consuming
        pipeline still shows the stage, flagged ``shared`` with zero wall
        time (excluded from timing averages via ``StageRecord.origin``).
        """
        rec_counters = dict(counters or {})
        rec_counters["shared"] = 1.0
        self.report.record(name, wall_s=0.0, cached=True, counters=rec_counters)

    def timed(
        self,
        name: str,
        compute: Callable[[], Any],
        counters: Optional[Callable[[Any], Dict[str, float]]] = None,
        detail: str = "",
    ) -> Any:
        """Run an ad-hoc (non-cached, non-Stage) step under instrumentation."""
        with span(f"stage.{name}"):
            chaos.trip(name)
            started = time.perf_counter()
            artifact = compute()
            self.report.record(
                name,
                wall_s=time.perf_counter() - started,
                cached=False,
                counters=counters(artifact) if counters else {},
                detail=detail,
            )
            run_journal.record_stage(self.report.label, name, "computed")
            return artifact
