"""Staged pipeline infrastructure: stages, artifact cache, instrumentation.

The PDW flow of Section III is a staged pipeline — baseline replay →
necessity analysis → clustering → candidate path generation → scheduling
ILP → plan assembly — and the DAWO baseline shares its upstream stages.
This package makes those boundaries explicit:

* :class:`Stage` / :class:`StageBase` — one pipeline step producing an
  immutable, picklable artifact, with a declared cache key,
* :class:`ArtifactCache` — a content-addressed on-disk store keyed by a
  stable SHA-256 digest of (assay, chip, config) and salted with a hash
  of the package source, that survives across processes,
* :class:`PipelineRun` — executes stages cache-first and records a
  :class:`RunReport` of per-stage wall times, counters and solver
  statistics.

Robustness layers (DESIGN.md §9):

* :mod:`repro.pipeline.chaos` — pipeline-wide fault injection
  (``REPRO_INJECT_STAGE_FAULT``) that can crash/hang/kill any stage or
  corrupt cache reads, driving the suite engine's failure handling,
* the cache is *self-verifying*: entries carry a checksummed header, bad
  entries are quarantined (never deleted) and re-computed, and the store
  is size-bounded through ``REPRO_CACHE_MAX_BYTES``.

See DESIGN.md §7 ("Pipeline architecture") for the full walkthrough.
"""

from repro.pipeline import chaos
from repro.pipeline.cache import (
    ArtifactCache,
    VerifyReport,
    cache_enabled,
    default_cache,
    default_cache_dir,
    digest_config,
    digest_synthesis,
    max_cache_bytes,
    stable_digest,
)
from repro.pipeline.chaos import InjectedFault, StageFault
from repro.pipeline.report import RunReport, StageRecord
from repro.pipeline.stage import PipelineRun, Stage, StageBase

__all__ = [
    "ArtifactCache",
    "InjectedFault",
    "PipelineRun",
    "RunReport",
    "Stage",
    "StageBase",
    "StageFault",
    "StageRecord",
    "VerifyReport",
    "cache_enabled",
    "chaos",
    "default_cache",
    "default_cache_dir",
    "digest_config",
    "digest_synthesis",
    "max_cache_bytes",
    "stable_digest",
]
