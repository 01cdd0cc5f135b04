"""Reproducible performance baselines: ``pdw bench`` and ``--compare``.

A bench run executes a pinned benchmark matrix ``iterations`` times
through the existing cache-bypass path (``run_benchmark(use_cache=False)``
— both the in-process memo and the on-disk artifact cache are skipped,
so every sample is cold compute), collects the per-stage wall times and the
per-solver-rung wall times from each run's
:class:`~repro.pipeline.RunReport`, and reduces them to median / p95 per
series.  The result is written as ``BENCH_<git-sha>.json`` at the repo
root (schema: :data:`BENCH_SCHEMA`, documented in docs/OBSERVABILITY.md)
and carries the run's config digest so every number stays attributable to
the exact configuration that produced it.

``compare_bench(current, baseline, threshold_pct)`` gates the *hot paths*
(:data:`DEFAULT_HOT_PATHS` — total wall, the scheduling ILP, PDW and
DAWO wash-target clustering and path generation) and reports a
:class:`Regression` for every hot-path median that grew by more than the
threshold.  ``pdw bench --compare BASELINE.json`` exits 1 when any
survive, which is what the CI ``bench-smoke`` job consumes.
"""

from __future__ import annotations

import json
import math
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # heavy imports stay lazy: obs must not drag in the solver
    from repro.core import PDWConfig

#: Schema identifier embedded in every bench artifact.
BENCH_SCHEMA = "pdw-bench/1"

#: Default number of cold samples per benchmark.
DEFAULT_ITERATIONS = 3

#: Stage/rung series gated by ``--compare`` (per benchmark).  ``wall_s``
#: is the whole cold run; the others are RunReport stage names.
DEFAULT_HOT_PATHS = (
    "wall_s",
    "pdw.ilp",
    "pdw.clusters",
    "dawo.clusters",
    "pdw.pathgen",
    "pdw.ilp.build",
    "pdw.ilp.presolve",
)

#: The single benchmark + one iteration used by ``pdw bench --quick``
#: (the smallest Table II assay, |O| = 4).
QUICK_BENCHMARK = "Kinase-act-1"


def git_sha(repo_root: Optional[Path] = None) -> str:
    """Short git SHA of the working tree, or ``"nogit"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "nogit"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "nogit"


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def p95(samples: Sequence[float]) -> float:
    """Nearest-rank 95th percentile (exact for the small N we run)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return ordered[rank - 1]


def _series(samples: Sequence[float]) -> Dict[str, object]:
    return {
        "median": round(median(samples), 6),
        "p95": round(p95(samples), 6),
        "samples": [round(s, 6) for s in samples],
    }


@dataclass
class BenchResult:
    """One completed bench run over the whole matrix."""

    payload: Dict[str, object]

    @property
    def sha(self) -> str:
        return str(self.payload["git_sha"])

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True)

    def default_path(self, repo_root: Path) -> Path:
        return Path(repo_root) / f"BENCH_{self.sha}.json"


def run_bench(
    names: Optional[Sequence[str]] = None,
    config: Optional["PDWConfig"] = None,
    iterations: int = DEFAULT_ITERATIONS,
    quick: bool = False,
    progress=None,
) -> BenchResult:
    """Run the pinned matrix cold ``iterations`` times and reduce.

    ``quick`` shrinks the matrix to :data:`QUICK_BENCHMARK` with a single
    iteration (the CI smoke configuration).  ``progress`` is an optional
    ``callable(str)`` fed one line per completed sample.
    """
    # Imported here so ``pdw bench --compare`` works without triggering
    # the full solver import chain (and so repro.obs stays importable
    # from inside repro.pipeline without a cycle).
    from repro.bench import BENCHMARKS
    from repro.core import PDWConfig
    from repro.experiments.runner import run_benchmark
    from repro.pipeline import digest_config

    if quick:
        suite = [QUICK_BENCHMARK]
        iterations = 1
    else:
        suite = list(names) if names else list(BENCHMARKS)
    if iterations < 1:
        raise ReproError("bench iterations must be >= 1")
    for name in suite:
        if name not in BENCHMARKS:
            raise ReproError(f"unknown benchmark {name!r}")

    cfg = config or PDWConfig(time_limit_s=120.0)
    benchmarks: Dict[str, Dict[str, object]] = {}
    for name in suite:
        walls: List[float] = []
        stage_samples: Dict[str, List[float]] = {}
        rung_samples: Dict[str, List[float]] = {}
        for i in range(iterations):
            started = time.perf_counter()
            run = run_benchmark(name, cfg, use_cache=False)
            wall = time.perf_counter() - started
            walls.append(wall)
            for rec in run.report.stages if run.report else ():
                if rec.cached:
                    continue  # a cold run, but stay robust to shared rows
                target = rung_samples if ".ilp.rung." in f".{rec.stage}" else stage_samples
                key = rec.stage
                if target is rung_samples:
                    key = rec.stage.split("ilp.rung.", 1)[1]
                target.setdefault(key, []).append(rec.wall_s)
            if progress is not None:
                progress(f"{name} sample {i + 1}/{iterations}: {wall:.3f}s")
        benchmarks[name] = {
            "wall_s": _series(walls),
            "stages": {k: _series(v) for k, v in sorted(stage_samples.items())},
            "rungs": {k: _series(v) for k, v in sorted(rung_samples.items())},
        }

    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "created_unix": round(time.time(), 3),
        "iterations": iterations,
        "quick": quick,
        "config_digest": digest_config(cfg),
        "time_limit_s": cfg.time_limit_s,
        "hot_paths": list(DEFAULT_HOT_PATHS),
        "benchmarks": benchmarks,
    }
    return BenchResult(payload)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

@dataclass
class Regression:
    """One hot-path median that grew past the threshold."""

    path: str
    baseline_s: float
    current_s: float

    @property
    def pct(self) -> float:
        if self.baseline_s <= 0:
            return math.inf
        return 100.0 * (self.current_s - self.baseline_s) / self.baseline_s

    def render(self) -> str:
        return (
            f"{self.path}: {self.baseline_s:.4f}s -> {self.current_s:.4f}s "
            f"(+{self.pct:.1f}%)"
        )


@dataclass
class CompareReport:
    """Outcome of gating a bench run against a baseline."""

    regressions: List[Regression] = field(default_factory=list)
    compared: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    threshold_pct: float = 25.0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"compared {len(self.compared)} hot-path series "
            f"(threshold +{self.threshold_pct:g}%)"
        ]
        for reg in self.regressions:
            lines.append(f"  REGRESSION {reg.render()}")
        for path in self.skipped:
            lines.append(f"  skipped {path} (missing from one side)")
        lines.append("result: " + ("OK" if self.ok else "REGRESSED"))
        return "\n".join(lines) + "\n"


def _hot_path_value(bench: Mapping[str, object], path: str) -> Optional[float]:
    """Median of one hot-path series inside a benchmark entry."""
    if path == "wall_s":
        series = bench.get("wall_s")
    else:
        series = bench.get("stages", {}).get(path)
        if series is None:
            series = bench.get("rungs", {}).get(path)
    if not isinstance(series, Mapping):
        return None
    value = series.get("median")
    return float(value) if value is not None else None


def compare_bench(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    threshold_pct: float = 25.0,
    hot_paths: Optional[Sequence[str]] = None,
) -> CompareReport:
    """Gate ``current`` against ``baseline`` on the named hot paths.

    A series regresses when its current median exceeds the baseline
    median by more than ``threshold_pct`` percent.  Series missing from
    either side are reported as skipped, never as failures — a baseline
    from an older matrix must not block a grown one.
    """
    for payload, side in ((current, "current"), (baseline, "baseline")):
        if payload.get("schema") != BENCH_SCHEMA:
            raise ReproError(
                f"{side} bench artifact has schema {payload.get('schema')!r}; "
                f"expected {BENCH_SCHEMA!r}"
            )
    paths = list(hot_paths) if hot_paths else list(
        baseline.get("hot_paths") or DEFAULT_HOT_PATHS
    )
    report = CompareReport(threshold_pct=threshold_pct)
    cur_benches: Mapping[str, object] = current.get("benchmarks", {})
    base_benches: Mapping[str, object] = baseline.get("benchmarks", {})
    for name in sorted(base_benches):
        cur = cur_benches.get(name)
        base = base_benches[name]
        for path in paths:
            label = f"{name}.{path}"
            base_v = _hot_path_value(base, path)
            cur_v = _hot_path_value(cur, path) if isinstance(cur, Mapping) else None
            if base_v is None or cur_v is None:
                report.skipped.append(label)
                continue
            report.compared.append(label)
            if cur_v > base_v * (1.0 + threshold_pct / 100.0):
                report.regressions.append(Regression(label, base_v, cur_v))
    return report


def load_bench(path: Path) -> Dict[str, object]:
    """Parse one bench artifact, with a clean error on malformed input."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read bench artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"malformed bench artifact {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"bench artifact {path} is not a JSON object")
    return payload
