"""Shared pieces of the benchmark harness: metric names, statistics and
child processes measured from outside.

The harness itself never imports ``repro``.  Every measured computation
runs in a fresh interpreter spawned here, so in-process memos (the
``ModelMemo``, the per-chip ``PathKernel`` caches, the whole-run memo)
start cold for every sample, and the child's CPU time and peak resident
memory come from ``os.wait4`` rather than from the program's own
counters.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Checkout root: ``perf/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent

#: First stdout line a harness child prints once its imports are done.
READY = "PERF-READY"

#: End-to-end metrics (trace off) with their units.  BENCHMARK.json
#: declares the same names with a bound each; ``check.py`` and the tests
#: fail when the two lists drift apart.
END_TO_END: Dict[str, str] = {
    # Start-up time restated at the reference probe speed (see ``probe``).
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "n_wash": "count",
    "l_wash_mm": "mm",
    # Plan times in simulated assay seconds: computed, not measured.
    "t_delay_s": "sim_s",
    "t_assay_s": "sim_s",
    "coverage": "ratio",
}

#: End-to-end timings printed and kept in the result file, but not
#: declared in BENCHMARK.json: on a shared 2-core host each one's
#: ten-seed spread exceeds 20% on some workload, so no bound of 10% or
#: less holds (perf/README.md).
#: ``check.py`` compares them for information, without a verdict.
INFO: Dict[str, str] = {
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
}

#: Per-layer metrics (trace on).  Names are the module that does the work.
#: A traced run reports every name; a layer the workload's traced run does
#: not reach reads 0.
PER_LAYER: Dict[str, str] = {
    "synth.busy_s": "s",
    "contam.busy_s": "s",
    "baselines.dawo.busy_s": "s",
    "core.targets.busy_s": "s",
    "core.pathgen.busy_s": "s",
    "arch.pathkernel.queries": "count",
    "arch.pathkernel.hit_ratio": "ratio",
    "ilp.busy_s": "s",
    "ilp.presolve_s": "s",
    "ilp.build_s": "s",
    "ilp.solve_s": "s",
    "ilp.rows": "count",
    "ilp.binaries": "count",
    "ilp.alloc_peak_mb": "MB",
    "core.assemble.busy_s": "s",
    "sim.validate_s": "s",
    "export.canonical_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
    "experiments.engine_s": "s",
    "experiments.benchmarks_s": "s",
    "serve.submit_p50_s": "s",
    "serve.poll_p50_s": "s",
    "serve.plan_p50_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.run_p50_s": "s",
    "serve.dedup_frac": "ratio",
    "serve.rejected": "count",
    "serve.polls_per_job": "count",
    "ilp.model_reused": "count",
    "pipeline.run_cache_hits": "count",
    "degrade.cells_s": "s",
    "degrade.engine_s": "s",
    "degrade.repair_rounds": "count",
    "degrade.infeasible_cells": "count",
}

#: The paper's Table II suite, in its published order.
TABLE2 = (
    "PCR", "IVD", "ProteinSplit", "Kinase-act-1", "Kinase-act-2",
    "Synthetic1", "Synthetic2", "Synthetic3",
)


class HarnessError(Exception):
    """A child failed in a way that leaves no result to report."""


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0 ≤ p ≤ 100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(n: int, beyond: int = 10) -> Optional[int]:
    """Highest whole percentile ``p`` with at least ``beyond`` of ``n``
    samples ranked above ``n * p / 100``; ``None`` when ``n < beyond``."""
    if n < beyond:
        return None
    return -(-100 * (n - beyond + 1) // n) - 1


# -- child processes ------------------------------------------------------------

#: The solver cap every measured plan runs under (``PDWConfig(time_limit_s=...)``).
SOLVER_CAP_S = 120.0

#: Time a single plan may take beyond its solver cap: imports, routing,
#: synthesis, validation and export.
PLAN_MARGIN_S = 120.0


def plan_timeout(plans: int) -> float:
    """Kill timeout of a child that computes ``plans`` plans in sequence.

    Each plan may use its whole solver budget plus a margin, so a slow but
    valid run is measured as slow instead of being killed as broken.
    """
    return max(plans, 1) * (SOLVER_CAP_S + PLAN_MARGIN_S)


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment of a measured child: the checkout's sources, a private
    artifact cache, and none of the caller's ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass
class ChildResult:
    """What one finished child left behind, measured from outside."""

    returncode: int
    lines: List[str]
    #: Spawn until the readiness line (``None`` if it never came).
    setup_s: Optional[float]
    #: Spawn until exit.
    wall_s: float
    #: User + system CPU of the child and every descendant it waited for.
    cpu_s: float
    #: Peak resident set of the child or its largest waited-for descendant.
    maxrss_mb: float
    stderr: str = ""


class Child:
    """One measured subprocess in its own session.

    The readiness line is timestamped on arrival, so ``setup_s`` needs no
    clock shared with the child.  ``os.wait4`` reaps it and returns the
    resource usage of the child plus its waited-for descendants.  The
    whole process group is killed if ``timeout_s`` passes first.
    """

    def __init__(
        self,
        argv: Sequence[str],
        env: Dict[str, str],
        scratch: Path,
        timeout_s: float,
    ):
        self._stderr_path = scratch / f"stderr-{time.monotonic_ns()}.txt"
        self._stderr = open(self._stderr_path, "w+", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=str(ROOT),
            text=True,
            start_new_session=True,
        )
        self.timed_out = False
        self._timer = threading.Timer(timeout_s, self._expire)
        self._timer.daemon = True
        self._timer.start()
        self.setup_s: Optional[float] = None
        self.lines: List[str] = []

    def _expire(self) -> None:
        self.timed_out = True
        self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def terminate(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass

    def wait_line(self, match: Callable[[str], bool]) -> str:
        """Read stdout up to the first line ``match`` accepts; time its arrival.

        Raises :class:`HarnessError` if the child closes stdout first.
        """
        for raw in self.proc.stdout:
            line = raw.rstrip("\n")
            if match(line):
                self.setup_s = time.perf_counter() - self.started
                return line
            self.lines.append(line)
        raise HarnessError("child exited before its readiness line")

    def finish(self) -> ChildResult:
        """Drain stdout, reap the child with ``wait4`` and report."""
        try:
            for raw in self.proc.stdout:
                self.lines.append(raw.rstrip("\n"))
            _, status, usage = os.wait4(self.proc.pid, 0)
            wall = time.perf_counter() - self.started
        finally:
            self._timer.cancel()
            # Anything the child left behind in its session goes with it.
            self.kill()
            self.proc.stdout.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._stderr.seek(0)
        err = self._stderr.read()
        self._stderr.close()
        self._stderr_path.unlink()
        return ChildResult(
            returncode=self.proc.returncode,
            lines=self.lines,
            setup_s=self.setup_s,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stderr=err,
        )


def run_child(
    argv: Sequence[str],
    env: Dict[str, str],
    scratch: Path,
    timeout_s: float,
) -> ChildResult:
    """Spawn, wait for the readiness line, run to exit, reap."""
    child = Child(argv, env, scratch, timeout_s)
    try:
        child.wait_line(lambda line: line == READY)
    except HarnessError:
        pass  # reported through the result's missing setup_s / exit code
    except BaseException:
        child.kill()  # interrupted: take the child down with us, then reap it
        child.finish()
        raise
    result = child.finish()
    if child.timed_out:
        raise HarnessError(f"child timed out: {' '.join(argv)}")
    return result


#: The reference probe: a fresh interpreter that imports the third-party
#: libraries the program spends most of its start-up importing.  It runs
#: no code of this repository, so its time moves with the host alone, and
#: it slows down with the same kind of work a start-up does.
PROBE_CODE = f"import scipy.optimize, networkx\nprint({READY!r})"

#: The reference speed: the probe takes this long.  A start-up restated
#: at reference speed is ``start-up / probe * PROBE_REFERENCE_S``.  The
#: constant only keeps ``setup_s`` in seconds and cancels out of every
#: comparison; the probe's median on the 2-core host the baselines were
#: recorded on was 0.96-0.99 s.
PROBE_REFERENCE_S = 1.0


def probe(scratch: Path) -> float:
    """Spawn-to-exit wall seconds of one reference probe."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    result = run_child([sys.executable, "-c", PROBE_CODE], env, scratch, PLAN_MARGIN_S)
    if result.returncode != 0:
        raise HarnessError(f"reference probe failed: {result.stderr.strip()[-200:]}")
    return result.wall_s


def python_child(*args: str) -> List[str]:
    """argv running ``perf/child.py`` in a fresh interpreter."""
    return [sys.executable, str(ROOT / "perf" / "child.py"), *args]


class Scratch:
    """Per-run scratch space under ``.perf_tmp/`` in the checkout, removed
    on close.

    Every sample gets its own fresh artifact cache directory from
    :meth:`cache_dir`; nothing a sample writes survives into the next.
    """

    root = ROOT / ".perf_tmp"

    def __enter__(self) -> "Scratch":
        self.root.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=self.root))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.root.rmdir()
        except OSError:
            pass  # another run still uses it

    def cache_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.path))


def rotate(items: Sequence[str], k: int) -> List[str]:
    """``items`` rotated left by ``k`` places."""
    k %= len(items)
    return list(items[k:]) + list(items[:k])
