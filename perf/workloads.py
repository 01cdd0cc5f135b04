"""The four workloads and the traced run.

Each workload function takes :class:`Options` and returns an
:class:`Outcome` holding both its end-to-end and its per-layer values;
``run.py`` prints the set the ``--trace`` flag asks for.  Every sample
runs in a fresh interpreter with a fresh artifact cache directory.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import serveload
from harness import (
    PER_LAYER,
    TABLE2,
    Child,
    ChildResult,
    PROBE_REFERENCE_S,
    HarnessError,
    Scratch,
    child_env,
    median,
    percentile,
    plan_timeout,
    probe,
    python_child,
    rotate,
    run_child,
    supported_percentile,
)

SUITE_SMALL = ("PCR", "IVD", "Kinase-act-1", "Kinase-act-2", "Synthetic1")
DEGRADE_SET = ("IVD", "Kinase-act-2", "Synthetic1")
#: One fixed fault scenario: every seed asks for the same repair work, so
#: the ten-seed spread measures noise, not a different fault.  The seed
#: only rotates the benchmark order on the command line.
DEGRADE_SPEC = "channels=2:valves=1:seed=1"
DEGRADE_ONLINE = "auto"
#: Plans one degrade cell may compute: the static plan, then up to four
#: repair rounds (``repro.degrade.repair.MAX_ROUNDS``).
DEGRADE_PLANS_PER_CELL = 5

#: Least samples per run: Table II passes, ``pdw suite`` calls, serve
#: trace replays or degrade matrix calls.  More follow while
#: ``--seconds`` allows.
MIN_SAMPLES = 1

#: Start-ups each run measures for ``setup_s``: the samples' own, topped
#: up with bare start-ups of the same entry point (table2-cold's eight
#: children already reach it).
STARTUPS = 8

#: Least gap between two reference probes; one is taken before a sample
#: or start-up once the last is this old.
PROBE_GAP_S = 4.0


@dataclass
class Options:
    seed: int
    seconds: float
    scratch: Scratch
    reference: Dict[str, str]
    smoke: bool = False
    #: PDW plan digests by benchmark from a ``table2-cold`` run of this
    #: same invocation, when there was one.
    table2_digests: Dict[str, str] = field(default_factory=dict)
    #: Reference probe times (see ``harness.probe``) and the start-up
    #: times of the run's entry point, spawn to readiness.
    probes: List[float] = field(default_factory=list)
    startups: List[float] = field(default_factory=list)
    _last_probe: Optional[float] = None

    def sets(self, full: Sequence[str], smoke: str = "Kinase-act-1") -> List[str]:
        return [smoke] if self.smoke else list(full)

    def probe(self) -> None:
        """Take a reference probe unless one ended under :data:`PROBE_GAP_S` ago."""
        if self._last_probe is None or time.perf_counter() - self._last_probe >= PROBE_GAP_S:
            self.probes.append(probe(self.scratch.path))
            self._last_probe = time.perf_counter()

    def started(self, result: ChildResult) -> None:
        if result.setup_s is not None:
            self.startups.append(result.setup_s)

    def top_up_startups(self, spawn: Callable[[], ChildResult]) -> None:
        """Bare start-ups (``spawn`` returns once the entry point is ready
        and gone) until the run has measured :data:`STARTUPS`."""
        while len(self.startups) < (1 if self.smoke else STARTUPS):
            self.probe()
            result = spawn()
            if result.setup_s is None:
                raise HarnessError(child_failure("bare start-up", result))
            self.started(result)

    def enough(self, samples: int, started: float) -> bool:
        """Whether sampling may stop: the minimum is reached, and one more
        sample of the average length so far would end past ``--seconds``.
        A smoke run stops after one sample."""
        if samples < MIN_SAMPLES:
            return False
        if self.smoke:
            return True
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / samples > self.seconds


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Failed correctness checks; any entry makes the run incorrect.
    checks: List[str] = field(default_factory=list)
    plan_drift: List[str] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.checks.append(message)

    def drift(self, key: str, got: str, opts: Options) -> None:
        want = opts.reference.get(key)
        if want != got:
            self.plan_drift.append(f"{key}: {got[:12]} (reference {str(want)[:12]})")


def last_json(result: ChildResult) -> Optional[dict]:
    for line in reversed(result.lines):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def child_failure(what: str, result: ChildResult) -> str:
    tail = result.stderr.strip().splitlines()[-1:] or [""]
    return f"{what}: exit {result.returncode} {tail[0][:200]}"


def plans_child(names: Sequence[str], opts: Options, out: Outcome):
    """``run_benchmark`` cold in one fresh child; ``None`` if it failed."""
    result = run_child(
        python_child("plans", *names), child_env(opts.scratch.cache_dir()),
        opts.scratch.path, plan_timeout(len(names)),
    )
    payload = last_json(result)
    if result.returncode != 0 or payload is None:
        out.fail(child_failure(f"plans {' '.join(names)}", result))
        return result, None
    return result, payload["results"]


def job_metrics(latencies: Sequence[float], out: Outcome) -> Dict[str, float]:
    """Median and p90 of job latencies, with the sample count and the
    highest percentile those samples support kept in the detail."""
    out.detail["jobs"] = {"samples": len(latencies),
                          "supported_percentile": supported_percentile(len(latencies))}
    return {"job_p50_s": median(latencies), "job_p90_s": percentile(latencies, 90)}


def quality(plans: Sequence[dict]) -> Dict[str, float]:
    """Plan-quality sums over PDW plans (``metrics`` + ``coverage`` dicts)."""
    sums = {
        key: sum(p["metrics"][key] for p in plans)
        for key in ("n_wash", "l_wash_mm", "t_delay_s", "t_assay_s")
    }
    sums["coverage"] = sum(p["coverage"] for p in plans) / len(plans)
    return sums


def restated_setup(opts: Options, out: Outcome) -> float:
    """Median start-up time of the run, restated at the reference speed.

    The median start-up is divided by the median probe taken in the same
    run, so a slow spell of the shared host, which stretches both, cancels
    out.  The measured times stay in the detail.
    """
    out.detail.update(startup_s=opts.startups, probe_s=opts.probes)
    if not opts.startups:
        return 0.0  # no start-up finished: the run already failed a check
    return median(opts.startups) / median(opts.probes) * PROBE_REFERENCE_S


def zero_layers(out: Outcome) -> None:
    """Report 0 for every layer this workload's run does not reach."""
    for name in PER_LAYER:
        out.layers.setdefault(name, 0.0)


# -- table2-cold ----------------------------------------------------------------


def cold_pass(order: Sequence[str], opts: Options, out: Outcome) -> List[dict]:
    """One cold child per benchmark, in ``order``."""
    samples = []
    for name in order:
        opts.probe()
        out.attempted += 1
        result, results = plans_child([name], opts, out)
        opts.started(result)
        if results is None:
            continue
        samples.append(
            {
                **results[0],
                "latency_s": result.wall_s,
                "setup_s": result.setup_s,
                "cpu_s": result.cpu_s,
                "maxrss_mb": result.maxrss_mb,
            }
        )
    return samples


def check_table2_digests(samples: List[dict], out: Outcome, opts: Options) -> None:
    """Every cold plan of a benchmark must be byte-identical, within this
    run and against earlier table2-cold runs of the same invocation."""
    for sample in samples:
        name = sample["benchmark"]
        if opts.table2_digests.setdefault(name, sample["digest"]) != sample["digest"]:
            out.checks.append(f"table2-cold: {name} plan differs between cold runs")
    for name in {s["benchmark"] for s in samples}:
        out.drift(f"table2/{name}", opts.table2_digests[name], opts)


def table2_cold(opts: Options) -> Outcome:
    out = Outcome()
    names = opts.sets(TABLE2)
    passes: List[List[dict]] = []
    started = time.perf_counter()
    while not opts.enough(len(passes), started):
        passes.append(cold_pass(rotate(names, opts.seed + len(passes)), opts, out))
    passes = [p for p in passes if p]
    samples = [s for p in passes for s in p]
    if not samples:
        return out
    check_table2_digests(samples, out, opts)
    pass_latency = [sum(s["latency_s"] for s in p) for p in passes]
    out.metrics = {
        "wall_s": median([sum(s["wall_s"] for s in p) for p in passes]),
        "cpu_s": median([sum(s["cpu_s"] for s in p) for p in passes]),
        "setup_s": restated_setup(opts, out),
        "peak_rss_mb": median([max(s["maxrss_mb"] for s in p) for p in passes]),
        # The job a user waits for here is one whole cold Table II pass.
        **job_metrics(pass_latency, out),
        "jobs_per_s": len(passes) / sum(pass_latency),
        **quality(passes[0]),
    }
    out.detail["passes"] = passes
    return out


def trace_child(name: str, opts: Options, out: Outcome) -> Optional[dict]:
    result = run_child(
        python_child("trace", name), child_env(opts.scratch.cache_dir()),
        opts.scratch.path, plan_timeout(1),
    )
    payload = last_json(result)
    if result.returncode != 0 or payload is None:
        out.fail(child_failure(f"trace {name}", result))
        return None
    return payload


def layer_times(payload: dict) -> Dict[str, float]:
    """Busy time per layer (sum of its spans directly under the root) plus
    the root's wall and what no layer accounts for."""
    spans = payload["spans"]
    root = next(s for s in spans if s["parent"] is None)
    busy: Dict[str, float] = {}
    for s in spans:
        if s["parent"] == root["name"]:
            busy[s["name"]] = busy.get(s["name"], 0.0) + s["end"] - s["start"]
    wall = root["end"] - root["start"]
    return {"wall": wall, "unattributed": wall - sum(busy.values()), "busy": busy}


#: Traced span name -> per-layer metric name.
_BUSY_METRIC = {
    "synth": "synth.busy_s",
    "contam": "contam.busy_s",
    "baselines.dawo": "baselines.dawo.busy_s",
    "core.targets": "core.targets.busy_s",
    "core.pathgen": "core.pathgen.busy_s",
    "ilp": "ilp.busy_s",
    "core.assemble": "core.assemble.busy_s",
    "sim.validate": "sim.validate_s",
    "export.canonical": "export.canonical_s",
}


def table2_traced(opts: Options) -> Outcome:
    """The traced run: every Table II benchmark as stage calls in spans,
    one fresh child each, beside a plain cold child for the overhead."""
    out = Outcome()
    names = opts.sets(TABLE2)
    traced, plain = [], []
    for name in rotate(names, opts.seed):
        # Each traced child is paired with a plain one right after it, so
        # the overhead compares runs made under the same load.
        out.attempted += 2
        payload = trace_child(name, opts, out)
        if payload is not None:
            traced.append(payload)
        _, results = plans_child([name], opts, out)
        plain += results or []
    alloc_name = names[-1]  # Synthetic3 on the full suite
    out.attempted += 1
    alloc = run_child(
        python_child("alloc", alloc_name), child_env(opts.scratch.cache_dir()),
        opts.scratch.path, plan_timeout(1),
    )
    alloc_payload = last_json(alloc)
    if alloc.returncode != 0 or alloc_payload is None:
        out.fail(child_failure(f"alloc {alloc_name}", alloc))
    if not traced:
        zero_layers(out)
        return out

    plain_digest = {s["benchmark"]: s["digest"] for s in plain}
    per_bench = {}
    layers: Dict[str, float] = {m: 0.0 for m in _BUSY_METRIC.values()}
    wall = unattributed = 0.0
    hits = queries = 0
    ilp = {"ilp.presolve_s": 0.0, "ilp.build_s": 0.0, "ilp.solve_s": 0.0,
           "ilp.rows": 0.0, "ilp.binaries": 0.0}
    for payload in traced:
        name = payload["benchmark"]
        if plain_digest.get(name, payload["digest"]) != payload["digest"]:
            out.checks.append(f"traced {name}: plan differs from its cold run")
        if opts.table2_digests.get(name, payload["digest"]) != payload["digest"]:
            out.checks.append(f"traced {name}: plan differs from table2-cold")
        out.drift(f"table2/{name}", payload["digest"], opts)
        times = layer_times(payload)
        if times["unattributed"] > 0.01 * times["wall"]:
            out.checks.append(f"traced {name}: {times['unattributed']:.4f} s of "
                              f"{times['wall']:.4f} s outside every layer span")
        for span_name, busy in times["busy"].items():
            metric = _BUSY_METRIC.get(span_name)
            if metric is not None:
                layers[metric] += busy
        wall += times["wall"]
        unattributed += times["unattributed"]
        hits += payload["kernel_hits"]
        queries += payload["kernel_hits"] + payload["kernel_misses"]
        for key, value in payload["ilp"].items():
            ilp[f"ilp.{key}"] += value
        per_bench[name] = {**times, "kernel_queries": payload["kernel_hits"]
                           + payload["kernel_misses"], "ilp": payload["ilp"]}
    out.layers = {
        **layers,
        **ilp,
        "arch.pathkernel.queries": float(queries),
        "arch.pathkernel.hit_ratio": hits / queries if queries else 0.0,
        "ilp.alloc_peak_mb": alloc_payload["alloc_peak_mb"] if alloc_payload else 0.0,
        "unattributed_s": unattributed,
        "trace.overhead_s": wall - sum(s["wall_s"] for s in plain),
    }
    zero_layers(out)
    out.detail = {"benchmarks": per_bench, "spans": {p["benchmark"]: p["spans"] for p in traced},
                  "plain": plain, "traced_wall_s": wall}
    return out


# -- suite-small and degrade-repair (the ``pdw suite`` CLI) -----------------------


def cli_sample(args: Sequence[str], plans: int, opts: Options) -> ChildResult:
    """``pdw ARGS`` behind the readiness wrapper, with a fresh cache dir.

    The fresh ``REPRO_CACHE_DIR`` matters even under ``--no-cache``: the
    degrade matrix and the suite journal still write to the default
    cache, and a reused one serves the next sample's cells warm.
    """
    return run_child(
        python_child("cli", *args), child_env(opts.scratch.cache_dir()),
        opts.scratch.path, plan_timeout(plans),
    )


def cli_samples(args: Sequence[str], plans: int, opts: Options,
                parse: Callable[[ChildResult, Outcome], dict], out: Outcome) -> List[dict]:
    samples = []
    started = time.perf_counter()
    while not opts.enough(len(samples), started):
        opts.probe()
        result = cli_sample(args, plans, opts)
        opts.started(result)
        sample = parse(result, out)
        sample.update(wall_s=result.wall_s, cpu_s=result.cpu_s,
                      setup_s=result.setup_s, maxrss_mb=result.maxrss_mb)
        samples.append(sample)
    # ``pdw --help`` starts the same CLI and exits once it is ready.
    opts.top_up_startups(lambda: cli_sample(["--help"], 1, opts))
    return samples


def process_metrics(samples: Sequence[dict], jobs: Sequence[float], opts: Options,
                    out: Outcome) -> Dict[str, float]:
    """End-to-end timings of CLI samples.  ``jobs`` are the walls the CLI
    printed per benchmark or cell, pooled over the samples."""
    walls = [s["wall_s"] for s in samples]
    return {
        "wall_s": median(walls),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "setup_s": restated_setup(opts, out),
        "peak_rss_mb": median([s["maxrss_mb"] for s in samples]),
        **job_metrics(jobs, out),
        # Throughput is charged the CLI's whole wall, engine and start-up too.
        "jobs_per_s": len(jobs) / sum(walls),
    }


_SUITE_ROW = re.compile(
    r"^(?P<name>\S+)\s+OK \((?P<origin>\w+)\)\s+wall=(?P<wall>[0-9.]+)s\s+"
    r"T_assay pdw=(?P<t_assay>\S+)s$"
)
_SUITE_FAILED = re.compile(r"^(?P<name>\S+)\s+(?P<label>FAILED\(\w+\)|INFEASIBLE_DEGRADED)")


def parse_suite(result: ChildResult, out: Outcome) -> dict:
    rows = {}
    for line in result.lines:
        m = _SUITE_ROW.match(line)
        if m:
            rows[m["name"]] = {"wall_s": float(m["wall"]), "t_assay_s": float(m["t_assay"]),
                               "origin": m["origin"]}
            continue
        m = _SUITE_FAILED.match(line)
        if m:
            out.attempted += 1
            out.fail(f"suite row {m['name']}: {m['label']}")
    out.attempted += len(rows)
    if result.returncode != 0:
        out.fail(child_failure("pdw suite", result))
    for name, row in rows.items():
        if row["origin"] != "run":
            out.checks.append(f"suite row {name} was not computed cold ({row['origin']})")
    return {"rows": rows}


def suite_small(opts: Options) -> Outcome:
    out = Outcome()
    names = opts.sets(SUITE_SMALL)
    args = ["suite", *rotate(names, opts.seed), "--no-cache"]
    samples = cli_samples(args, len(names), opts, parse_suite, out)
    # The suite prints T_assay only; the rest of each plan comes from the
    # same benchmarks run cold through run_benchmark, which must agree.
    out.attempted += 1
    _, plans = plans_child(names, opts, out)
    if plans is None:
        zero_layers(out)
        return out
    for plan in plans:
        name = plan["benchmark"]
        out.drift(f"table2/{name}", plan["digest"], opts)
        for sample in samples:
            row = sample["rows"].get(name)
            if row is None:
                out.checks.append(f"suite-small: no row for {name}")
            elif row["t_assay_s"] != plan["metrics"]["t_assay_s"]:
                out.checks.append(f"suite-small: {name} T_assay {row['t_assay_s']} "
                                  f"!= {plan['metrics']['t_assay_s']}")
    bench_s = [sum(r["wall_s"] for r in s["rows"].values()) for s in samples]
    rows = [r["wall_s"] for s in samples for r in s["rows"].values()]
    out.metrics = {**process_metrics(samples, rows, opts, out), **quality(plans)}
    out.layers = {
        "experiments.benchmarks_s": median(bench_s),
        "experiments.engine_s": median([s["wall_s"] - b for s, b in zip(samples, bench_s)]),
    }
    zero_layers(out)
    out.detail.update(samples=samples, plans=plans)
    return out


def parse_degrade(result: ChildResult, out: Outcome) -> dict:
    """Rows of the degrade matrix table: benchmark, scenario, outcome,
    coverage, dead, washes, repairs, wall_s, detail."""
    cells = []
    for line in result.lines:
        parts = line.split()
        if len(parts) < 8 or parts[0] not in TABLE2:
            continue
        out.attempted += 1
        cell = {
            "benchmark": parts[0],
            "scenario": parts[1],
            "outcome": parts[2],
            "coverage_pct": float(parts[3].rstrip("%")),
            "washes": int(parts[5]),
            "repairs": int(parts[6]),
            "wall_s": float(parts[7]),
        }
        if cell["outcome"].startswith("FAILED"):
            out.fail(f"degrade cell {parts[0]}: {cell['outcome']}")
        cells.append(cell)
    # Exit 3 flags FAILED cells (counted above) or INFEASIBLE_DEGRADED ones,
    # a reported outcome on a broken chip kept in degrade.infeasible_cells.
    if result.returncode not in (0, 3) or not cells:
        out.fail(child_failure("pdw suite --degrade", result))
    return {"cells": cells}


_DEGRADE_OUTCOME = {"repaired": "REPAIRED", "degraded": "DEGRADED",
                    "infeasible": "INFEASIBLE_DEGRADED"}


def degrade_repair(opts: Options) -> Outcome:
    out = Outcome()
    names = opts.sets(DEGRADE_SET, smoke="Kinase-act-2")
    args = ["suite", *rotate(names, opts.seed), "--degrade", DEGRADE_SPEC,
            "--degrade-online", DEGRADE_ONLINE, "--no-cache"]
    plans_per_call = len(names) * DEGRADE_PLANS_PER_CELL
    samples = cli_samples(args, plans_per_call, opts, parse_degrade, out)
    # The matrix prints washes and coverage only; re-plan the cells through
    # the library calls the CLI makes and require the rows to agree.
    out.attempted += 1
    check = run_child(
        python_child("degrade", DEGRADE_SPEC, DEGRADE_ONLINE, *names),
        child_env(opts.scratch.cache_dir()), opts.scratch.path, plan_timeout(plans_per_call),
    )
    payload = last_json(check)
    if check.returncode != 0 or payload is None:
        out.fail(child_failure("degrade check", check))
        zero_layers(out)
        return out
    plans = payload["cells"]
    for plan in plans:
        name = plan["benchmark"]
        out.drift(f"degrade/{name}", plan["digest"], opts)
        want = {"outcome": _DEGRADE_OUTCOME[plan["status"]], "washes": plan["metrics"]["n_wash"],
                "repairs": plan["repairs"], "coverage_pct": round(100.0 * plan["coverage"])}
        for sample in samples:
            row = next((c for c in sample["cells"] if c["benchmark"] == name), None)
            got = row and {k: row[k] for k in want}
            if got != want:
                out.checks.append(f"degrade-repair: {name} row {got} != library {want}")
    cells_s = [sum(c["wall_s"] for c in s["cells"]) for s in samples]
    cells = [c["wall_s"] for s in samples for c in s["cells"]]
    out.metrics = {**process_metrics(samples, cells, opts, out), **quality(plans)}
    out.layers = {
        "degrade.cells_s": median(cells_s),
        "degrade.engine_s": median([s["wall_s"] - c for s, c in zip(samples, cells_s)]),
        "degrade.repair_rounds": float(sum(p["repairs"] for p in plans)),
        "degrade.infeasible_cells": float(sum(p["status"] == "infeasible" for p in plans)),
    }
    zero_layers(out)
    out.detail.update(samples=samples, plans=plans)
    return out


# -- serve-mixed ---------------------------------------------------------------


def plan_digest(raw: bytes) -> str:
    """Digest of served plan bytes as ``canonical_plan_json`` text (the
    server appends one newline)."""
    return hashlib.sha256(raw.rstrip(b"\n")).hexdigest()


def start_server(opts: Options, timeout: float) -> Child:
    """``pdw serve`` on a free port with a fresh cache directory."""
    cache = opts.scratch.cache_dir()
    argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--workers", str(serveload.CLIENTS), "--cache", str(cache)]
    return Child(argv, child_env(cache), opts.scratch.path, timeout)


def listening(server: Child) -> tuple:
    """Wait for the readiness line; ``(host, port)`` it announces."""
    line = server.wait_line(lambda l: l.startswith("pdw serve listening on http://"))
    host, port = line.rsplit("/", 1)[-1].rsplit(":", 1)
    return host, int(port)


def serve_startup(opts: Options) -> ChildResult:
    """A bare server start-up: spawn, wait until it listens, shut it down."""
    server = start_server(opts, plan_timeout(1))
    try:
        listening(server)
    except HarnessError:
        pass  # reported through the missing setup_s
    finally:
        server.terminate()
    return server.finish()


def serve_sample(trace, opts: Options, out: Outcome) -> dict:
    """One fresh server and cache, one replay of ``trace``, then shutdown."""
    opts.probe()
    # Each distinct request may be a cold plan; a repeat costs HTTP round
    # trips, allowed a second each.
    server = start_server(opts, plan_timeout(len(set(trace))) + len(trace))
    requests, scraped = [], {}
    try:
        host, port = listening(server)
        requests = serveload.drive(host, port, trace)
        scraped = serveload.scrape(host, port)
    except HarnessError:
        pass
    finally:
        server.terminate()
        process = server.finish()
    opts.started(process)
    if not requests:
        out.fail(child_failure("pdw serve", process))
    out.attempted += len(requests)
    ok = []
    for req in requests:
        if req.error is None:
            ok.append(req)
        else:
            out.fail(f"serve {req.benchmark} {req.weights}: {req.error}")
    return {"ok": ok, "requests": len(requests), "scraped": scraped, "process": process,
            "rejected": sum(r.error == "submit 429" for r in requests),
            "wall_s": max(r.ended for r in ok) - min(r.started for r in ok) if ok else None}


def serve_mixed(opts: Options) -> Outcome:
    out = Outcome()
    names = opts.sets(serveload.SERVE_BENCHMARKS)
    samples = []
    started = time.perf_counter()
    while not opts.enough(len(samples), started):
        trace = serveload.build_trace(f"{opts.seed}:{len(samples)}")
        trace = [(b, w) for b, w in trace if b in names][: 10 if opts.smoke else None]
        samples.append(serve_sample(trace, opts, out))
    opts.top_up_startups(lambda: serve_startup(opts))
    samples = [s for s in samples if s["ok"]]
    if not samples:
        zero_layers(out)
        return out
    done = [r for s in samples for r in s["ok"]]
    created = [r.status for r in done if r.created and r.status is not None]

    plans: Dict[tuple, bytes] = {}
    for req in done:
        key = (req.benchmark, req.weights)
        if plans.setdefault(key, req.plan) != req.plan:
            out.checks.append(f"serve-mixed: {key} plan bytes differ between requests")
    summaries = []
    for (name, weights), raw in sorted(plans.items()):
        digest = plan_digest(raw)
        key = f"serve/{name}/{','.join(f'{w:g}' for w in weights)}"
        out.drift(key, digest, opts)
        if weights == serveload.WEIGHTS[0]:
            table2 = opts.table2_digests.get(name)
            if table2 is not None and table2 != digest:
                out.checks.append(f"serve-mixed: {name} paper-weight plan != table2-cold plan")
            elif table2 is None and opts.reference.get(f"table2/{name}") != digest:
                out.plan_drift.append(f"serve/{name}: paper-weight plan != table2 reference")
        plan = json.loads(raw)
        summaries.append({"key": key, "digest": digest, "metrics": plan["metrics"],
                          "coverage": plan.get("degradation", {}).get("coverage", 1.0)})

    procs = [s["process"] for s in samples]
    polls = [p for r in done for p in r.poll_s]
    detail = [{"wall_s": s["wall_s"], "requests": s["requests"], "cpu_s": s["process"].cpu_s,
               "setup_s": s["process"].setup_s, "maxrss_mb": s["process"].maxrss_mb}
              for s in samples]
    out.metrics = {
        "wall_s": median([s["wall_s"] for s in samples]),
        "cpu_s": median([p.cpu_s for p in procs]),
        "setup_s": restated_setup(opts, out),
        "peak_rss_mb": median([p.maxrss_mb for p in procs]),
        **job_metrics([r.latency_s for r in done], out),
        # Two clients overlap their jobs: throughput is jobs per wall second.
        "jobs_per_s": median([len(s["ok"]) / s["wall_s"] for s in samples]),
        **quality(summaries),
    }
    out.layers = {
        "serve.submit_p50_s": median([r.submit_s for r in done]),
        "serve.poll_p50_s": median(polls) if polls else 0.0,
        "serve.plan_p50_s": median([r.plan_s for r in done]),
        "serve.queue_wait_p50_s": median([j["started_ts"] - j["submitted_ts"] for j in created])
        if created else 0.0,
        "serve.run_p50_s": median([j["finished_ts"] - j["started_ts"] for j in created])
        if created else 0.0,
        "serve.dedup_frac": median([sum(not r.created for r in s["ok"]) / len(s["ok"])
                                    for s in samples]),
        "serve.rejected": float(median([s["rejected"] for s in samples])),
        "serve.polls_per_job": len(polls) / len(done),
        "ilp.model_reused": median(
            [s["scraped"].get('pdw_ilp_warm_start_total{outcome="model_reused"}', 0.0)
             for s in samples]),
        "pipeline.run_cache_hits": median(
            [s["scraped"].get("pdw_run_cache_hits_total", 0.0) for s in samples]),
    }
    zero_layers(out)
    out.detail.update(samples=detail, plans=summaries)
    return out


WORKLOADS: Dict[str, Callable[[Options], Outcome]] = {
    "table2-cold": table2_cold,
    "suite-small": suite_small,
    "serve-mixed": serve_mixed,
    "degrade-repair": degrade_repair,
}

#: Workloads whose per-layer metrics need a separate traced procedure.
#: The others time their layers from outside (printed row walls,
#: per-request timings, job timestamps) at no cost to the run, so one
#: untraced outcome carries both metric sets.
TRACED: Dict[str, Callable[[Options], Outcome]] = {
    "table2-cold": table2_traced,
}
