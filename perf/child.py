"""Code that runs inside a measured child interpreter.

Each command imports what it needs, prints the readiness line, does its
work and prints one JSON object as its last stdout line.  The parent
(``perf/run.py``) spawns one child per cold sample, so every run here
starts with empty in-process memos.

Commands::

    plans  BENCH...            run_benchmark cold; validate; canonical digests
    trace  BENCH               the same work as stage calls, each in a span
    alloc  BENCH               tracemalloc peak of the ILP stage call
    degrade SPEC ONLINE BENCH...  re-plan degrade cells through the library
    cli    ARG...              readiness line, then ``pdw ARG...``

The timed paths call only ``run_benchmark``, the ``PDW_PIPELINE`` stage
objects (with ``dawo_plan`` and the validators around them) and the
``pdw`` CLI entry point.  The untimed degrade check re-plans through
``optimize_washes`` and ``repair_plan``, as the degrade matrix does.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from harness import READY

#: Stage name -> the module that does the stage's work (the layer name).
LAYER_OF_STAGE = {
    "replay": "contam",
    "necessity": "contam",
    "clusters": "core.targets",
    "pathgen": "core.pathgen",
    "ilp": "ilp",
    "assemble": "core.assemble",
}


def ready() -> None:
    print(READY, flush=True)


def emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_config():
    from repro.core import PDWConfig

    return PDWConfig(time_limit_s=120.0)


def plan_summary(plan) -> dict:
    from repro.export.plan_json import canonical_plan_json

    info = getattr(plan, "degradation", None)
    return {
        "digest": digest(canonical_plan_json(plan)),
        "metrics": plan.metrics(),
        "coverage": info.coverage if info is not None else 1.0,
    }


def cmd_plans(names) -> None:
    from repro.experiments.runner import run_benchmark
    from repro.sim.validate import validate_plan

    config = paper_config()
    ready()
    results = []
    for name in names:
        started = time.perf_counter()
        run = run_benchmark(name, config, use_cache=False)
        wall = time.perf_counter() - started
        for plan in (run.pdw, run.dawo):
            validate_plan(plan, run.synthesis)
        results.append({"benchmark": name, "wall_s": wall, **plan_summary(run.pdw)})
    emit({"results": results})


class Spans:
    """Harness-side spans kept in memory: name, start, end, parent."""

    def __init__(self) -> None:
        self.records = []
        self._stack = []

    def __call__(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append(
                {"name": name, "start": start, "end": end, "parent": parent}
            )


def pdw_stages(ctx, spans, after_replay):
    """Run ``PDW_PIPELINE`` stage by stage, exactly as the orchestrator does.

    ``after_replay`` runs once the contamination replay is on the context
    (DAWO shares it, as in ``run_benchmark``).  Returns the PDW plan.
    """
    from repro.core.pdw import no_wash_plan
    from repro.core.stages import PDW_PIPELINE

    for stage in PDW_PIPELINE:
        if stage.provides == "clusters" and not ctx.necessity.required:
            return no_wash_plan(ctx)
        layer = LAYER_OF_STAGE.get(stage.name, f"pipeline.{stage.name}")
        artifact = spans(layer, stage.compute, ctx)
        stage.apply(ctx, artifact)
        if stage.provides == "tracker":
            after_replay()
    return ctx.plan


def cmd_trace(name) -> None:
    from repro.arch.pathkernel import cache_counters
    from repro.baselines import dawo_plan
    from repro.bench import benchmark, load_benchmark
    from repro.core.pdw import verify_plan
    from repro.core.stages import PDWContext
    from repro.export.plan_json import canonical_plan_json
    from repro.sim.validate import validate_plan
    from repro.synth import synthesize

    config = paper_config()
    ready()
    spans = Spans()
    plans = {}

    def synth():
        spec = benchmark(name)
        return synthesize(load_benchmark(name), inventory=spec.inventory)

    def body():
        synthesis = spans("synth", synth)
        ctx = PDWContext(synthesis=synthesis, config=config)

        def dawo():
            plans["dawo"] = spans(
                "baselines.dawo", dawo_plan, synthesis, verify=False, tracker=ctx.tracker
            )

        plans["pdw"] = pdw_stages(ctx, spans, dawo)

        def validate():
            for plan in (plans["pdw"], plans["dawo"]):
                verify_plan(plan)
                validate_plan(plan, synthesis)

        spans("sim.validate", validate)
        texts = spans(
            "export.canonical",
            lambda: {k: canonical_plan_json(p) for k, p in plans.items()},
        )
        return ctx, synthesis, texts

    ctx, synthesis, texts = spans(f"table2.{name}", body)
    hits, misses = cache_counters(synthesis.chip)
    outcome = ctx.outcome
    emit(
        {
            "benchmark": name,
            "spans": spans.records,
            "digest": digest(texts["pdw"]),
            "kernel_hits": hits,
            "kernel_misses": misses,
            "ilp": {
                "presolve_s": outcome.presolve_time_s,
                "build_s": outcome.build_time_s,
                "solve_s": outcome.solve_time_s,
                "rows": outcome.n_constraints,
                "binaries": outcome.n_binaries,
            },
        }
    )


def cmd_alloc(name) -> None:
    import tracemalloc

    from repro.bench import benchmark, load_benchmark
    from repro.core.stages import PDW_PIPELINE, PDWContext
    from repro.synth import synthesize

    config = paper_config()
    ready()
    spec = benchmark(name)
    ctx = PDWContext(
        synthesis=synthesize(load_benchmark(name), inventory=spec.inventory),
        config=config,
    )
    peak = 0
    for stage in PDW_PIPELINE:
        if stage.provides == "outcome":
            tracemalloc.start()
            artifact = stage.compute(ctx)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            stage.apply(ctx, artifact)
            break
        stage.apply(ctx, stage.compute(ctx))
    emit({"benchmark": name, "alloc_peak_mb": peak / 2**20})


def cmd_degrade(spec_text, online, names) -> None:
    """Re-plan each degrade cell with the library calls ``pdw suite
    --degrade`` makes, and report the plans the CLI does not print.

    No extra validation here: ``optimize_washes`` validates the static
    degraded plan and ``repair_plan`` returns only validator-clean plans
    (against the online failure time) unless it reports ``infeasible``.
    """
    import dataclasses

    from repro.bench import benchmark, load_benchmark
    from repro.core import optimize_washes
    from repro.degrade.model import parse_matrix
    from repro.degrade.repair import parse_fault, repair_plan
    from repro.pipeline import default_cache
    from repro.synth import synthesize

    ready()
    cache = default_cache()
    cells = []
    for name in names:
        spec = benchmark(name)
        synthesis = synthesize(load_benchmark(name), inventory=spec.inventory)
        for scenario in parse_matrix(spec_text):
            config = dataclasses.replace(paper_config(), degrade=scenario.token())
            plan = optimize_washes(synthesis, config, cache=cache)
            fault = parse_fault(online, plan, synthesis)
            repair = repair_plan(plan, synthesis, config, fault, cache=cache)
            final = repair.plan
            cells.append(
                {
                    "benchmark": name,
                    "status": repair.status,
                    "repairs": len(repair.records),
                    **plan_summary(final),
                }
            )
    emit({"cells": cells})


def cmd_cli(args) -> None:
    from repro.cli import main

    ready()
    sys.exit(main(list(args)))


def main(argv) -> None:
    command, args = argv[0], argv[1:]
    if command == "plans":
        cmd_plans(args)
    elif command == "trace":
        cmd_trace(args[0])
    elif command == "alloc":
        cmd_alloc(args[0])
    elif command == "degrade":
        cmd_degrade(args[0], args[1], args[2:])
    elif command == "cli":
        cmd_cli(args)
    else:
        raise SystemExit(f"unknown child command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
