"""Start-up import hygiene of the entry points (docs/PERFORMANCE.md "Start-up").

Each case runs in a fresh interpreter, since this test process has long
since imported the whole stack.

* Commands that solve nothing — ``pdw --help``, ``pdw list``, ``pdw cache
  info`` — and a bare ``import repro`` / ``import repro.cli`` must not load
  numpy, scipy or networkx.
* The modules that fork suite workers or announce ``pdw serve`` readiness
  must load the solve stack at import, so forked workers inherit it and the
  first served job does not pay for it.  That stack is SciPy's HiGHS
  binding alone (:mod:`repro.ilp.highs`): numpy, ``scipy.optimize`` and
  ``scipy.sparse`` stay unloaded.
* A planning process — the runner's import path, ``pdw serve`` — loads
  none of the report modules; ``repro.experiments`` exports them lazily.
* ``ctypes``, which pins glibc's mmap threshold, loads at a process's
  first solve or before its first forked child, not at start-up; a
  forked child inherits the pin and never loads it.
* The artifact cache's code salt is computed on the first cache access:
  neither importing an entry point nor a cache-off run computes it.
* networkx and numpy are test-only dependencies: no runtime module loads
  them, the solving ones included, and a cold plan made with both
  unimportable equals its pinned digest on either solving rung.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
ROOT = Path(SRC).parent

HEAVY = ("numpy", "scipy", "networkx")

#: SciPy's HiGHS binding, loaded without ``scipy.optimize``.
BINDING = "scipy.optimize._highspy._core"


def _run_fresh(code: str, tmp_path: Path, **environ: str) -> list:
    """Run ``code`` in a fresh interpreter, with ``environ`` added to the
    environment; its stdout lines, the last one the names of the modules
    it left loaded as JSON."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json as _json, sys as _sys
        print(_json.dumps(sorted(_sys.modules)))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.update(environ)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()


def _loaded_after(code: str, tmp_path: Path, **environ: str) -> set:
    """The names of the modules ``code`` left loaded in a fresh
    interpreter (see :func:`_run_fresh`)."""
    return set(json.loads(_run_fresh(code, tmp_path, **environ)[-1]))


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.cli",
        """
        from repro.cli import main
        try:
            main(["--help"])
        except SystemExit:
            pass
        """,
        "from repro.cli import main; main(['list'])",
        "from repro.cli import main; main(['cache', 'info'])",
    ],
    ids=["import-repro", "import-cli", "help", "list", "cache-info"],
)
def test_non_solving_entry_points_skip_the_solver_stack(code, tmp_path):
    loaded = _loaded_after(code, tmp_path)
    assert not [m for m in HEAVY if m in loaded]


@pytest.mark.parametrize(
    "module",
    [
        "repro.experiments.runner",
        "repro.sched.executor",
        "repro.serve",
    ],
)
def test_forking_and_serving_modules_load_the_solver_eagerly(module, tmp_path):
    loaded = _loaded_after(f"import {module}", tmp_path)
    assert BINDING in loaded
    assert not [m for m in ("numpy", "scipy.optimize", "scipy.sparse", "networkx") if m in loaded]


#: The modules that render reports; ``repro.experiments`` exports their
#: entry points lazily, so planning never loads them.
REPORT_MODULES = tuple(
    f"repro.experiments.{name}"
    for name in (
        "ablation", "fig4", "fig5", "necessity_stats", "pareto", "reporting", "table2", "timings",
    )
)


@pytest.mark.parametrize(
    "code",
    [
        "import repro.experiments.runner; from repro.sim.validate import validate_plan",
        "import repro.serve",
    ],
    ids=["runner", "serve"],
)
def test_planning_processes_load_no_report_module(code, tmp_path):
    loaded = _loaded_after(code, tmp_path)
    assert not [m for m in REPORT_MODULES if m in loaded]


@pytest.mark.parametrize("module", ["repro.experiments.runner", "repro.cli", "repro.serve"])
def test_entry_points_leave_ctypes_to_the_first_solve(module, tmp_path):
    # The malloc pin (repro.ilp.highs.pin_mmap_threshold) imports ctypes
    # when a process first solves, never while it starts up.
    assert "ctypes" not in _loaded_after(f"import {module}", tmp_path)


def test_the_suite_engine_loads_in_the_suite_handler(tmp_path):
    # `import repro.cli` loads neither the engine nor the degradation
    # matrix; `pdw suite --degrade` imports both once dispatched to it.
    lines = _run_fresh(
        """
        import sys
        from repro.cli import main

        engine = ("repro.sched.executor", "repro.degrade.suite", "repro.procutil")
        print([m for m in engine if m in sys.modules])
        assert main(["suite", "PCR", "--degrade", "light", "--no-cache"]) == 0
        print([m for m in engine if m not in sys.modules])
        """,
        tmp_path,
    )
    assert lines[0] == "[]" and lines[-2] == "[]"


def test_imports_and_uncached_runs_compute_no_code_salt(tmp_path):
    # The cache's code salt hashes the package source on the first cache
    # access; start-up and cache-off runs never pay for it.
    lines = _run_fresh(
        """
        import repro.cli
        import repro.experiments.runner
        import repro.serve
        from repro.core import PDWConfig
        from repro.pipeline import cache

        print(cache._code_salt)
        repro.experiments.runner.run_benchmark(
            "PCR", PDWConfig(time_limit_s=40), use_cache=False
        )
        print(cache._code_salt)
        """,
        tmp_path,
    )
    assert lines[:2] == ["None", "None"]


def test_a_solve_pins_the_mmap_threshold(tmp_path):
    loaded = _loaded_after(
        """
        from repro.cli import main
        from repro.ilp import highs
        assert highs._pin_pending
        assert main(["run", "PCR", "--no-cache"]) == 0
        assert not highs._pin_pending
        """,
        tmp_path,
    )
    assert "ctypes" in loaded


#: Imports every planning process must do without; the binding needs none.
UNIMPORTABLE = """
        import sys
        for name in ("networkx", "numpy", "scipy.optimize", "scipy.sparse"):
            sys.modules[name] = None  # any import of it now raises
        """


def _solve_without_networkx_or_scipy_optimize(tmp_path, force: str) -> set:
    return _loaded_after(
        UNIMPORTABLE + """
        from repro.cli import main
        assert main(["run", "PCR", "--no-cache"]) == 0
        """,
        tmp_path,
        REPRO_FORCE_SOLVER=force,
    )


def test_a_solve_runs_with_networkx_unimportable(tmp_path):
    assert BINDING in _solve_without_networkx_or_scipy_optimize(tmp_path, "")


def test_a_branch_and_bound_solve_runs_with_networkx_unimportable(tmp_path):
    assert BINDING in _solve_without_networkx_or_scipy_optimize(tmp_path, "branch_bound")


#: Where each solving rung's cold PCR plan is pinned.
PINS = {
    "": ("perf/reference.json", "table2/PCR"),
    "branch_bound": ("tests/data/branch_bound_digests.json", "branch_bound/PCR"),
}


@pytest.mark.parametrize("force", sorted(PINS), ids=["highs", "branch_bound"])
def test_a_cold_plan_without_numpy_matches_its_pin(force, tmp_path):
    *_, rung, digest, _ = _run_fresh(
        UNIMPORTABLE + """
        import hashlib
        from repro.core import PDWConfig
        from repro.experiments.runner import run_benchmark
        from repro.export import canonical_plan_json

        run = run_benchmark("PCR", PDWConfig(time_limit_s=120), use_cache=False)
        print(run.pdw.solver_rung)
        print(hashlib.sha256(canonical_plan_json(run.pdw).encode("utf-8")).hexdigest())
        """,
        tmp_path,
        REPRO_FORCE_SOLVER=force,
    )
    path, key = PINS[force]
    with open(ROOT / path, encoding="utf-8") as fh:
        assert digest == json.load(fh)["digests"][key]
    assert rung == (force or "highs")


def test_a_served_job_imports_nothing_the_server_has_not(tmp_path):
    # Job children fork from the multi-threaded server, where an import
    # could wait forever on a lock another thread held at fork time; so
    # importing repro.serve must already load everything a job runs.
    # The jobs run in one child forked as the server forks them.
    _loaded_after(
        """
        import os
        import sys
        from repro.assay import graph_to_dict
        from repro.bench import load_benchmark
        from repro.obs import metrics
        from repro.pipeline import ArtifactCache
        from repro.procutil import MP, Child
        from repro.serve import parse_job, server

        cache = ArtifactCache(os.environ["REPRO_CACHE_DIR"])
        assay = graph_to_dict(load_benchmark("Kinase-act-1"))
        payloads = [{"benchmark": "Kinase-act-1", "method": m} for m in ("pdw", "dawo")]
        payloads += [{"assay": assay, "method": m} for m in ("pdw", "dawo", "immediate")]

        def jobs(conn):
            before = set(sys.modules)
            for payload in payloads:
                spec = parse_job({**payload, "config": {"time_limit_s": 20}})
                target = spec.benchmark or server.graph_from_dict(dict(spec.assay))
                with server.sched_journal.stage_journal(cache.root / "j.jsonl", spec.target, "j"):
                    plan = server.plan_one(target, spec.method, spec.config, cache)
                reader, writer = MP.Pipe(duplex=False)
                writer.send(("ok", server.canonical_plan_dict(plan), metrics.snapshot()))
                reader.recv()
            conn.send(sorted(set(sys.modules) - before))

        new, failure = Child(jobs, name="jobs", timeout_s=100).wait().finish()
        assert new == [], (new, failure)
        """,
        tmp_path,
    )


def test_a_forked_child_inherits_the_pin_and_loads_no_ctypes(tmp_path):
    # The forking parent pins glibc's mmap threshold before its first
    # child: a child's solves never import ctypes, which under an
    # address-space cap can fail to map and read as a crash.
    _loaded_after(
        """
        import sys
        from repro.ilp import Model, highs
        from repro.procutil import Child

        assert highs._pin_pending and "ctypes" not in sys.modules

        def child(conn):
            before = {m for m in sys.modules if "ctypes" in m}
            pending = highs._pin_pending
            model = Model()
            x, y = model.add_binary_var("x"), model.add_binary_var("y")
            model.add_constr(x + y >= 1)
            model.set_objective(2 * x + y)
            status = model.solve().status.value
            after = {m for m in sys.modules if "ctypes" in m}
            conn.send((pending, status, sorted(after - before)))

        got, failure = Child(child, name="pin", timeout_s=60).wait().finish()
        assert got == (False, "optimal", []), (got, failure)
        assert not highs._pin_pending and "ctypes" in sys.modules
        """,
        tmp_path,
    )


def test_the_server_does_not_load_the_suite_engine(tmp_path):
    # A served job makes one plan the way `pdw run` does; the suite
    # engine is `pdw suite`'s alone.
    assert "repro.sched.executor" not in _loaded_after("import repro.serve", tmp_path)
