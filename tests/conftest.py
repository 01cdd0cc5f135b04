"""Shared fixtures: a small demo assay and its synthesis artifacts.

Expensive artifacts (synthesis, wash plans) are session-scoped: the demo
assay is small enough that PDW solves it to optimality in well under a
second, and reusing the plans keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.assay import Operation, Reagent, SequencingGraph
from repro.baselines import dawo_plan
from repro.contam import ContaminationTracker
from repro.core import PDWConfig, optimize_washes
from repro.synth import synthesize


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Point the on-disk artifact cache at a throwaway per-session dir.

    Keeps the suite hermetic: tests never read from or write to the
    user's real ``~/.cache/repro-pdw``.
    """
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("artifact-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def build_demo_assay() -> SequencingGraph:
    """A 6-op assay exercising mixing, detection and heating."""
    g = SequencingGraph("demo")
    for i, fluid in enumerate(["sample", "enzyme", "dye", "salt"], start=1):
        g.add_reagent(Reagent(f"r{i}", fluid))
    g.add_operation(Operation("o1", "mix"), ["r1", "r2"])
    g.add_operation(Operation("o2", "mix"), ["r3", "r4"])
    g.add_operation(Operation("o3", "detect"), ["o1"])
    g.add_operation(Operation("o4", "heat"), ["o2"])
    g.add_operation(Operation("o5", "mix"), ["o3", "o4"])
    g.add_operation(Operation("o6", "detect"), ["o5"])
    return g


@pytest.fixture
def demo_assay() -> SequencingGraph:
    return build_demo_assay()


@pytest.fixture
def solver_fault(monkeypatch):
    """Arm a solver fault for the duration of one test.

    Usage: ``solver_fault("crash")`` — sets ``REPRO_INJECT_SOLVER_FAULT``
    and rewinds the deterministic flaky stream so tests are reproducible.
    ``REPRO_FORCE_SOLVER`` is cleared for the test: a fault is injected
    into the full ladder, which a forced rung would replace.
    """
    from repro.ilp import faults

    monkeypatch.delenv(faults.ENV_FORCE, raising=False)

    def arm(kind: str, seed: str | None = None):
        monkeypatch.setenv(faults.ENV_FAULT, kind)
        if seed is not None:
            monkeypatch.setenv(faults.ENV_SEED, seed)
        faults.reset()

    yield arm
    faults.reset()


@pytest.fixture
def stage_fault(monkeypatch, tmp_path):
    """Arm a pipeline-wide stage fault for the duration of one test.

    Usage: ``stage_fault("pathgen:crash")`` — sets
    ``REPRO_INJECT_STAGE_FAULT`` and points the chaos counter state at a
    throwaway directory so count-limited faults start fresh per test.
    """
    from repro.pipeline import chaos

    def arm(spec: str):
        monkeypatch.setenv(chaos.ENV_STAGE_FAULT, spec)
        monkeypatch.setenv(chaos.ENV_STATE_DIR, str(tmp_path / "chaos-state"))
        chaos.reset()

    yield arm
    chaos.reset()


@pytest.fixture(scope="session")
def demo_synthesis():
    return synthesize(build_demo_assay())


@pytest.fixture(scope="session")
def demo_tracker(demo_synthesis):
    return ContaminationTracker(demo_synthesis.chip, demo_synthesis.schedule)


@pytest.fixture(scope="session")
def demo_pdw_plan(demo_synthesis):
    return optimize_washes(demo_synthesis, PDWConfig(time_limit_s=30.0))


@pytest.fixture(scope="session")
def demo_dawo_plan(demo_synthesis):
    return dawo_plan(demo_synthesis)
