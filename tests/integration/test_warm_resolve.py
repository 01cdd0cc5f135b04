"""End-to-end acceptance of the warm-started re-solve.

Structurally identical jobs that differ only in objective weights build
their own model and prime the solve with the previous winner's
assignment from the artifact cache; priming may not change the plan a
cold solve of the same weights produces.
"""

from repro.core import PDWConfig, optimize_washes
from repro.pipeline import ArtifactCache
from repro.sim.validate import validation_problems


class TestWarmResolve:
    def test_weight_sweep_reuses_model_and_incumbent(self, demo_synthesis, tmp_path):
        cache = ArtifactCache(tmp_path / "warm")
        cold = optimize_washes(
            demo_synthesis, PDWConfig(alpha=0.3, beta=0.3, gamma=0.4), cache=cache
        )
        warm = optimize_washes(
            demo_synthesis, PDWConfig(alpha=0.7, beta=0.2, gamma=0.1), cache=cache
        )
        assert cold.notes.get("stage.ilp.warm_started") is None
        assert warm.notes.get("stage.ilp.warm_started") == 1.0
        assert validation_problems(warm, demo_synthesis) == []

    def test_warm_resolve_plan_equals_cold_plan(self, demo_synthesis, tmp_path):
        # Priming only helps branch-and-bound prune; with HiGHS healthy
        # the warm plan must be identical to a cold solve of the same
        # weights in a fresh process.
        cache = ArtifactCache(tmp_path / "warm")
        weights = PDWConfig(alpha=0.7, beta=0.2, gamma=0.1)
        optimize_washes(demo_synthesis, PDWConfig(), cache=cache)
        warm = optimize_washes(demo_synthesis, weights, cache=cache)
        cold = optimize_washes(demo_synthesis, weights)
        assert [(w.id, w.start, w.path) for w in warm.washes] == [
            (w.id, w.start, w.path) for w in cold.washes
        ]
