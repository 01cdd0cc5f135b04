"""Unit tests for warm-started incremental re-solve (repro.ilp.incremental)."""

import pytest

from repro.core import PDWConfig
from repro.ilp import LinExpr, Model, SolveStatus
from repro.ilp import incremental
from repro.pipeline import ArtifactCache
from repro.pipeline import cache as cache_module


def knapsack_model() -> Model:
    m = Model()
    x = m.add_integer_var("x", 0, 10)
    y = m.add_integer_var("y", 0, 10)
    m.add_constr(x + y <= 7)
    m.set_objective(3 * x + 2 * y, sense="max")
    return m


class TestStructureDigest:
    def test_weights_do_not_change_the_digest(self):
        a = incremental.structure_digest("syn", PDWConfig(alpha=0.3, beta=0.3, gamma=0.4))
        b = incremental.structure_digest("syn", PDWConfig(alpha=0.9, beta=0.05, gamma=0.05))
        assert a == b

    def test_budget_and_solver_knobs_do_not_change_the_digest(self):
        a = incremental.structure_digest("syn", PDWConfig(time_limit_s=5.0))
        b = incremental.structure_digest(
            "syn", PDWConfig(time_limit_s=300.0, mip_gap=0.2, solver="branch_bound")
        )
        assert a == b

    def test_candidate_knobs_change_the_digest(self):
        base = incremental.structure_digest("syn", PDWConfig())
        assert base != incremental.structure_digest("syn", PDWConfig(max_candidates=3))
        assert base != incremental.structure_digest("syn", PDWConfig(enable_integration=False))
        assert base != incremental.structure_digest("syn", PDWConfig(max_wash_path_mm=12.0))

    def test_synthesis_digest_changes_the_digest(self):
        cfg = PDWConfig()
        assert incremental.structure_digest("syn-a", cfg) != incremental.structure_digest(
            "syn-b", cfg
        )

    def test_solver_environment_changes_the_digest(self, monkeypatch):
        from repro.ilp import faults

        monkeypatch.delenv(faults.ENV_FORCE, raising=False)
        cfg = PDWConfig()
        clean = incremental.structure_digest("syn", cfg)
        monkeypatch.setenv(faults.ENV_FORCE, "branch_bound")
        assert incremental.structure_digest("syn", cfg) != clean


class TestAdoptIncumbent:
    def test_feasible_assignment_adopted_with_fresh_objective(self):
        model = knapsack_model()
        adopted = incremental.adopt_incumbent(model, {"x": 7.0, "y": 0.0})
        assert adopted is not None
        assert adopted.status is SolveStatus.FEASIBLE
        # Objective evaluated under *this* model's weights (max 3x + 2y).
        assert adopted.objective == pytest.approx(21.0)

    def test_missing_variable_rejected(self):
        model = knapsack_model()
        assert incremental.adopt_incumbent(model, {"x": 7.0}) is None

    def test_constraint_violation_rejected(self):
        model = knapsack_model()
        assert incremental.adopt_incumbent(model, {"x": 7.0, "y": 7.0}) is None


class TestIncumbentRoundtrip:
    def test_store_then_load_then_adopt(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        model = knapsack_model()
        solution = model.solve()
        digest = incremental.structure_digest("syn", PDWConfig())
        assert incremental.store_incumbent(cache, digest, solution, PDWConfig())
        payload = incremental.load_incumbent(cache, digest)
        assert payload is not None
        adopted = incremental.adopt_incumbent(knapsack_model(), payload["values"])
        assert adopted is not None
        assert adopted.objective == pytest.approx(solution.objective)

    def test_no_cache_is_a_clean_miss(self):
        digest = incremental.structure_digest("syn", PDWConfig())
        assert incremental.load_incumbent(None, digest) is None
        model = knapsack_model()
        assert not incremental.store_incumbent(None, digest, model.solve(), PDWConfig())

    def test_failed_solution_not_stored(self, tmp_path):
        from repro.ilp import Solution

        cache = ArtifactCache(tmp_path / "store")
        digest = incremental.structure_digest("syn", PDWConfig())
        failed = Solution(SolveStatus.ERROR, message="nope")
        assert not incremental.store_incumbent(cache, digest, failed, PDWConfig())
        assert incremental.load_incumbent(cache, digest) is None

    def test_an_incumbent_misses_under_another_salt(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path / "store")
        digest = incremental.structure_digest("syn", PDWConfig())
        monkeypatch.setattr(cache_module, "_code_salt", "old-source")
        assert incremental.store_incumbent(cache, digest, knapsack_model().solve(), PDWConfig())
        assert incremental.load_incumbent(cache, digest) is not None
        monkeypatch.setattr(cache_module, "_code_salt", "edited-source")
        assert incremental.load_incumbent(cache, digest) is None

    def test_foreign_payload_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        digest = incremental.structure_digest("syn", PDWConfig())
        cache.put(digest, {"values": ["not", "a", "mapping"]})
        assert incremental.load_incumbent(cache, digest) is None
        cache.put(digest, ["not", "a", "payload"])
        assert incremental.load_incumbent(cache, digest) is None

