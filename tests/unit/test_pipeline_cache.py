"""Unit tests for the content-addressed artifact cache and its digests."""

import os
import subprocess
import sys

import pytest

from repro.core import PDWConfig
from repro.pipeline import (
    ArtifactCache,
    cache_enabled,
    default_cache_dir,
    digest_config,
    digest_synthesis,
    stable_digest,
)
from repro.synth import synthesize
from tests.conftest import build_demo_assay


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest("a", 1, [2, 3]) == stable_digest("a", 1, [2, 3])

    def test_order_sensitive(self):
        assert stable_digest("a", "b") != stable_digest("b", "a")

    def test_dict_key_order_irrelevant(self):
        assert stable_digest({"x": 1, "y": 2}) == stable_digest({"y": 2, "x": 1})

    def test_rejects_undigestable(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_stable_across_processes(self):
        """The digest must survive process boundaries (no hash() salt)."""
        expr = "stable_digest('stage', 'replay', '1', {'a': 1, 'b': [2, 3], 'c': None})"
        local = eval(expr, {"stable_digest": stable_digest})
        code = f"from repro.pipeline import stable_digest; print({expr})"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == local

    def test_config_digest_stable_across_processes(self):
        """Config digests (dataclass + enum canonicalization) cross processes."""
        local = digest_config(PDWConfig())
        code = (
            "from repro.core import PDWConfig;"
            "from repro.pipeline import digest_config;"
            "print(digest_config(PDWConfig()))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == local


class TestInvalidation:
    def test_config_change_changes_digest(self):
        assert digest_config(PDWConfig()) != digest_config(PDWConfig(beta=0.9))

    def test_necessity_policy_changes_digest(self):
        from repro.contam import NecessityPolicy

        a = digest_config(PDWConfig())
        b = digest_config(PDWConfig(necessity=NecessityPolicy.REUSE_ONLY))
        assert a != b

    def test_integration_window_changes_digest(self):
        a = digest_config(PDWConfig())
        b = digest_config(PDWConfig(integration_window_s=25.0))
        assert a != b

    def test_assay_change_changes_synthesis_digest(self):
        from repro.assay import Operation

        base = synthesize(build_demo_assay())
        grown = build_demo_assay()
        grown.add_operation(Operation("o7", "detect"), ["o6"])
        assert digest_synthesis(base) != digest_synthesis(synthesize(grown))

    def test_same_synthesis_same_digest(self):
        a = synthesize(build_demo_assay())
        b = synthesize(build_demo_assay())
        assert digest_synthesis(a) == digest_synthesis(b)


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        digest = stable_digest("roundtrip")
        assert cache.get(digest) is None
        cache.put(digest, {"answer": 42})
        assert digest in cache
        assert cache.get(digest) == {"answer": 42}

    def test_miss_on_unknown_digest(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get(stable_digest("never-stored")) is None

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        digest = stable_digest("corrupt")
        cache.put(digest, [1, 2, 3])
        path = cache._path(digest)
        path.write_bytes(b"not a pickle")
        assert cache.get(digest) is None
        # Quarantined (moved, never deleted) so the bytes stay for postmortems.
        assert not path.exists()
        assert len(list(cache.quarantined())) == 1

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(3):
            cache.put(stable_digest("entry", i), i)
        count, total = cache.stats()
        assert count == 3
        assert total > 0
        assert cache.clear() == 3
        assert cache.stats() == (0, 0)

    def test_overwrite_is_last_writer_wins(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        digest = stable_digest("rewrite")
        cache.put(digest, "old")
        cache.put(digest, "new")
        assert cache.get(digest) == "new"

    def test_benchmark_run_round_trip_keeps_graph_queries(self, tmp_path):
        """A pickled run still answers the assay and chip graph queries."""
        from repro.experiments.runner import BenchmarkRun, run_benchmark
        from repro.export import canonical_plan_json

        run = run_benchmark("Kinase-act-1", use_cache=False)
        cache = ArtifactCache(tmp_path)
        digest = stable_digest("benchmark-run")
        cache.put(digest, run)
        restored = cache.get(digest)
        assert isinstance(restored, BenchmarkRun)
        assay, chip = run.synthesis.assay, run.synthesis.chip
        assert (
            restored.synthesis.assay.topological_operations()
            == assay.topological_operations()
        )
        for node in chip.nodes:
            assert restored.synthesis.chip.neighbors(node) == chip.neighbors(node)
        assert canonical_plan_json(restored.pdw) == canonical_plan_json(run.pdw)


class TestDefaults:
    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_cache_disable_gate(self, monkeypatch):
        from repro.pipeline import default_cache

        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled()
        assert default_cache() is None
        monkeypatch.delenv("REPRO_CACHE")
        assert cache_enabled()
