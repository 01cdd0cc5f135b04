"""The artifact cache's code salt (:func:`repro.pipeline.cache.code_salt`).

The salt is a SHA-256 over the ``repro`` package source.  An edit to any
module changes it, and every entry written under the old salt becomes a
plain miss: whole benchmark runs, stage artifacts (see
``test_pipeline_report.py``) and ILP incumbents (see
``test_ilp_incremental.py``) alike.
"""

import shutil

from repro.core import PDWConfig
from repro.experiments import runner
from repro.pipeline import ArtifactCache
from repro.pipeline import cache as cache_module


class TestSaltHashesTheSource:
    def test_edits_renames_and_new_modules_change_the_salt(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        shutil.copytree(
            cache_module._PACKAGE_DIR, package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )

        def salt_of(directory):
            monkeypatch.setattr(cache_module, "_PACKAGE_DIR", directory)
            monkeypatch.setattr(cache_module, "_code_salt", None)
            return cache_module.code_salt()

        installed = salt_of(cache_module._PACKAGE_DIR)
        # A function of the sources and their relative paths, not of
        # where the package lives.
        assert salt_of(package) == installed
        (package / "pipeline" / "NOTES.txt").write_text("not source\n")
        assert salt_of(package) == installed

        module = package / "pipeline" / "stage.py"
        with module.open("a", encoding="utf-8") as fh:
            fh.write("# edited\n")
        edited = salt_of(package)
        assert edited != installed
        module.rename(package / "pipeline" / "stage2.py")
        renamed = salt_of(package)
        assert renamed not in (installed, edited)
        (package / "extra.py").write_text("")
        assert salt_of(package) not in (installed, edited, renamed)

    def test_the_salt_is_memoized(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_code_salt", None)
        first = cache_module.code_salt()
        monkeypatch.setattr(cache_module, "_PACKAGE_DIR", None)  # not read again
        assert cache_module.code_salt() == first


def test_a_cached_run_misses_under_another_salt(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path / "store")
    config = PDWConfig(time_limit_s=40.0)

    def run():
        monkeypatch.setattr(runner, "_CACHE", {})  # a new process's memo
        return runner.run_benchmark("PCR", config, cache=cache)

    monkeypatch.setattr(cache_module, "_code_salt", "old-source")
    cold = run()
    assert not cold.from_cache
    assert run().from_cache

    monkeypatch.setattr(cache_module, "_code_salt", "edited-source")
    edited = run()
    assert not edited.from_cache
    assert "cache" not in {rec.origin for rec in edited.report.stages}
    assert edited.pdw.metrics() == cold.pdw.metrics()
