"""The lazily resolved package exports cannot drift from their sources.

Every package root resolves its public names on first access (PEP 562,
:mod:`repro.lazyutil`).  Each name must still be the very object its
defining module exports, star-imports and ``dir()`` must still see all of
``__all__``, and the quickstart in the package docstring must still run.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

import repro
import repro.arch
import repro.assay
import repro.baselines
import repro.core
import repro.experiments
import repro.export
import repro.ilp
import repro.obs
import repro.schedule
import repro.viz

PACKAGES = [
    repro,
    repro.arch,
    repro.assay,
    repro.baselines,
    repro.core,
    repro.experiments,
    repro.export,
    repro.ilp,
    repro.obs,
    repro.schedule,
    repro.viz,
]

#: Exports without a ``__module__`` of their own (plain data), by the
#: module that defines them.
DATA_EXPORTS = {
    "BENCHMARKS": "repro.bench.library",
    "BENCH_SCHEMA": "repro.obs.perf",
    "DEFAULT_BUCKETS": "repro.obs.metrics",
    "OPERATION_TYPES": "repro.assay.operations",
}


def _exports(package):
    return [name for name in package.__all__ if name != "__version__"]


@pytest.mark.parametrize(
    "package, name",
    [(p, n) for p in PACKAGES for n in _exports(p)],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_export_is_the_defining_modules_object(package, name):
    value = getattr(package, name)
    source = DATA_EXPORTS.get(name) or value.__module__
    assert getattr(importlib.import_module(source), name) is value
    # Resolved once, then a plain attribute of the package.
    assert vars(package)[name] is value


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_star_import_and_dir_cover_all(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")
    assert not hasattr(package, "no_such_export")


def test_submodules_still_import_through_the_package():
    from repro import errors
    from repro.arch import pathkernel
    from repro.ilp import faults
    from repro.obs import metrics, perf

    assert errors.ReproError is repro.ReproError
    assert pathkernel.__name__ == "repro.arch.pathkernel"
    assert faults.FaultSpec is repro.ilp.FaultSpec
    assert metrics.registry is repro.obs.registry
    assert perf.run_bench is repro.obs.run_bench


def test_package_docstring_quickstart_runs():
    result = doctest.testmod(repro, raise_on_error=False)
    assert result.attempted >= 5
    assert result.failed == 0


def test_ilp_docstring_example_runs():
    result = doctest.testmod(repro.ilp, raise_on_error=False)
    assert result.attempted >= 5
    assert result.failed == 0
