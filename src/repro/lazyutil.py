"""On-demand re-exports for package roots (PEP 562).

A package root that re-exports names from its submodules would import
every one of them — and their third-party dependencies — the moment any
``repro.*`` module is imported.  :func:`lazy_exports` builds the module
``__all__``, ``__getattr__`` and ``__dir__`` that resolve each exported
name from its defining module on first access instead, and cache it in
the package namespace so later lookups are plain attribute reads::

    __all__, __getattr__, __dir__ = lazy_exports(
        __name__, {"repro.arch.chip": ("Chip", "NodeKind")}
    )

A name missing from the table raises :class:`AttributeError` as usual,
which also lets ``from package import submodule`` fall through to the
import system.

It serves the one import rule (DESIGN.md §11): package roots export
lazily, and off-path code (a fallback solver rung, the cache's
``pickle``, ``pdw bench``'s ``subprocess``) imports at its call site, so
a process loads only what it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, modules: Mapping[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, given each
    defining module and the names it exports."""
    table = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return sorted(table), __getattr__, __dir__
