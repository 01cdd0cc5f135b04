"""Warn-not-crash parsing and precedence of ``REPRO_*`` environment knobs.

Several subsystems take integer tuning knobs from the environment —
``REPRO_SUITE_WORKERS`` (suite fan-out), ``REPRO_SCHED_WORKERS`` (the
stage-DAG scheduler) and ``REPRO_CACHE_MAX_BYTES`` (artifact-cache size
bound).
They share one failure policy: a malformed value must never crash whatever
pipeline happened to read it first.  :func:`env_int` is the single
implementation of that policy; a bad value raises a :class:`RuntimeWarning`
naming the variable and falls back to ``default``.

Knobs that exist both as a CLI flag and as an environment variable
(``--cache DIR`` vs ``$REPRO_CACHE_DIR``, ``--sched-workers`` vs
``$REPRO_SCHED_WORKERS``) share one precedence rule, implemented once by
:func:`pick`: an explicit flag beats the environment beats the built-in
default.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, TypeVar

T = TypeVar("T")

#: Binary multipliers accepted when ``suffixes=True`` (cache sizes).
_SUFFIXES = (("K", 2**10), ("M", 2**20), ("G", 2**30))


def env_int(
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
    suffixes: bool = False,
) -> Optional[int]:
    """Parse ``$name`` as an integer, warning instead of crashing on junk.

    Returns ``default`` when the variable is unset, empty, malformed, or
    below ``minimum``.  ``suffixes=True`` additionally accepts a trailing
    (case-insensitive) ``K``/``M``/``G`` binary multiplier, the
    ``REPRO_CACHE_MAX_BYTES`` convention.  Every rejection path warns with
    a :class:`RuntimeWarning` whose message contains ``name``, so callers
    (and their tests) can match on the variable.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    scale = 1
    text = raw
    if suffixes:
        upper = text.upper()
        for suffix, factor in _SUFFIXES:
            if upper.endswith(suffix):
                scale, text = factor, text[:-1]
                break
    try:
        value = int(text) * scale
    except ValueError:
        hint = "an integer byte count with an optional K/M/G suffix" if suffixes else "an integer"
        warnings.warn(
            f"ignoring malformed {name}={raw!r} (expected {hint})",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    if minimum is not None and value < minimum:
        warnings.warn(
            f"ignoring out-of-range {name}={raw!r} (must be >= {minimum})",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return value


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """``$name`` stripped of whitespace, or ``default`` when unset/empty."""
    raw = os.environ.get(name, "").strip()
    return raw if raw else default


def pick(explicit: Optional[T], env_name: str, default: T) -> T:
    """Shared CLI/env/default precedence for dual-surface knobs.

    An explicit (non-``None``) value — typically a CLI flag — always wins;
    otherwise a non-empty ``$env_name`` is used; otherwise ``default``.
    Every knob that exists both as a flag and as a ``REPRO_*`` variable
    must resolve through here so the precedence cannot drift between
    subcommands (``pdw cache --cache`` vs ``pdw serve --cache``).
    """
    if explicit is not None:
        return explicit
    env = env_str(env_name)
    if env is not None:
        return env  # type: ignore[return-value]
    return default
