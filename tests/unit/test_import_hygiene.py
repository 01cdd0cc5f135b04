"""Start-up import hygiene of the entry points (docs/PERFORMANCE.md "Start-up").

Each case runs in a fresh interpreter, since this test process has long
since imported the whole stack.

* Commands that solve nothing — ``pdw --help``, ``pdw list``, ``pdw cache
  info`` — and a bare ``import repro`` / ``import repro.cli`` must not load
  numpy or scipy.
* The modules that fork suite workers or announce ``pdw serve`` readiness
  must load the solve stack at import, so forked workers inherit it and the
  first served job does not pay for it.
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

HEAVY = ("numpy", "scipy")


def _loaded_after(code: str, tmp_path: Path) -> set:
    """Run ``code`` in a fresh interpreter; the top-level modules it left
    loaded."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json as _json, sys as _sys
        print(_json.dumps(sorted(_sys.modules)))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


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
    "module", ["repro.experiments.supervisor", "repro.sched.executor", "repro.serve"]
)
def test_forking_and_serving_modules_load_the_solver_eagerly(module, tmp_path):
    assert "scipy.optimize" in _loaded_after(f"import {module}", tmp_path)
