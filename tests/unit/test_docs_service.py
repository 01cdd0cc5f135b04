"""docs/SERVICE.md cannot drift from the live route registry.

The endpoint table is parsed out of the handbook and asserted row-by-row
against ``repro.serve.routes.ROUTES`` — method, path and the full status
-code set must match exactly, in both directions — and the documented
lifecycle states must match ``repro.serve.jobs.JOB_STATES``.  The same
contract docs/CLI.md has with ``build_parser()``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.serve import ROUTES
from repro.serve.jobs import JOB_STATES
from repro.serve.wire import _CONFIG_FIELDS

SERVICE_MD = Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"

#: An endpoint-table row: | `METHOD` | `/path` | purpose | codes |
_ROW = re.compile(
    r"^\|\s*`(?P<method>GET|POST|PUT|DELETE|PATCH)`\s*"
    r"\|\s*`(?P<path>/[^`]*)`\s*"
    r"\|\s*(?P<summary>[^|]+?)\s*"
    r"\|\s*(?P<codes>[\d,\s]+?)\s*\|\s*$",
    flags=re.M,
)


def _documented_rows(text: str) -> dict:
    rows = {}
    for m in _ROW.finditer(text):
        key = (m.group("method"), m.group("path"))
        codes = tuple(sorted(int(c) for c in re.findall(r"\d+", m.group("codes"))))
        rows[key] = codes
    return rows


class TestServiceDocs:
    text = SERVICE_MD.read_text(encoding="utf-8")
    rows = _documented_rows(text)
    registry = {(r.method, r.path): tuple(sorted(r.codes)) for r in ROUTES}

    def test_table_parsed_at_all(self):
        assert self.rows, "no endpoint-table rows found in docs/SERVICE.md"

    def test_every_route_has_a_table_row(self):
        missing = set(self.registry) - set(self.rows)
        assert not missing, f"routes undocumented in docs/SERVICE.md: {sorted(missing)}"

    def test_no_row_documents_a_ghost_route(self):
        ghosts = set(self.rows) - set(self.registry)
        assert not ghosts, f"docs/SERVICE.md documents nonexistent routes: {sorted(ghosts)}"

    @pytest.mark.parametrize("route", sorted(
        {(r.method, r.path) for r in ROUTES}
    ))
    def test_status_codes_match_exactly(self, route):
        assert self.rows[route] == self.registry[route], (
            f"{route[0]} {route[1]}: docs say {self.rows[route]}, "
            f"registry says {self.registry[route]}"
        )

    def test_lifecycle_states_documented(self):
        for state in JOB_STATES:
            assert re.search(rf"`{state}`", self.text), (
                f"lifecycle state {state!r} missing from docs/SERVICE.md"
            )

    def test_lifecycle_diagram_present(self):
        # The state machine sketch names every transition source.
        assert "queued ──▶ running" in self.text

    def test_dedup_and_backpressure_sections_present(self):
        for heading in ("Dedup semantics", "Backpressure", "Operations"):
            assert heading in self.text, f"section {heading!r} missing"

    def test_settable_config_keys_match_the_wire(self):
        listed = self.text.split("Settable keys:", 1)[1].split("Unknown keys", 1)[0]
        assert set(re.findall(r"`(\w+)`", listed)) == set(_CONFIG_FIELDS)

    def test_journal_location_documented(self):
        assert "journal/suite.jsonl" in self.text
