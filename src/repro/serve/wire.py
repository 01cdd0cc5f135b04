"""Wire format of the ``pdw serve`` job API: parsing, validation, digests.

A job submission is a small JSON object::

    {"benchmark": "pcr", "method": "pdw",
     "config": {"time_limit_s": 30}, "client": "lab-7"}

or, for a user assay, ``{"assay": {<sequencing-graph dict>}, ...}`` using
the same graph schema as :func:`repro.assay.graph_from_dict`.  Exactly one
of ``benchmark`` / ``assay`` must be present.

Validation is strict — unknown top-level keys, unknown config keys, or
mistyped config values are a 400, never a silent default — because the
job **digest** is derived from the parsed spec: two clients sending the
"same" job must land on the same digest, so everything that reaches the
digest has to be canonicalized here (ints submitted for float fields are
coerced before hashing, key order never matters).  Benchmark-job digests
wrap :func:`repro.experiments.runner.run_digest`, the exact key under
which the executed run is stored in the artifact cache — dedup and the
``/plan`` endpoint's cache lookup cannot drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.bench import BENCHMARKS
from repro.core import PDWConfig
from repro.errors import ReproError, WashError
from repro.ilp import faults
from repro.pipeline import stable_digest

#: Version tag mixed into every job digest; bump on wire-format changes
#: so old digests cannot collide with re-interpreted payloads.
WIRE_SCHEMA = "pdw-serve/1"

#: Submission bodies above this are rejected with 413 before parsing.
MAX_BODY_BYTES = 1 << 20

METHODS = ("pdw", "dawo", "immediate")

_TOP_KEYS = frozenset({"benchmark", "assay", "method", "config", "client"})

#: Config fields settable over the wire, with their canonical coercion.
#: ``necessity`` (an enum wired through the pipeline) is deliberately not
#: exposed; everything else mirrors :class:`PDWConfig`.
_CONFIG_FIELDS: Dict[str, type] = {
    "alpha": float,
    "beta": float,
    "gamma": float,
    "time_limit_s": float,
    "mip_gap": float,
    "max_candidates": int,
    "merge_clusters": bool,
    "max_wash_path_mm": float,
    "path_mode": str,
    "enable_integration": bool,
    "integration_window_s": float,
    "solver": str,
    "degrade": str,
}


class WireError(ReproError):
    """A malformed job submission (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A validated, canonicalized job submission."""

    kind: str  # "benchmark" | "assay"
    method: str  # one of METHODS
    config: PDWConfig
    client: str = "anon"
    benchmark: Optional[str] = None
    #: Canonical sequencing-graph dict for assay jobs (``kind="assay"``).
    assay: Optional[Mapping[str, Any]] = None
    #: The config keys the client actually sent, for echoing in status.
    config_keys: Tuple[str, ...] = field(default=())

    @property
    def target(self) -> str:
        """Human-readable job target for status payloads and logs."""
        return self.benchmark if self.kind == "benchmark" else "assay"


def _parse_config(raw: Any) -> Tuple[PDWConfig, Tuple[str, ...]]:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise WireError("'config' must be a JSON object")
    kwargs: Dict[str, Any] = {}
    for key, value in raw.items():
        want = _CONFIG_FIELDS.get(key)
        if want is None:
            raise WireError(
                f"unknown config key {key!r}; settable keys: "
                f"{', '.join(sorted(_CONFIG_FIELDS))}"
            )
        if want is bool:
            if not isinstance(value, bool):
                raise WireError(f"config key {key!r} must be a boolean")
            kwargs[key] = value
        elif want is float:
            # Accept ints for float fields but canonicalize before the
            # digest: {"time_limit_s": 30} and {"time_limit_s": 30.0}
            # are the same job.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise WireError(f"config key {key!r} must be a number")
            kwargs[key] = float(value)
        elif want is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise WireError(f"config key {key!r} must be an integer")
            kwargs[key] = value
        else:
            if not isinstance(value, str):
                raise WireError(f"config key {key!r} must be a string")
            kwargs[key] = value
    sent = tuple(sorted(kwargs))
    # The service default mirrors the CLI's --time-limit default (120 s),
    # not the dataclass's 60 s, unless the client sets it explicitly.
    kwargs.setdefault("time_limit_s", 120.0)
    try:
        config = PDWConfig(**kwargs)
    except (WashError, TypeError) as exc:
        raise WireError(f"invalid config: {exc}") from exc
    return config, sent


def parse_job(payload: Any, default_client: str = "anon") -> JobSpec:
    """Validate a decoded submission body into a :class:`JobSpec`.

    Raises :class:`WireError` (→ HTTP 400) on any shape problem.
    """
    if not isinstance(payload, dict):
        raise WireError("job submission must be a JSON object")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise WireError(
            f"unknown keys: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(_TOP_KEYS))}"
        )

    bench = payload.get("benchmark")
    assay = payload.get("assay")
    if (bench is None) == (assay is None):
        raise WireError("exactly one of 'benchmark' or 'assay' is required")

    method = payload.get("method", "pdw")
    if method not in METHODS:
        raise WireError(f"unknown method {method!r}; one of {', '.join(METHODS)}")

    client = payload.get("client", default_client)
    if not isinstance(client, str) or not client.strip():
        raise WireError("'client' must be a non-empty string")
    client = client.strip()

    config, config_keys = _parse_config(payload.get("config"))
    if config.degrade and method != "pdw":
        raise WireError("config key 'degrade' is a PDW capability (method=pdw)")

    if bench is not None:
        if bench not in BENCHMARKS:
            raise WireError(
                f"unknown benchmark {bench!r}; choose from {', '.join(BENCHMARKS)}"
            )
        return JobSpec(
            kind="benchmark", method=method, config=config, client=client,
            benchmark=bench, config_keys=config_keys,
        )

    if not isinstance(assay, dict):
        raise WireError("'assay' must be a sequencing-graph JSON object")
    # Round-trip through the graph loader now so a malformed graph is a
    # 400 at submission, not a failed job later; keep the canonical dict.
    from repro.assay import graph_from_dict, graph_to_dict

    try:
        graph = graph_from_dict(assay)
    except WireError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WireError(f"malformed assay graph: {exc}") from exc
    return JobSpec(
        kind="assay", method=method, config=config, client=client,
        assay=graph_to_dict(graph), config_keys=config_keys,
    )


def decode_body(body: bytes, default_client: str = "anon") -> JobSpec:
    """Parse raw request bytes: UTF-8 JSON → :class:`JobSpec`."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"request body is not valid JSON: {exc}") from exc
    return parse_job(payload, default_client=default_client)


def job_digest(spec: JobSpec) -> str:
    """Content digest of a job — the dedup key.

    Benchmark jobs reuse the whole-run digest (assay graph, inventory,
    config, environment token, runner version), so a serve job and a CLI
    ``pdw run`` of the same benchmark+config share one cache entry.
    """
    if spec.kind == "benchmark":
        from repro.experiments.runner import run_digest

        inner = run_digest(spec.benchmark, spec.config)
        return stable_digest("serve-job", WIRE_SCHEMA, spec.method, inner)
    return stable_digest(
        "serve-job", WIRE_SCHEMA, spec.method, spec.assay, spec.config,
        faults.environment_token(),
    )


def job_id_for(digest: str) -> str:
    """Stable public job id: ``j`` + the first 16 hex digits of the digest."""
    return "j" + digest[:16]
