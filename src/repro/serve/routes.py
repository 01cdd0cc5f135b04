"""The route registry and HTTP request handler of ``pdw serve``.

:data:`ROUTES` is the single source of truth for the API surface —
docs/SERVICE.md's endpoint table is asserted against it by
``tests/unit/test_docs_service.py`` exactly as docs/CLI.md is asserted
against ``build_parser()``: adding an endpoint without documenting it
(or documenting a status code the handler can't produce) fails the
suite.

The handler is deliberately thin: it matches a route, decodes the body,
and calls into :class:`~repro.serve.server.JobServer`, which owns all
job/queue/cache state.  Responses are JSON with sorted keys; the plan
endpoint returns the **canonical plan JSON** (timing-free, byte-stable
across identical runs — ``repro.export.plan_json``), which is what lets
tests assert that N deduped submissions observe identical plan bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Tuple

from repro.serve.wire import MAX_BODY_BYTES, WireError, decode_body


@dataclass(frozen=True)
class Route:
    """One API endpoint: the unit of the docs drift test."""

    method: str
    path: str  # literal path with {id}-style wildcards
    name: str
    summary: str
    codes: Tuple[int, ...]


ROUTES: Tuple[Route, ...] = (
    Route("GET", "/healthz", "healthz",
          "liveness probe: uptime, worker count, queue depth", (200,)),
    Route("GET", "/metrics", "metrics",
          "Prometheus text exposition of the process metrics registry", (200,)),
    Route("GET", "/v1/jobs", "list_jobs",
          "all jobs with state counts", (200,)),
    Route("POST", "/v1/jobs", "submit_job",
          "submit a job; dedups onto an existing run by content digest",
          (201, 200, 400, 413, 429)),
    Route("GET", "/v1/jobs/{id}", "job_status",
          "job state, attempts, errors, and stage progress", (200, 404)),
    Route("GET", "/v1/jobs/{id}/plan", "job_plan",
          "canonical plan JSON of a finished job", (200, 404, 409)),
    Route("DELETE", "/v1/jobs/{id}", "cancel_job",
          "cancel a still-queued job", (200, 404, 409)),
)


def match_route(method: str, path: str) -> Tuple[Optional[Route], Dict[str, str]]:
    """Match a request line against :data:`ROUTES`.

    Returns ``(route, params)`` where params holds wildcard segments, or
    ``(None, {})`` when no route matches the path at all.
    """
    parts = [p for p in path.split("/") if p]
    for route in ROUTES:
        if route.method != method:
            continue
        rparts = [p for p in route.path.split("/") if p]
        if len(rparts) != len(parts):
            continue
        params: Dict[str, str] = {}
        for want, got in zip(rparts, parts):
            if want.startswith("{") and want.endswith("}"):
                params[want[1:-1]] = got
            elif want != got:
                break
        else:
            return route, params
    return None, {}


def path_has_routes(path: str) -> bool:
    """Whether *any* method serves this path (404 vs 405 distinction)."""
    parts = [p for p in path.split("/") if p]
    for route in ROUTES:
        rparts = [p for p in route.path.split("/") if p]
        if len(rparts) != len(parts):
            continue
        if all(
            want.startswith("{") or want == got
            for want, got in zip(rparts, parts)
        ):
            return True
    return False


def make_handler(server: Any) -> type:
    """Build the request-handler class bound to one :class:`JobServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # The default handler logs every request to stderr; the server
        # has /metrics for that.
        def log_message(self, fmt: str, *args: Any) -> None:
            pass

        def _respond(
            self,
            code: int,
            body: Any,
            route: Optional[Route] = None,
            content_type: str = "application/json",
            extra_headers: Optional[Dict[str, str]] = None,
        ) -> None:
            if isinstance(body, (dict, list)):
                raw = (json.dumps(body, indent=2, sort_keys=True) + "\n").encode()
            elif isinstance(body, str):
                raw = body.encode()
            else:
                raw = body
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(raw)))
            for key, value in (extra_headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(raw)
            server.count_request(route.name if route else "unmatched", code)

        def _error(self, code: int, message: str, route: Optional[Route] = None,
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
            self._respond(code, {"error": message}, route, extra_headers=extra_headers)

        def _dispatch(self, method: str) -> None:
            path = self.path.split("?", 1)[0]
            route, params = match_route(method, path)
            if route is None:
                if path_has_routes(path):
                    self._error(405, f"method {method} not allowed on {path}")
                else:
                    self._error(404, f"no route for {path}")
                return
            try:
                handler = getattr(self, f"_do_{route.name}")
                handler(route, params)
            except BrokenPipeError:
                pass  # client went away mid-response
            except Exception as exc:  # pragma: no cover - last-resort guard
                self._error(500, f"internal error: {exc}", route)

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def do_DELETE(self) -> None:
            self._dispatch("DELETE")

        # -- endpoint bodies -------------------------------------------------

        def _do_healthz(self, route: Route, params: Dict[str, str]) -> None:
            self._respond(200, server.health_dict(), route)

        def _do_metrics(self, route: Route, params: Dict[str, str]) -> None:
            self._respond(
                200, server.render_metrics(), route,
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )

        def _do_list_jobs(self, route: Route, params: Dict[str, str]) -> None:
            self._respond(200, server.jobs_dict(), route)

        def _do_submit_job(self, route: Route, params: Dict[str, str]) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes", route)
                return
            body = self.rfile.read(length)
            header_client = (self.headers.get("X-PDW-Client") or "").strip()
            try:
                spec = decode_body(body, default_client=header_client or "anon")
            except WireError as exc:
                server.count_invalid()
                self._error(400, str(exc), route)
                return
            job, created, accepted = server.submit(spec)
            if not accepted:
                self._error(
                    429, "job queue is full; retry later", route,
                    extra_headers={"Retry-After": str(server.retry_after_s)},
                )
                return
            body_out = {"id": job.id, "state": job.state, "deduped": not created}
            self._respond(201 if created else 200, body_out, route)

        def _do_job_status(self, route: Route, params: Dict[str, str]) -> None:
            status = server.job_status(params["id"])
            if status is None:
                self._error(404, f"no job {params['id']!r}", route)
                return
            self._respond(200, status, route)

        def _do_job_plan(self, route: Route, params: Dict[str, str]) -> None:
            job = server.store.get(params["id"])
            if job is None:
                self._error(404, f"no job {params['id']!r}", route)
                return
            if job.state != "done":
                self._error(
                    409, f"job {job.id} is {job.state}; plan requires state=done",
                    route,
                )
                return
            self._respond(200, job.plan, route)

        def _do_cancel_job(self, route: Route, params: Dict[str, str]) -> None:
            job = server.store.get(params["id"])
            if job is None:
                self._error(404, f"no job {params['id']!r}", route)
                return
            if not server.cancel(job):
                self._error(
                    409, f"job {job.id} is {job.state}; only queued jobs cancel",
                    route,
                )
                return
            self._respond(200, {"id": job.id, "state": job.state}, route)

    return Handler
