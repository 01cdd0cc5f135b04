"""Closed-loop load for ``pdw serve``: a fixed request mix, two clients.

Each client owns one keep-alive HTTP connection and sends its next job
only after the previous one's plan arrived (submit → poll → plan), so at
most two jobs are in flight.  The trace is a seeded shuffle of a fixed
multiset: every (benchmark, weight point) key appears the same number of
times, so every seed asks for the same work and only the order in which
first submissions (cold runs) and repeats (dedup hits) arrive changes.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Benchmarks of the serve mix: the Table II assays whose cold job costs
#: at most about two seconds, so three samples fit in one run.
SERVE_BENCHMARKS = ("PCR", "IVD", "Kinase-act-1", "Kinase-act-2", "Synthetic1")

#: Objective weight points (alpha, beta, gamma); the first is the paper's.
WEIGHTS = ((0.3, 0.3, 0.4), (0.6, 0.2, 0.2), (0.1, 0.1, 0.8))

#: Requests per key: 15 keys x 7 = 105 requests, of which 90 (86%) repeat
#: a digest submitted earlier.
REPEATS = 7

#: Pause between two status polls of one unfinished job.
POLL_S = 0.05

CLIENTS = 2


def build_trace(seed: str) -> List[Tuple[str, Tuple[float, float, float]]]:
    """The seeded request order.

    Keys are relabelled so that first submissions always arrive in the
    same order, every benchmark at the paper's weights before any
    reweight.  A reweighted job then finds its benchmark's candidate paths
    and built model already there whatever the seed; the seed only decides
    where the repeats fall between the first submissions.
    """
    keys = [(b, w) for w in WEIGHTS for b in SERVE_BENCHMARKS]
    trace = keys * REPEATS
    random.Random(seed).shuffle(trace)
    relabel = dict(zip(dict.fromkeys(trace), keys))
    return [relabel[key] for key in trace]


@dataclass
class Request:
    """One job as a client saw it."""

    benchmark: str
    weights: Tuple[float, float, float]
    submit_s: float = 0.0
    poll_s: List[float] = field(default_factory=list)
    plan_s: float = 0.0
    #: Submit sent until the plan's last byte arrived.
    latency_s: float = 0.0
    started: float = 0.0
    ended: float = 0.0
    created: bool = False
    status: Optional[dict] = None
    plan: Optional[bytes] = None
    error: Optional[str] = None


class _Client:
    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def call(self, method: str, path: str, body: Optional[dict] = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def job(self, req: Request) -> None:
        alpha, beta, gamma = req.weights
        body = {
            "benchmark": req.benchmark,
            "client": "perf",
            "config": {"alpha": alpha, "beta": beta, "gamma": gamma},
        }
        req.started = time.perf_counter()
        code, data, req.submit_s = self.call("POST", "/v1/jobs", body)
        if code not in (200, 201):
            req.error = f"submit {code}"
            return
        sub = json.loads(data)
        req.created = code == 201
        state = sub["state"]
        while state not in ("done", "failed", "cancelled"):
            time.sleep(POLL_S)
            code, data, took = self.call("GET", f"/v1/jobs/{sub['id']}")
            req.poll_s.append(took)
            if code != 200:
                req.error = f"poll {code}"
                return
            req.status = json.loads(data)
            state = req.status["state"]
        if state != "done":
            req.error = f"job {state}"
            return
        code, req.plan, req.plan_s = self.call("GET", f"/v1/jobs/{sub['id']}/plan")
        req.ended = time.perf_counter()
        req.latency_s = req.ended - req.started
        if code != 200:
            req.error = f"plan {code}"

    def close(self) -> None:
        self.conn.close()


def drive(host: str, port: int, trace) -> List[Request]:
    """Replay ``trace`` with :data:`CLIENTS` closed-loop clients."""
    requests = [Request(b, w) for b, w in trace]
    cursor = iter(requests)
    lock = threading.Lock()

    def loop() -> None:
        client = _Client(host, port)
        try:
            while True:
                with lock:
                    req = next(cursor, None)
                if req is None:
                    return
                try:
                    client.job(req)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    req.error = f"{type(exc).__name__}: {exc}"
                    client.close()
                    client = _Client(host, port)
        finally:
            client.close()

    threads = [threading.Thread(target=loop, name=f"perf-client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return requests


def scrape(host: str, port: int) -> Dict[str, float]:
    """Sum each ``/metrics`` series over its labels, keyed ``name{labels}``
    and ``name`` (the latter summed over every label set)."""
    client = _Client(host, port)
    try:
        code, data, _ = client.call("GET", "/metrics")
    finally:
        client.close()
    if code != 200:
        return {}
    out: Dict[str, float] = {}
    for line in data.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        out[series] = out.get(series, 0.0) + float(value)
        if name != series:
            out[name] = out.get(name, 0.0) + float(value)
    return out
