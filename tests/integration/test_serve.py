"""Live-server integration tests for ``pdw serve`` (repro.serve).

Covers the issue's concurrency contract end-to-end against a real
listening server: N concurrent submissions of the same payload converge
on one job and one underlying run (the journal shows a single
``node_attempt`` chain), every reader observes byte-identical canonical
plan JSON, distinct configs past the queue cap are rejected with 429 +
``Retry-After``, and a SIGTERM'd ``pdw serve`` subprocess exits cleanly
with no orphaned children.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.sched import journal as sched_journal
from repro.serve import JobServer

REPO_ROOT = Path(__file__).resolve().parents[2]


class Client:
    """Tiny urllib wrapper returning ``(status, body_bytes)``."""

    def __init__(self, host: str, port: int):
        self.base = f"http://{host}:{port}"

    def request(self, method: str, path: str, payload=None, timeout=60.0):
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(self.base + path, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read(), dict(exc.headers)

    def json(self, method: str, path: str, payload=None):
        code, body, _ = self.request(method, path, payload)
        return code, json.loads(body)

    def wait_done(self, job_id: str, timeout_s: float = 180.0) -> dict:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            code, status = self.json("GET", f"/v1/jobs/{job_id}")
            assert code == 200
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            time.sleep(0.2)
        raise AssertionError(f"job {job_id} did not finish within {timeout_s}s")


@pytest.fixture
def server(tmp_path):
    srv = JobServer(
        port=0, workers=2, queue_cap=8,
        cache_dir=str(tmp_path / "cache"), job_timeout_s=120.0,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


@pytest.fixture
def client(server):
    return Client(server.host, server.port)


PCR_JOB = {"benchmark": "PCR", "config": {"time_limit_s": 20}}


class TestEndpoints:
    def test_healthz_and_metrics(self, client):
        code, health = client.json("GET", "/healthz")
        assert code == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2
        code, raw, headers = client.request("GET", "/metrics")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain")

    def test_unknown_route_404_wrong_method_405(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("DELETE", "/healthz")[0] == 405

    def test_submit_poll_plan_roundtrip(self, client, server):
        code, body = client.json("POST", "/v1/jobs", PCR_JOB)
        assert code == 201 and not body["deduped"]
        status = client.wait_done(body["id"])
        assert status["state"] == "done"
        assert status["target"] == "PCR"
        code, plan, _ = client.request("GET", f"/v1/jobs/{body['id']}/plan")
        assert code == 200
        parsed = json.loads(plan)
        assert parsed["method"] == "PDW"
        assert "solve_time_s" not in json.dumps(parsed), "plan must be canonical"
        # The /metrics scrape reflects the finished job.
        _, raw, _ = client.request("GET", "/metrics")
        assert b'pdw_serve_jobs_total{outcome="done"} 1' in raw

    def test_plan_before_done_is_409(self, client, server):
        gate = threading.Event()
        server._execute = lambda job: gate.wait(30.0)  # hold the job in running
        try:
            code, body = client.json("POST", "/v1/jobs", PCR_JOB)
            jid = body["id"]
            code, _, _ = client.request("GET", f"/v1/jobs/{jid}/plan")
            assert code == 409
        finally:
            gate.set()

    def test_invalid_submission_is_400(self, client):
        code, body = client.json("POST", "/v1/jobs", {"benchmark": "bogus"})
        assert code == 400 and "unknown benchmark" in body["error"]

    def test_removed_config_key_is_400(self, client):
        # A retired PDWConfig option posted by an old client must be
        # rejected at the wire, not crash PDWConfig(**kwargs) into a 500.
        job = {"benchmark": "PCR", "config": {"solver_mode": "race"}}
        code, body = client.json("POST", "/v1/jobs", job)
        assert code == 400 and "unknown config key" in body["error"]

    def test_removed_pathgen_workers_key_is_400(self, client):
        # Thread-parallel pathgen is gone; its config key is rejected
        # like every other unknown key.
        job = {"benchmark": "PCR", "config": {"pathgen_workers": 4}}
        code, body = client.json("POST", "/v1/jobs", job)
        assert code == 400 and "unknown config key 'pathgen_workers'" in body["error"]

    def test_cancel_queued_job(self, client, server):
        gate = threading.Event()
        server._execute = lambda job: gate.wait(30.0)
        try:
            # Fill both workers, then queue one more and cancel it.
            for limit in (31, 32):
                client.json("POST", "/v1/jobs",
                            {"benchmark": "PCR", "config": {"time_limit_s": limit}})
            time.sleep(0.3)
            code, queued = client.json(
                "POST", "/v1/jobs",
                {"benchmark": "PCR", "config": {"time_limit_s": 33}},
            )
            code, body = client.json("DELETE", f"/v1/jobs/{queued['id']}")
            assert code == 200 and body["state"] == "cancelled"
            # Cancelling again (terminal) is a 409.
            code, _, _ = client.request("DELETE", f"/v1/jobs/{queued['id']}")
            assert code == 409
        finally:
            gate.set()


class TestConcurrency:
    def test_concurrent_identical_submits_share_one_run(self, client, server, tmp_path):
        # With the disk cache off the journal lives in the shared test-run
        # cache dir, next to earlier tests' records: count only ours.
        earlier = len(sched_journal.read_records(server.journal_path))
        n = 6
        results = [None] * n
        barrier = threading.Barrier(n)

        def submit(i):
            barrier.wait()
            results[i] = client.json("POST", "/v1/jobs", PCR_JOB)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)

        ids = {body["id"] for _, body in results}
        assert len(ids) == 1, "identical payloads must dedup onto one job"
        deduped = sum(1 for _, body in results if body["deduped"])
        assert deduped == n - 1

        job_id = ids.pop()
        assert client.wait_done(job_id)["state"] == "done"

        # One underlying run: the journal's node_attempt chain for PCR has
        # each stage node exactly once.
        records = sched_journal.read_records(server.journal_path)[earlier:]
        attempts = [r for r in records
                    if r.get("event") == "node_attempt" and r.get("benchmark") == "PCR"]
        nodes = [r["node"] for r in attempts]
        assert len(nodes) == len(set(nodes)), f"stage re-ran: {nodes}"
        assert len(nodes) == 11

        # Every reader sees byte-identical canonical plan JSON.
        plans = {client.request("GET", f"/v1/jobs/{job_id}/plan")[1] for _ in range(n)}
        assert len(plans) == 1

    def test_saturation_returns_429_with_retry_after(self, client, server):
        gate = threading.Event()
        server._execute = lambda job: gate.wait(60.0)
        try:
            # 2 workers running + 8 queued fills the admission bound; the
            # next distinct config must be rejected, not buffered.
            accepted = 0
            for limit in range(40, 40 + 2 + server.queue.capacity):
                code, body = client.json(
                    "POST", "/v1/jobs",
                    {"benchmark": "PCR", "config": {"time_limit_s": limit}},
                )
                assert code == 201
                accepted += 1
                time.sleep(0.05)  # let workers drain the first two into running
            code, body, headers = client.request(
                "POST", "/v1/jobs",
                payload={"benchmark": "PCR", "config": {"time_limit_s": 999}},
            )
            assert code == 429
            assert int(headers["Retry-After"]) >= 1
            # A duplicate of an *admitted* job still dedups fine at capacity.
            code, body = client.json(
                "POST", "/v1/jobs",
                {"benchmark": "PCR", "config": {"time_limit_s": 40}},
            )
            assert code == 200 and body["deduped"]
        finally:
            gate.set()


class TestShutdown:
    def test_sigterm_subprocess_exits_cleanly(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "pdw serve listening on" in line
            port = int(line.rsplit(":", 1)[1])
            cli = Client("127.0.0.1", port)
            code, health = cli.json("GET", "/healthz")
            assert code == 200
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30.0)
            assert proc.returncode == 0, f"stderr: {err}"
            assert "shut down cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
