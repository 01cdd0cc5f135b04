"""Live-server integration tests for ``pdw serve`` (repro.serve).

Covers the concurrency contract end-to-end against a real listening
server: N concurrent submissions of the same payload converge on one job
and one underlying plan (the journal shows each of its stages once),
every reader observes byte-identical canonical plan JSON, equal to the
plan ``pdw run`` makes, distinct configs past the queue cap are rejected
with 429 + ``Retry-After``, and a SIGTERM'd ``pdw serve`` subprocess
exits cleanly with no orphaned children.

Each job runs in a forked child of the server: a timeout or an exiting
stage costs only that job and leaves no thread or process behind, a
fork while other threads hold the job's locks still completes, and the
server itself never routes, solves or plans.
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
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro import procutil
from repro.core.stages import PDW_PIPELINE
from repro.experiments import runner
from repro.export import canonical_plan_json
from repro.ilp import highs
from repro.obs import metrics as obs_metrics
from repro.obs.trace import tracer
from repro.pipeline import ArtifactCache
from repro.pipeline import cache as artifact_cache
from repro.procutil import MP
from repro.sched import journal as sched_journal
from repro.serve import JobServer, parse_job
from repro.serve import server as server_module
from repro.serve.jobs import job_progress

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process parents from /proc"
)


def children_of(pid: int) -> set:
    """Pids whose parent is ``pid``, zombies included (read from /proc)."""
    kids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[1]) == pid:
            kids.add(int(stat.parent.name))
    return kids


def job_threads() -> set:
    """Live threads other than the short-lived HTTP connection handlers."""
    return {t for t in threading.enumerate() if "process_request" not in t.name}

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


@pytest.fixture
def make_server(tmp_path):
    """Factory for servers with their own settings and a disk cache that
    stays on under ``REPRO_CACHE=off``; all are shut down afterwards."""
    started = []

    def make(**kwargs):
        kwargs.setdefault("cache", ArtifactCache(tmp_path / "cache"))
        srv = JobServer(port=0, workers=1, **kwargs)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        started.append((srv, thread))
        return srv, Client(srv.host, srv.port)

    yield make
    for srv, thread in started:
        srv.shutdown()
        thread.join(timeout=10.0)


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

        # One underlying plan: each of its stages journaled exactly once.
        records = [r for r in sched_journal.read_records(server.journal_path)[earlier:]
                   if r.get("job") == job_id and r.get("event") == "stage"]
        stages = [(r["method"], r["stage"]) for r in records]
        assert len(stages) == len(set(stages)), f"stage re-ran: {stages}"
        assert len(stages) == len(PDW_PIPELINE)

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


def prom_series(text: bytes, name: str) -> dict:
    """``{labels: value}`` of one series in a Prometheus exposition."""
    out = {}
    for line in text.decode().splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            key, value = line.rsplit(" ", 1)
            out[key[len(name):]] = float(value)
    return out


class HoldLocksAcrossFork:
    """Stand-in for :data:`repro.procutil.MP` whose ``Process.start``
    forks while another thread holds every module-level lock a job takes."""

    def Pipe(self, *args, **kwargs):
        return MP.Pipe(*args, **kwargs)

    def Process(self, *args, **kwargs):
        proc = MP.Process(*args, **kwargs)
        fork = proc.start

        def start():
            locks = [
                sched_journal._WRITE_LOCK,
                obs_metrics.registry()._lock,
                tracer()._lock,
            ]
            held, release = threading.Event(), threading.Event()

            def hold():
                with ExitStack() as stack:
                    for lock in locks:
                        stack.enter_context(lock)
                    held.set()
                    release.wait(30.0)

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            assert held.wait(30.0)
            try:
                fork()
            finally:
                release.set()
                holder.join(30.0)

        proc.start = start
        return proc


@needs_proc
class TestJobProcesses:
    def test_timeout_kills_the_job_and_leaves_nothing_running(
        self, make_server, monkeypatch
    ):
        monkeypatch.setenv("REPRO_INJECT_STAGE_FAULT", "ilp:hang:60@PCR")
        srv, cli = make_server(job_timeout_s=3.0)
        threads, kids = job_threads(), children_of(os.getpid())
        _, body = cli.json("POST", "/v1/jobs", PCR_JOB)
        status = cli.wait_done(body["id"], timeout_s=60.0)
        assert status["state"] == "failed"
        assert status["error"]["kind"] == "timeout"
        assert job_threads() <= threads, "a timed-out job left a thread running"
        assert children_of(os.getpid()) <= kids, "a job process outlived its job"

    def test_an_exiting_stage_fails_only_its_own_job(self, make_server, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_STAGE_FAULT", "ilp:exit@PCR")
        srv, cli = make_server()
        _, body = cli.json("POST", "/v1/jobs", PCR_JOB)
        status = cli.wait_done(body["id"])
        assert status["state"] == "failed"
        assert status["error"]["kind"] == "crash"
        assert "code 13" in status["error"]["message"]
        _, body = cli.json(
            "POST", "/v1/jobs", {"benchmark": "Kinase-act-1", "config": {"time_limit_s": 20}}
        )
        assert cli.wait_done(body["id"])["state"] == "done"

    def test_job_completes_when_other_threads_hold_its_locks_at_fork(
        self, make_server, monkeypatch
    ):
        monkeypatch.setattr(procutil, "MP", HoldLocksAcrossFork())
        srv, cli = make_server(job_timeout_s=60.0)
        _, body = cli.json("POST", "/v1/jobs", PCR_JOB)
        status = cli.wait_done(body["id"], timeout_s=90.0)
        assert status["state"] == "done", status.get("error")

    def test_the_server_pins_malloc_once_before_its_first_fork(
        self, make_server, monkeypatch
    ):
        pins = []

        def pin():
            pins.append(children_of(os.getpid()))
            highs._pin_pending = False

        # As in a fresh server process, whose first fork pins (procutil.Child).
        monkeypatch.setattr(highs, "_pin_pending", True)
        monkeypatch.setattr(highs, "pin_mmap_threshold", pin)
        srv, cli = make_server()
        kids = children_of(os.getpid())
        assert pins == []  # start-up does not pay for it
        for method in ("pdw", "dawo"):
            _, body = cli.json("POST", "/v1/jobs", {**PCR_JOB, "method": method})
            assert cli.wait_done(body["id"])["state"] == "done"
        assert pins == [kids]

    def test_the_server_computes_the_code_salt_once_before_its_first_fork(
        self, make_server, monkeypatch, tmp_path
    ):
        # The server hashes the source as it starts serving, not at its
        # first job, which may come long after its import; job children
        # inherit the salt.
        computed = tmp_path / "salts"
        hash_source = artifact_cache.code_salt

        def code_salt():
            if artifact_cache._code_salt is None:
                with computed.open("a") as fh:
                    fh.write(f"{os.getpid()} {sorted(children_of(os.getpid()))}\n")
            return hash_source()

        monkeypatch.setattr(artifact_cache, "code_salt", code_salt)
        monkeypatch.setattr(artifact_cache, "_code_salt", None)
        srv, cli = make_server()
        kids = children_of(os.getpid())
        assert cli.request("GET", "/healthz")[0] == 200  # the loop is serving
        assert computed.read_text().splitlines() == [f"{os.getpid()} {sorted(kids)}"]
        for method in ("pdw", "dawo"):
            _, body = cli.json("POST", "/v1/jobs", {**PCR_JOB, "method": method})
            assert cli.wait_done(body["id"])["state"] == "done"
            assert cli.request("GET", f"/v1/jobs/{body['id']}/plan")[0] == 200
        assert computed.read_text().splitlines() == [f"{os.getpid()} {sorted(kids)}"]

    def test_the_server_itself_never_routes_or_solves(self, make_server):
        srv, cli = make_server()
        srv.job_metrics = obs_metrics.MetricsRegistry()
        obs_metrics.reset()
        _, body = cli.json("POST", "/v1/jobs", PCR_JOB)
        assert cli.wait_done(body["id"])["state"] == "done"
        assert cli.request("GET", f"/v1/jobs/{body['id']}/plan")[0] == 200
        own = {name for name, _ in obs_metrics.registry()._metrics}
        assert own and all(name.startswith("pdw_serve_") for name in own), own
        jobs = {name for name, _ in srv.job_metrics._metrics}
        assert {
            "pdw_solver_rung_attempts_total",
            "pdw_routing_cache_misses_total",
            "pdw_plan_validations_total",
        } <= jobs

    def test_metrics_carry_each_jobs_series(self, make_server):
        # The counts one in-process plan of the same job records.
        obs_metrics.reset()
        runner.plan_one("PCR", "pdw", parse_job(PCR_JOB).config)
        expected = prom_series(
            obs_metrics.registry().render_prometheus().encode(),
            "pdw_plan_validations_total",
        )
        assert expected
        obs_metrics.reset()
        srv, cli = make_server()
        _, body = cli.json("POST", "/v1/jobs", PCR_JOB)
        assert cli.wait_done(body["id"])["state"] == "done"
        raw = cli.request("GET", "/metrics")[1]
        assert prom_series(raw, "pdw_plan_validations_total") == expected
        # Same benchmark, other method: a job plans only its own method,
        # so there is no whole run to find on disk.
        _, body = cli.json("POST", "/v1/jobs", {**PCR_JOB, "method": "dawo"})
        assert cli.wait_done(body["id"])["state"] == "done"
        raw = cli.request("GET", "/metrics")[1]
        assert not prom_series(raw, "pdw_run_cache_hits_total")
        assert prom_series(raw, "pdw_plan_validations_total") != expected

    @pytest.mark.parametrize("method", ["pdw", "dawo", "immediate"])
    def test_a_served_plan_is_the_plan_pdw_run_makes(self, make_server, method):
        job = {**PCR_JOB, "method": method}
        expected = canonical_plan_json(
            runner.plan_one("PCR", method, parse_job(job).config)
        ) + "\n"
        srv, cli = make_server()
        _, body = cli.json("POST", "/v1/jobs", job)
        assert cli.wait_done(body["id"])["state"] == "done"
        code, plan, _ = cli.request("GET", f"/v1/jobs/{body['id']}/plan")
        assert code == 200
        assert plan.decode() == expected

    def test_reading_a_plan_plans_nothing_in_the_server(self, make_server, monkeypatch):
        srv, cli = make_server()
        _, body = cli.json("POST", "/v1/jobs", {**PCR_JOB, "method": "immediate"})
        assert cli.wait_done(body["id"])["state"] == "done"
        path = f"/v1/jobs/{body['id']}/plan"
        code, first, _ = cli.request("GET", path)
        assert code == 200

        def refuse(*args, **kwargs):
            raise RuntimeError("the server made a plan")

        for module in (server_module, runner, sys.modules["repro.baselines"],
                       sys.modules["repro.baselines.immediate"]):
            monkeypatch.setattr(module, "immediate_wash_plan", refuse, raising=False)
        assert cli.request("GET", path)[:2] == (200, first)

    def test_a_served_job_leaves_the_suite_metrics_dump_alone(self, make_server):
        srv, cli = make_server()
        dump = srv.journal_path.parent / "metrics.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        dump.write_text('{"series": [], "journal": "from pdw suite"}\n', encoding="utf-8")
        before = dump.read_bytes()
        _, body = cli.json("POST", "/v1/jobs", PCR_JOB)
        assert cli.wait_done(body["id"])["state"] == "done"
        assert dump.read_bytes() == before


class TestProgress:
    def test_a_real_job_journals_the_stages_progress_counts(self, make_server):
        srv, cli = make_server()
        _, body = cli.json("POST", "/v1/jobs", {**PCR_JOB, "config": {"time_limit_s": 21}})
        assert cli.wait_done(body["id"])["state"] == "done"
        job = srv.store.get(body["id"])
        records = sched_journal.read_records(srv.journal_path, job.journal_offset)
        stages = [r for r in records if r.get("event") == "stage"]
        assert len(stages) == len(PDW_PIPELINE)
        assert {(r["method"], r["job"]) for r in stages} == {("pdw", job.id)}
        # A served job is no suite attempt: `pdw suite --resume` must not
        # read it as the benchmark being done.
        assert not [r for r in records
                    if r.get("event") in ("attempt", "success", "failure")]
        assert job_progress(job, records) == {
            "nodes_done": len(PDW_PIPELINE), "nodes_total": len(PDW_PIPELINE)
        }

    def test_concurrent_jobs_on_one_benchmark_count_only_their_own_stages(
        self, server, client
    ):
        gate = threading.Event()
        server._execute = lambda job: gate.wait(30.0)  # hold both in running
        try:
            ids = []
            for limit in (51, 52):
                _, body = client.json(
                    "POST", "/v1/jobs", {"benchmark": "PCR", "config": {"time_limit_s": limit}}
                )
                ids.append(body["id"])
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and any(
                client.json("GET", f"/v1/jobs/{jid}")[1]["state"] != "running" for jid in ids
            ):
                time.sleep(0.05)
            own = {ids[0]: ("replay", "necessity"), ids[1]: ("clusters", "pathgen", "ilp")}
            for jid, stages in own.items():
                for stage in stages:
                    sched_journal.append_record(server.journal_path, {
                        "event": "stage", "benchmark": "PCR", "method": "pdw",
                        "stage": stage, "origin": "computed", "job": jid,
                    })
            for jid, stages in own.items():
                status = client.json("GET", f"/v1/jobs/{jid}")[1]
                assert status["progress"] == {
                    "nodes_done": len(stages), "nodes_total": len(PDW_PIPELINE)
                }
        finally:
            gate.set()

    def test_polls_read_only_the_journal_tail_after_the_fork(
        self, make_server, monkeypatch, tmp_path
    ):
        # A long journal of earlier PCR records, stamped late enough that
        # the timestamp filter alone would count them all.
        srv, cli = make_server()
        prefix = 5000
        late = time.time() + 3600.0
        srv.journal_path.parent.mkdir(parents=True, exist_ok=True)
        with srv.journal_path.open("w", encoding="utf-8") as fh:
            for i in range(prefix):
                record = {"event": "stage", "benchmark": "PCR",
                          "method": "pdw", "stage": f"old-{i}", "ts": late}
                fh.write(json.dumps(record) + "\n")
        prefix_bytes = srv.journal_path.stat().st_size
        gate = tmp_path / "go"

        def fake_plan_one(target, method, config, cache):
            for stage in ("replay", "clusters", "pathgen"):
                sched_journal.record_stage("PDW:PCR", stage, "computed")
            deadline = time.monotonic() + 60.0
            while not gate.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            raise RuntimeError("released")

        reads = []
        read_records = sched_journal.read_records

        def spy(path, offset=0):
            records = read_records(path, offset)
            reads.append((offset, len(records)))
            return records

        monkeypatch.setattr(server_module, "plan_one", fake_plan_one)
        monkeypatch.setattr(server_module.sched_journal, "read_records", spy)
        try:
            _, body = cli.json("POST", "/v1/jobs", PCR_JOB)
            deadline = time.monotonic() + 30.0
            progress = None
            while time.monotonic() < deadline:
                status = cli.json("GET", f"/v1/jobs/{body['id']}")[1]
                progress = status.get("progress")
                if progress and progress["nodes_done"] == 3:
                    break
                time.sleep(0.05)
            assert progress == {"nodes_done": 3, "nodes_total": len(PDW_PIPELINE)}
        finally:
            gate.touch()
        assert cli.wait_done(body["id"])["state"] == "failed"
        assert reads
        assert all(offset >= prefix_bytes for offset, _ in reads)
        assert all(count < 10 for _, count in reads)


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

    @needs_proc
    def test_sigterm_with_a_hung_job_kills_and_reaps_it(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env["REPRO_INJECT_STAGE_FAULT"] = "ilp:hang:600@PCR"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            cli = Client("127.0.0.1", int(line.rsplit(":", 1)[1]))
            code, body = cli.json("POST", "/v1/jobs", PCR_JOB)
            assert code == 201
            deadline = time.monotonic() + 30.0
            while not children_of(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            kids = children_of(proc.pid)
            assert kids, "the job never started its process"
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=20.0)
            assert time.monotonic() - started < 20.0
            assert proc.returncode == 0, f"stderr: {err}"
            assert "shut down cleanly" in out
            assert not [pid for pid in kids if Path(f"/proc/{pid}").exists()]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
