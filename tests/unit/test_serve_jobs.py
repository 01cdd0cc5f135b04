"""JobStore lifecycle and dedup semantics (docs/SERVICE.md state machine)."""

from __future__ import annotations

from repro.serve import JobStore, parse_job
from repro.serve.jobs import (
    JOB_STATES,
    STAGES_PER_BENCHMARK,
    TERMINAL_STATES,
    job_progress,
)
from repro.serve.wire import job_digest


def _spec(**overrides):
    payload = {"benchmark": "PCR"}
    payload.update(overrides)
    return parse_job(payload)


def _admit(store, **overrides):
    spec = _spec(**overrides)
    return store.admit(spec, job_digest(spec))


class TestLifecycle:
    def test_states_are_canonical(self):
        assert JOB_STATES == ("queued", "running", "done", "failed", "cancelled")
        assert set(TERMINAL_STATES) < set(JOB_STATES)

    def test_happy_path(self):
        store = JobStore()
        job, created = _admit(store)
        assert created and job.state == "queued" and job.attempts == 0
        store.mark_running(job)
        assert job.state == "running" and job.attempts == 1
        assert job.started_ts is not None
        store.mark_done(job)
        assert job.state == "done" and job.finished_ts is not None

    def test_failure_records_taxonomy_kind(self):
        store = JobStore()
        job, _ = _admit(store)
        store.mark_running(job)
        store.mark_failed(job, "timeout", "killed after 1s")
        assert job.state == "failed"
        assert job.error_kind == "timeout"
        assert job.status_dict()["error"]["message"] == "killed after 1s"

    def test_cancel_only_from_queued(self):
        store = JobStore()
        job, _ = _admit(store)
        assert store.mark_cancelled(job)
        assert job.state == "cancelled"
        other, created = _admit(store, config={"time_limit_s": 7})
        store.mark_running(other)
        assert not store.mark_cancelled(other)
        assert other.state == "running"


class TestDedup:
    def test_same_digest_dedups_while_live(self):
        store = JobStore()
        first, created = _admit(store)
        assert created
        for state_setter in (lambda: None, lambda: store.mark_running(first)):
            state_setter()
            again, created = _admit(store)
            assert again is first and not created

    def test_done_job_still_dedups(self):
        store = JobStore()
        job, _ = _admit(store)
        store.mark_running(job)
        store.mark_done(job)
        again, created = _admit(store)
        assert again is job and not created

    def test_failed_job_is_resubmittable_under_same_id(self):
        store = JobStore()
        job, _ = _admit(store)
        store.mark_running(job)
        store.mark_failed(job, "crash", "boom")
        retried, created = _admit(store)
        assert created, "failed digest must re-queue"
        assert retried is job, "resubmission keeps the public job id"
        assert retried.state == "queued"
        assert retried.error_kind is None
        assert retried.attempts == 1  # attempt counter survives for observability

    def test_distinct_configs_are_distinct_jobs(self):
        store = JobStore()
        a, _ = _admit(store)
        b, created = _admit(store, config={"time_limit_s": 9})
        assert created and b is not a
        assert a.id != b.id

    def test_counts_by_state(self):
        store = JobStore()
        a, _ = _admit(store)
        b, _ = _admit(store, config={"time_limit_s": 9})
        store.mark_running(b)
        counts = store.counts()
        assert counts["queued"] == 1 and counts["running"] == 1
        assert counts["done"] == counts["failed"] == counts["cancelled"] == 0


class TestProgress:
    def test_progress_counts_this_jobs_nodes_only(self):
        store = JobStore()
        job, _ = _admit(store)
        store.mark_running(job)
        records = [
            # A stale record from before this job started must not count.
            {"event": "stage", "benchmark": "PCR", "method": "bench",
             "stage": "synthesis", "ts": job.started_ts - 100},
            {"event": "stage", "benchmark": "PCR", "method": "pdw",
             "stage": "pathgen", "ts": job.started_ts + 1},
            # Another benchmark's stage is invisible to this job.
            {"event": "stage", "benchmark": "IVD", "method": "pdw",
             "stage": "pathgen", "ts": job.started_ts + 1},
            # Other events don't count, only stage records.
            {"event": "attempt", "benchmark": "PCR", "attempt": 1,
             "ts": job.started_ts + 2},
        ]
        progress = job_progress(job, records)
        assert progress == {"nodes_done": 1, "nodes_total": STAGES_PER_BENCHMARK}

    def test_the_total_counts_each_journaled_stage_once(self):
        # synthesis, the shared replay, 5 more PDW stages, 3 more DAWO ones.
        assert STAGES_PER_BENCHMARK == 10

    def test_progress_is_none_before_start(self):
        store = JobStore()
        job, _ = _admit(store)
        assert job_progress(job, []) == {"nodes_done": None, "nodes_total": None}
