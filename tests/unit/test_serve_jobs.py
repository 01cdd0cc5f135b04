"""JobStore lifecycle and dedup semantics (docs/SERVICE.md state machine)."""

from __future__ import annotations

from repro.serve import JobStore, parse_job
from repro.baselines.dawo import DAWO_PIPELINE
from repro.core.stages import PDW_PIPELINE
from repro.serve.jobs import (
    JOB_STATES,
    METHOD_STAGES,
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
        other, _ = _admit(store, config={"time_limit_s": 7})
        store.mark_running(job)
        records = [
            {"event": "stage", "benchmark": "PCR", "method": "pdw",
             "stage": "replay", "job": job.id},
            {"event": "stage", "benchmark": "PCR", "method": "pdw",
             "stage": "pathgen", "job": job.id},
            # Another job on the same benchmark is invisible to this one,
            # and so is a record that names no job.
            {"event": "stage", "benchmark": "PCR", "method": "pdw",
             "stage": "ilp", "job": other.id},
            {"event": "stage", "benchmark": "PCR", "method": "pdw",
             "stage": "necessity"},
            # Other events don't count, only stage records.
            {"event": "serve", "action": "start", "job": job.id},
        ]
        progress = job_progress(job, records)
        assert progress == {"nodes_done": 2, "nodes_total": len(PDW_PIPELINE)}

    def test_the_total_counts_each_journaled_stage_once(self):
        # A job journals one record per stage of its method's pipeline;
        # an immediate plan runs no staged pipeline.
        assert METHOD_STAGES == {"pdw": 6, "dawo": 4}
        assert METHOD_STAGES == {"pdw": len(PDW_PIPELINE), "dawo": len(DAWO_PIPELINE)}

    def test_a_dawo_job_counts_against_its_own_pipeline(self):
        store = JobStore()
        job, _ = _admit(store, method="dawo")
        store.mark_running(job)
        assert job_progress(job, []) == {"nodes_done": 0, "nodes_total": 4}

    def test_an_immediate_job_reports_state_only(self):
        store = JobStore()
        job, _ = _admit(store, method="immediate")
        store.mark_running(job)
        assert job_progress(job, []) == {"nodes_done": None, "nodes_total": None}

    def test_progress_is_none_before_start(self):
        store = JobStore()
        job, _ = _admit(store)
        assert job_progress(job, []) == {"nodes_done": None, "nodes_total": None}
