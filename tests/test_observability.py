"""Tests for the cross-process observability layer (DESIGN.md §10).

Covers the snapshot wire format and its lossless inverse, per-job
telemetry isolation, the merged Chrome-trace timeline (pid/tid track
assignment), live progress rendering including failures, the inline
per-job timeout, and the determinism contract (cycles identical with
observability on or off).
"""

import io
import json
import os
import time

import pytest

from repro import telemetry
from repro.telemetry import (
    SNAPSHOT_SCHEMA, Telemetry, chrome_trace_events, merge_sweep_doc,
    merged_chrome_events, merged_chrome_payload, render_job_breakdown,
    render_summary, snapshots_from_sweep_doc,
)
from repro.sweep import JobSpec, TTYProgress, execute_job, run_sweep
from repro.sweep.runner import JobTimeout, _inline_deadline


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    telemetry.configure(enabled=False)


def tiny_job(version="naive", **overrides):
    params = dict(app="gemm", version=version, dim=16, threads=4,
                  block_size=4)
    params.update(overrides)
    return JobSpec(**params)


def failing_job():
    # dim 16 is not a multiple of 3 threads: fails in the frontend
    return JobSpec(app="gemm", version="naive", dim=16, threads=3)


def record_some_activity(session):
    with session.span("frontend", category="frontend", file="x.c"):
        with session.span("parse", category="frontend"):
            pass
    with session.span("sim", category="sim"):
        pass
    session.add("sim.cycles", 1234)
    session.add("compile_cache.hits", 1)
    session.set_gauge("sim.cycles_per_sec", 1e6)


# ----------------------------------------------------------------------
# snapshot wire format
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    def test_snapshot_carries_schema_and_identity(self):
        session = Telemetry(enabled=True)
        record_some_activity(session)
        snap = session.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["pid"] == os.getpid()
        assert snap["tid"] > 0
        assert snap["num_spans"] == len(snap["spans"]) == 3
        assert snap["counters"]["sim.cycles"] == 1234
        assert snap["phases_ms"].keys() == {"frontend", "sim"}

    def test_snapshot_survives_json(self):
        session = Telemetry(enabled=True)
        record_some_activity(session)
        snap = session.snapshot()
        assert json.loads(json.dumps(snap)) == snap


# ----------------------------------------------------------------------
# per-job isolation (capture)
# ----------------------------------------------------------------------
class TestCaptureIsolation:
    def test_capture_swaps_in_fresh_state_and_restores(self):
        session = telemetry.configure(enabled=True)
        session.add("outer.counter", 7)
        with session.span("outer"):
            pass
        with session.capture():
            assert session.counters == {}
            assert session.spans == []
            session.add("inner.counter", 1)
        assert session.counters == {"outer.counter": 7}
        assert [s.name for s in session.spans] == ["outer"]

    def test_capture_can_force_enable_a_disabled_session(self):
        session = telemetry.configure(enabled=False)
        with session.capture(enabled=True):
            assert session.enabled
            session.add("inner", 1)
            assert session.counters == {"inner": 1}
        assert not session.enabled
        assert session.counters == {}

    def test_open_spans_survive_capture(self):
        session = telemetry.configure(enabled=True)
        with session.span("umbrella"):
            with session.capture():
                with session.span("inner"):
                    pass
        names = [s.name for s in session.spans]
        assert names == ["umbrella"]

    def test_consecutive_jobs_do_not_accumulate_counters(self):
        """The satellite fix: --jobs 1 counters stay per-job."""

        telemetry.configure(enabled=True)
        first = execute_job(tiny_job())
        second = execute_job(tiny_job())
        c1 = first.telemetry["counters"]
        c2 = second.telemetry["counters"]
        assert c1.get("sim.cycles") == c2.get("sim.cycles")
        assert c1.get("sim.cycles") == first.cycles

    def test_session_collects_tagged_job_snapshots(self, tmp_path):
        session = telemetry.configure(enabled=True)
        result = run_sweep([tiny_job(), tiny_job(version="blocked")],
                           jobs=1, use_cache=False)
        assert len(session.job_snapshots) == 2
        tags = [(s["job"], s["status"]) for s in session.job_snapshots]
        assert tags == [(j.job_id, "ok") for j in result.jobs]
        assert session.counters.get("sweep.jobs") == 2
        summary = render_summary(session)
        assert "per-job toolchain breakdown" in summary
        assert result.jobs[0].job_id in summary


# ----------------------------------------------------------------------
# chrome trace export: real pid/tid
# ----------------------------------------------------------------------
class TestChromeTracePid:
    def test_events_carry_real_pid_and_tid(self):
        session = Telemetry(enabled=True)
        record_some_activity(session)
        events = chrome_trace_events(session)
        assert events, "expected events"
        assert all(e["pid"] == os.getpid() for e in events)
        timed = [e for e in events if e["ph"] in ("X", "M")]
        assert all(e["tid"] == session.tid for e in timed)

    def test_pid_tid_overrides_win(self):
        session = Telemetry(enabled=True)
        record_some_activity(session)
        events = chrome_trace_events(session, pid=42, tid=7)
        assert {e["pid"] for e in events} == {42}
        assert {e["tid"] for e in events if e["ph"] in ("X", "M")} == {7}


# ----------------------------------------------------------------------
# merged timeline
# ----------------------------------------------------------------------
def _tagged_snapshot(job, pid, wall_start):
    session = Telemetry(enabled=True)
    record_some_activity(session)
    snap = session.snapshot()
    snap.update(job=job, pid=pid, wall_start=wall_start, status="ok",
                cache="hit", wall_s=0.25)
    return snap


class TestMergedTimeline:
    def test_each_worker_pid_becomes_a_process_track(self):
        snaps = [_tagged_snapshot("job-a", 101, 1000.0),
                 _tagged_snapshot("job-b", 102, 1000.1)]
        events = merged_chrome_events(snaps)
        x_events = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in x_events} == {101, 102}

    def test_jobs_sharing_a_pid_get_distinct_tids(self):
        snaps = [_tagged_snapshot("job-a", 101, 1000.0),
                 _tagged_snapshot("job-b", 101, 1000.5)]
        events = merged_chrome_events(snaps)
        by_job = {}
        for e in events:
            if e["ph"] == "X" and e.get("cat") == "sweep.job":
                by_job[e["name"]] = e["tid"]
        assert by_job == {"job-a": 1, "job-b": 2}

    def test_parent_session_lands_on_dispatcher_track(self):
        parent = _tagged_snapshot("parent", 100, 999.9)
        parent.pop("job")
        snaps = [_tagged_snapshot("job-a", 101, 1000.0)]
        events = merged_chrome_events(snaps, parent=parent)
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["pid"], e["tid"], e["args"]["name"]) for e in meta}
        assert (100, 0, "dispatcher") in names
        assert (100, 0, "repro sweep (pid 100)") in names

    def test_wall_clock_alignment_offsets_later_snapshots(self):
        snaps = [_tagged_snapshot("job-a", 101, 1000.0),
                 _tagged_snapshot("job-b", 102, 1001.0)]  # 1s later
        events = merged_chrome_events(snaps)
        a_ts = min(e["ts"] for e in events
                   if e["ph"] == "X" and e["pid"] == 101)
        b_ts = min(e["ts"] for e in events
                   if e["ph"] == "X" and e["pid"] == 102)
        assert b_ts - a_ts == pytest.approx(1e6, rel=0.01)  # microseconds

    def test_merge_requires_valid_schema(self):
        with pytest.raises(ValueError, match="schema"):
            merged_chrome_events([{"schema": "nope"}])
        with pytest.raises(ValueError, match="nothing to merge"):
            merged_chrome_events([])

    def test_payload_lists_worker_pids(self):
        snaps = [_tagged_snapshot("job-a", 101, 1000.0),
                 _tagged_snapshot("job-b", 102, 1000.1)]
        payload = merged_chrome_payload(snaps, name="demo")
        assert payload["otherData"]["worker_pids"] == [101, 102]
        assert payload["otherData"]["jobs"] == 2
        assert payload["displayTimeUnit"] == "ms"

    def test_merge_real_sweep_document(self, tmp_path):
        result = run_sweep([tiny_job(), tiny_job(version="blocked")],
                           jobs=1, use_cache=False, capture_telemetry=True)
        doc = json.loads(result.to_json())
        snapshots, parent = snapshots_from_sweep_doc(doc)
        assert [s["job"] for s in snapshots] == \
            [j.job_id for j in result.jobs]
        payload = merge_sweep_doc(doc)
        assert payload["otherData"]["worker_pids"] == [os.getpid()]
        span_names = {e["name"] for e in payload["traceEvents"]
                      if e["ph"] == "X"}
        assert {"frontend", "sim"} <= span_names

    def test_pool_sweep_tracks_each_worker_pid(self):
        result = run_sweep([tiny_job(), tiny_job(version="blocked")],
                           jobs=2, use_cache=False, capture_telemetry=True)
        payload = merge_sweep_doc(json.loads(result.to_json()))
        pids = {job.telemetry["pid"] for job in result.jobs}
        assert os.getpid() not in pids
        assert payload["otherData"]["worker_pids"] == sorted(pids)

    def test_sweep_doc_without_telemetry_is_rejected(self):
        result = run_sweep([tiny_job()], jobs=1, use_cache=False,
                           capture_telemetry=False)
        doc = json.loads(result.to_json())
        with pytest.raises(ValueError, match="no per-job telemetry"):
            snapshots_from_sweep_doc(doc)

    def test_job_breakdown_table_separates_phases(self):
        snaps = [_tagged_snapshot("job-a", 101, 1000.0)]
        table = render_job_breakdown(snaps)
        assert "job-a" in table
        assert "compile" in table and "sim" in table and "trace" in table


# ----------------------------------------------------------------------
# live progress, failures included
# ----------------------------------------------------------------------
class TestSweepProgress:
    def test_failed_job_reaches_tty_and_event_log(self):
        # the non-TTY progress stream is the sweep's line-per-job log
        stream = io.StringIO()
        result = run_sweep([failing_job(), tiny_job()], jobs=1,
                           use_cache=False,
                           progress=TTYProgress(stream=stream))
        assert [j.status for j in result.jobs] == ["failed", "ok"]
        failed_line, ok_line, summary = stream.getvalue().splitlines()
        assert result.jobs[0].job_id in failed_line
        assert " failed " in failed_line
        assert "! ValueError" in failed_line
        assert "multiple of" in failed_line
        assert result.jobs[1].job_id in ok_line and "!" not in ok_line
        assert "1/2 ok, 1 failed" in summary

    def test_nontty_stream_gets_one_line_per_job(self):
        stream = io.StringIO()
        run_sweep([tiny_job(), tiny_job(version="blocked")], jobs=1,
                  use_cache=False, progress=TTYProgress(stream=stream))
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 3  # two job lines + final summary
        assert lines[0].startswith("[  1/2]")
        assert lines[-1].startswith("sweep ")

    def test_zero_duration_jobs_do_not_divide_by_zero(self):
        """All-cache-hit sweeps finish jobs with wall_s == 0.0; the
        rate/ETA/cache arithmetic must render, not crash or skew."""

        from repro.sweep.results import JobResult, SweepResult

        sink = TTYProgress(stream=io.StringIO())
        sink._isatty = True  # force the live-line path with its math
        sink.sweep_started("instant", 2, 1)
        spec = tiny_job().to_dict()
        instant = JobResult("a", spec, wall_s=0.0, compile_cache="hit")
        sink.job_started("a")
        sink.job_finished(instant)
        assert sink._eta_s() is None or sink._eta_s() >= 0.0
        rate = sink._rate_s()
        assert rate is None or rate > 0.0
        assert sink._cache_pct() == "100%"
        sink.job_finished(JobResult("b", spec, wall_s=0.0,
                                    compile_cache="hit"))
        sink.sweep_finished(SweepResult("instant", [instant], wall_s=0.0))

    def test_handbuilt_results_without_wall_clock_render(self):
        """JobResult(wall_s=None)/SweepResult(wall_s=None) from hand-built
        records must not crash the per-job or summary lines."""

        from repro.sweep.results import JobResult, SweepResult

        stream = io.StringIO()
        sink = TTYProgress(stream=stream)
        sink.sweep_started("manual", 1, 1)
        job = JobResult("only", tiny_job().to_dict(), wall_s=None,
                        compile_cache="off")
        sink.job_finished(job)
        sink.sweep_finished(SweepResult("manual", [job], wall_s=None))
        text = stream.getvalue()
        assert "only" in text
        assert "cache n/a hit" in text  # no hits or misses seen

    def test_rate_and_eta_none_before_any_completion(self):
        sink = TTYProgress(stream=io.StringIO())
        assert sink._rate_s() is None   # nothing finished, not started
        assert sink._eta_s() is None    # no duration samples
        assert sink._cache_pct() == "n/a"
        sink.sweep_started("empty", 0, 4)
        assert sink._rate_s() is None   # started, still nothing done


# ----------------------------------------------------------------------
# inline per-job timeout
# ----------------------------------------------------------------------
class TestInlineTimeout:
    def test_timeout_becomes_structured_record(self):
        result = execute_job(tiny_job(dim=48),
                             timeout=0.01)
        assert result.status == "timeout"
        assert "0.01s per-job timeout" in result.error
        assert result.wall_s < 5.0

    def test_timeout_in_sweep_emits_job_failed_event(self):
        stream = io.StringIO()
        result = run_sweep([tiny_job(dim=48)],
                           jobs=1, use_cache=False, timeout=0.01,
                           progress=TTYProgress(stream=stream))
        assert result.jobs[0].status == "timeout"
        job_line, summary = stream.getvalue().splitlines()
        assert " timeout " in job_line
        assert "! job exceeded the 0.01s per-job timeout" in job_line
        assert "(1 timeout, 0 crashed)" in summary

    def test_generous_timeout_does_not_fire(self):
        result = execute_job(tiny_job(), timeout=300.0)
        assert result.status == "ok"

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning")
    def test_deadline_dropped_inside_a_finalizer_still_expires(self):
        # Python reports and drops an exception raised in __del__ (or a
        # weakref callback during garbage collection): the deadline must
        # still end the job as timed out
        class SlowFinalizer:
            def __del__(self):
                time.sleep(0.5)

        with pytest.raises(JobTimeout):
            with _inline_deadline(0.01):
                obj = SlowFinalizer()
                del obj


# ----------------------------------------------------------------------
# determinism: observability must never perturb results
# ----------------------------------------------------------------------
class TestObservabilityDeterminism:
    def test_cycles_identical_with_and_without_observability(self):
        jobs = [tiny_job(), tiny_job(version="blocked")]
        plain = run_sweep(jobs, jobs=1, use_cache=False,
                          capture_telemetry=False)
        stream = io.StringIO()
        telemetry.configure(enabled=True)
        observed = run_sweep(jobs, jobs=1, use_cache=False,
                             capture_telemetry=True,
                             progress=TTYProgress(stream=stream))
        telemetry.configure(enabled=False)
        assert [j.cycles for j in plain.jobs] == \
            [j.cycles for j in observed.jobs]
        assert [j.telemetry for j in plain.jobs] == [None, None]
        assert all(j.telemetry for j in observed.jobs)
