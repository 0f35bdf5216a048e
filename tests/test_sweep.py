"""Tests for the sweep subsystem: specs, runner, cache, results.

Small problem sizes throughout (dim-16 GEMM, 6400-step π) so the whole
module stays in tier-1 time budgets; the properties under test —
determinism across worker counts, cache transparency, structured
failure capture — do not depend on problem size.
"""

import io
import json
import multiprocessing
import os
import pickle
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import telemetry
from repro.apps.runners import run_gemm
from repro.hls.cache import CompileCache
from repro.sweep import (
    SWEEP_SCHEMA, JobResult, JobSpec, SweepSpec, TTYProgress, execute_job,
    expand_jobs, gemm_sweep, load_spec, pi_sweep, run_sweep,
    validate_sweep_dict, validate_sweep_file,
)
from repro.sweep import runner
from repro.sweep.spec import parse_spec_dict


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    telemetry.configure(enabled=False)


def small_jobs():
    return [
        JobSpec(app="gemm", version="naive", dim=16, threads=4,
                block_size=4),
        JobSpec(app="gemm", version="blocked", dim=16, threads=4,
                block_size=4),
        JobSpec(app="pi", steps=6400, threads=8),
    ]


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError, match="unknown app"):
            JobSpec(app="fft")

    def test_rejects_unknown_gemm_version(self):
        with pytest.raises(ValueError, match="unknown GEMM version"):
            JobSpec(app="gemm", version="quantum")

    def test_round_trips_through_dict(self):
        spec = JobSpec(app="gemm", version="blocked", dim=32, threads=4,
                       seed=7)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict({"app": "pi", "stepz": 100})

    def test_gemm_requires_version(self):
        with pytest.raises(ValueError, match="'version'"):
            JobSpec.from_dict({"app": "gemm"})

    def test_job_ids_are_unique_across_repeats(self):
        jobs = expand_jobs([JobSpec(app="pi", steps=6400)], repeat=3)
        ids = [job.job_id for job in jobs]
        assert len(set(ids)) == 3
        assert ids[0].endswith("-r0") and ids[2].endswith("-r2")

    def test_shared_labels_are_rejected_not_clobbered(self):
        # results are keyed by job id; two jobs with the same label
        # would silently overwrite each other in every consumer
        twins = [JobSpec(app="pi", steps=6400, label="mine"),
                 JobSpec(app="pi", steps=12800, label="mine")]
        with pytest.raises(ValueError, match="duplicate job ids"):
            expand_jobs(twins)
        with pytest.raises(ValueError, match="'mine-r0'"):
            SweepSpec(twins).expanded()

    def test_identical_specs_without_labels_are_rejected(self):
        twin = JobSpec(app="gemm", version="naive", dim=16, threads=4)
        with pytest.raises(ValueError, match="distinct label"):
            expand_jobs([twin, twin])

    def test_distinct_labels_disambiguate_identical_specs(self):
        jobs = expand_jobs([
            JobSpec(app="pi", steps=6400, label="warm"),
            JobSpec(app="pi", steps=6400, label="cold")])
        assert {job.job_id for job in jobs} == {"warm-r0", "cold-r0"}


class TestSweepSpecs:
    def test_gemm_shorthand_covers_the_journey(self):
        spec = gemm_sweep(dim=16, threads=4)
        versions = [job.version for job in spec.jobs]
        assert versions == ["naive", "no_critical", "vectorized", "blocked",
                           "double_buffered"]

    def test_pi_shorthand_scales_steps(self):
        spec = pi_sweep(threads=8)
        assert [job.steps for job in spec.jobs] == [1_000_000, 4_000_000,
                                                    10_000_000]
        assert all(job.start_interval == 375_000 for job in spec.jobs)

    def test_spec_file_with_defaults_and_repeat(self, tmp_path):
        doc = {"name": "mine", "repeat": 2,
               "defaults": {"dim": 16, "threads": 4, "block_size": 4},
               "jobs": [{"app": "gemm", "version": "naive"},
                        {"app": "pi", "steps": 6400}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_spec(str(path))
        assert spec.name == "mine"  # the doc's name beats the file name
        jobs = spec.expanded()
        assert len(jobs) == 4
        assert jobs[0].dim == 16 and jobs[0].threads == 4

    def test_spec_file_errors_name_the_job(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jobs": [{"app": "gemm",
                                              "version": "nope"}]}))
        with pytest.raises(ValueError, match="job #0"):
            load_spec(str(path))

    def test_missing_spec_file_is_diagnosed(self):
        with pytest.raises(ValueError, match="cannot read sweep spec"):
            load_spec("/nonexistent/spec.json")

    def test_parse_rejects_bad_repeat(self):
        with pytest.raises(ValueError, match="repeat"):
            parse_spec_dict({"jobs": [{"app": "pi"}], "repeat": 0})

    def test_parse_rejects_unknown_top_level_keys(self):
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            parse_spec_dict({"jobs": [{"app": "pi"}], "jbos": []})
        with pytest.raises(ValueError, match="'default'"):
            parse_spec_dict({"jobs": [{"app": "pi"}],
                             "default": {"threads": 4}})

    def test_parse_rejects_duplicate_labels_in_doc(self):
        doc = {"jobs": [{"app": "pi", "steps": 6400, "label": "x"},
                        {"app": "pi", "steps": 12800, "label": "x"}]}
        spec = parse_spec_dict(doc)
        with pytest.raises(ValueError, match="duplicate job ids"):
            spec.expanded()


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class TestExecuteJob:
    def test_gemm_job_produces_metrics(self, tmp_path):
        result = execute_job(small_jobs()[0],
                             cache=CompileCache(str(tmp_path)))
        assert result.status == "ok"
        assert result.cycles > 0 and result.gflops > 0
        assert result.correct is True
        assert result.compile_cache == "miss"

    def test_pi_job_produces_value(self):
        result = execute_job(small_jobs()[2])
        assert result.status == "ok"
        assert result.value == pytest.approx(np.pi, abs=1e-3)
        assert result.compile_cache == "off"

    def test_failure_is_captured_not_raised(self):
        bad = JobSpec(app="gemm", version="naive", dim=16, threads=3)
        result = execute_job(bad)
        assert result.status == "failed"
        assert "multiple of" in result.error
        assert "ValueError" in result.error
        assert result.traceback and "Traceback" in result.traceback
        assert result.cycles is None

    def test_report_dir_writes_per_job_report(self, tmp_path):
        spec = small_jobs()[2]
        result = execute_job(spec, report_dir=str(tmp_path / "reports"))
        assert result.report_path is not None
        doc = json.loads(open(result.report_path).read())
        assert doc  # non-empty report JSON


class TestRunSweep:
    def test_failed_job_does_not_sink_siblings(self, tmp_path):
        jobs = [JobSpec(app="gemm", version="naive", dim=16, threads=3),
                *small_jobs()]
        result = run_sweep(jobs, jobs=2, cache_dir=str(tmp_path))
        assert [job.status for job in result.jobs] == \
            ["failed", "ok", "ok", "ok"]
        totals = result.totals()
        assert totals["failed"] == 1 and totals["ok"] == 3

    def test_parallel_cycles_match_serial_exactly(self, tmp_path):
        jobs = small_jobs()
        serial = run_sweep(jobs, jobs=1, cache_dir=str(tmp_path / "a"))
        parallel = run_sweep(jobs, jobs=4, cache_dir=str(tmp_path / "b"))
        assert [job.cycles for job in serial.jobs] == \
            [job.cycles for job in parallel.jobs]
        assert [job.gflops for job in serial.jobs] == \
            [job.gflops for job in parallel.jobs]

    def test_results_keep_spec_order(self, tmp_path):
        jobs = small_jobs()
        result = run_sweep(jobs, jobs=2, cache_dir=str(tmp_path))
        assert [job.job_id for job in result.jobs] == \
            [job.job_id for job in jobs]

    def test_repeat_expands_jobs(self):
        result = run_sweep([JobSpec(app="pi", steps=6400)], repeat=2,
                           use_cache=False)
        assert len(result.jobs) == 2
        assert result.jobs[0].cycles == result.jobs[1].cycles


# ----------------------------------------------------------------------
# the pool dispatcher: crash retry, hung-worker backstop, progress
# ----------------------------------------------------------------------
# The workers are forked, so they inherit a monkeypatched
# ``runner.execute_job``: each stand-in below decides from the job id
# (and a marker file) whether its worker dies, hangs or succeeds.
def pool_jobs(count=3):
    return [JobSpec(app="pi", steps=6400, label=f"job{index}")
            for index in range(count)]


def _ok_result(spec):
    return JobResult(job_id=spec.job_id, spec=spec.to_dict(), cycles=1)


class TestPoolDispatcher:
    def _crash_first_attempt(self, monkeypatch, tmp_path, victim):
        def fake_execute_job(spec, **kwargs):
            marker = tmp_path / f"{spec.job_id}.crashed"
            if spec.job_id == victim and not marker.exists():
                marker.touch()
                os._exit(1)
            return _ok_result(spec)

        monkeypatch.setattr(runner, "execute_job", fake_execute_job)

    def test_worker_crash_is_retried_once(self, monkeypatch, tmp_path):
        self._crash_first_attempt(monkeypatch, tmp_path, "job1-r0")
        result = run_sweep(pool_jobs(), jobs=2, use_cache=False)
        assert [job.status for job in result.jobs] == ["ok"] * 3
        assert result.jobs[1].attempts == 2

    def test_worker_dying_twice_is_recorded_crashed(self, monkeypatch):
        def fake_execute_job(spec, **kwargs):
            if spec.job_id == "job0-r0":
                os._exit(1)
            return _ok_result(spec)

        monkeypatch.setattr(runner, "execute_job", fake_execute_job)
        result = run_sweep(pool_jobs(2), jobs=2, use_cache=False)
        crashed = result.jobs[0]
        assert crashed.status == "crashed"
        assert crashed.attempts == 2
        assert "died twice" in crashed.error

    def test_backstop_reclaims_a_hung_worker(self, monkeypatch):
        @contextmanager
        def no_deadline(seconds):
            yield

        def fake_execute_job(spec, *, timeout=None, **kwargs):
            if spec.job_id == "job0-r0":
                with runner._inline_deadline(timeout):
                    time.sleep(30)  # wedged past its alarm
            return _ok_result(spec)

        monkeypatch.setattr(runner, "_inline_deadline", no_deadline)
        monkeypatch.setattr(runner, "_TIMEOUT_GRACE_S", 1.0)
        monkeypatch.setattr(runner, "execute_job", fake_execute_job)
        start = time.monotonic()
        result = run_sweep(pool_jobs(2), jobs=2, use_cache=False,
                           timeout=0.2)
        assert time.monotonic() - start < 15.0
        hung, sibling = result.jobs
        assert hung.status == "timeout"
        assert "stopped responding" in hung.error
        assert sibling.status == "ok"

    def test_pool_progress_prints_one_line_per_job(self, monkeypatch,
                                                   tmp_path):
        self._crash_first_attempt(monkeypatch, tmp_path, "job1-r0")
        stream = io.StringIO()
        run_sweep(pool_jobs(), jobs=2, use_cache=False,
                  progress=TTYProgress(stream=stream))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4, lines  # three job lines + the summary
        assert sorted(line.split()[2] for line in lines[:3]) == \
            ["job0-r0", "job1-r0", "job2-r0"]
        assert lines[-1].startswith("sweep ")

    def test_pool_progress_starts_no_process_beyond_workers(self,
                                                            monkeypatch):
        monkeypatch.setattr(runner, "execute_job",
                            lambda spec, **kwargs: _ok_result(spec))
        before = {child.pid for child in multiprocessing.active_children()}
        seen = []

        class CountingProgress(TTYProgress):
            def job_finished(self, result, index=None):
                seen.append({child.pid for child in
                             multiprocessing.active_children()} - before)
                super().job_finished(result, index=index)

        run_sweep(pool_jobs(4), jobs=2, use_cache=False,
                  progress=CountingProgress(stream=io.StringIO()))
        assert len(seen) == 4
        assert max(len(children) for children in seen) <= 2


class TestCompileCacheInSweeps:
    def test_second_identical_job_compiles_zero_times(self, tmp_path):
        """On a warm cache the HLS flow never runs: zero hls spans.

        Each job's counters/spans now live on its own captured
        telemetry snapshot (``result.telemetry``) rather than
        accumulating on the session registry, so the warm job is
        inspected in isolation even though a cold job ran just before.
        """

        spec = small_jobs()[0]
        cache = CompileCache(str(tmp_path), memory=False)
        execute_job(spec, cache=cache,
                    capture_telemetry=True)  # cold: compiles + stores

        result = execute_job(spec, cache=cache, capture_telemetry=True)
        assert result.compile_cache == "hit"
        counters = result.telemetry["counters"]
        span_names = [s["name"] for s in result.telemetry["spans"]]
        assert counters.get("compile_cache.hits") == 1
        assert "compile_cache.misses" not in counters
        assert [n for n in span_names if n.startswith("hls")] == []

    def test_cold_then_warm_cycles_identical(self, tmp_path):
        jobs = small_jobs()
        cold = run_sweep(jobs, jobs=1, cache_dir=str(tmp_path))
        warm = run_sweep(jobs, jobs=1, cache_dir=str(tmp_path))
        assert all(job.compile_cache == "miss" for job in cold.jobs)
        assert all(job.compile_cache == "hit" for job in warm.jobs)
        assert [job.cycles for job in cold.jobs] == \
            [job.cycles for job in warm.jobs]

    def test_no_cache_leaves_cache_dir_untouched(self, tmp_path):
        run_sweep(small_jobs()[:1], jobs=1, use_cache=False,
                  cache_dir=str(tmp_path / "cache"))
        assert not (tmp_path / "cache").exists()

    def test_pickled_accelerator_simulates_identically(self):
        """Regression: local_groups/local_costs were keyed by id(segment),
        so a cache-loaded (pickled) accelerator silently lost BRAM-port
        serialization and simulated *faster* than a fresh compile."""

        fresh = run_gemm("blocked", dim=16, num_threads=4, block_size=4)
        acc = pickle.loads(pickle.dumps(fresh.accelerator))
        assert acc.schedule.local_groups  # the kernel does use local BRAM
        from repro.sim.config import SimConfig
        from repro.sim.executor import Simulation
        rng = np.random.default_rng(42)
        A = rng.random(16 * 16, dtype=np.float32)
        B = rng.random(16 * 16, dtype=np.float32)
        C = np.zeros(16 * 16, dtype=np.float32)
        replay = Simulation(acc, SimConfig(thread_start_interval=50)).run(
            {"A": A, "B": B, "C": C, "DIM": 16})
        assert replay.cycles == fresh.cycles


# ----------------------------------------------------------------------
# results + validation
# ----------------------------------------------------------------------
class TestResultsDocument:
    def test_produced_document_validates(self, tmp_path):
        result = run_sweep(small_jobs(), jobs=1, cache_dir=str(tmp_path))
        doc = validate_sweep_dict(result.to_dict())
        assert doc["schema"] == SWEEP_SCHEMA
        path = tmp_path / "BENCH_test.json"
        result.to_json(str(path))
        assert validate_sweep_file(str(path))["totals"]["ok"] == 3

    def test_validation_rejects_corruption(self, tmp_path):
        result = run_sweep(small_jobs()[:1], jobs=1, use_cache=False)
        doc = result.to_dict()

        bad = json.loads(json.dumps(doc))
        bad["schema"] = "repro.sweep/999"
        with pytest.raises(ValueError, match="schema"):
            validate_sweep_dict(bad)

        bad = json.loads(json.dumps(doc))
        del bad["jobs"][0]["cycles"]
        with pytest.raises(ValueError, match="cycles"):
            validate_sweep_dict(bad)

        bad = json.loads(json.dumps(doc))
        bad["totals"]["jobs"] = 99
        with pytest.raises(ValueError, match="totals.jobs"):
            validate_sweep_dict(bad)

        bad = json.loads(json.dumps(doc))
        bad["jobs"][0]["status"] = "exploded"
        with pytest.raises(ValueError, match="status"):
            validate_sweep_dict(bad)

    def test_validation_rejects_non_json_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_sweep_file(str(path))

    def test_failed_jobs_keep_error_in_document(self):
        result = run_sweep(
            [JobSpec(app="gemm", version="naive", dim=16, threads=3)],
            jobs=1, use_cache=False)
        doc = validate_sweep_dict(result.to_dict())
        assert doc["jobs"][0]["status"] == "failed"
        assert "multiple of" in doc["jobs"][0]["error"]
