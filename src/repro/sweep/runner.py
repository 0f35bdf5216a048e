"""Batch execution of sweep jobs: serial, or fanned out over processes.

:func:`execute_job` runs one :class:`~repro.sweep.spec.JobSpec` through
the full compile→simulate pipeline (via the shared
:mod:`repro.apps.runners` code path) and *always* returns a structured
:class:`~repro.sweep.results.JobResult` — an exception becomes a
``status: "failed"`` record with the traceback attached, never an
aborted sweep.

:func:`run_sweep` executes a whole spec:

* ``jobs <= 1`` — inline in this process (deterministic, debuggable,
  telemetry-visible);
* ``jobs > 1`` — a ``ProcessPoolExecutor`` fan-out.  Workers receive
  plain job dicts (never compiled objects) and re-derive + compile
  through the shared on-disk :class:`~repro.hls.cache.CompileCache`.
  The dispatcher keeps exactly ``jobs`` futures in flight so a
  submitted job is known to be *running*; a crashed
  worker poisons the pool, so every in-flight job is retried **once**
  before being recorded as ``"crashed"`` (retry-once-on-crash).

The per-job ``timeout`` is enforced *inline in the job itself* (both
in workers and in ``jobs=1`` mode) via a ``SIGALRM`` deadline: an
expired job unwinds into a structured ``"timeout"`` record without
killing its worker process.  The dispatcher keeps a coarser backstop
(timeout plus a grace period) for workers that are truly stuck; those
are recycled.

Observability: every job runs with telemetry captured into an
isolated per-job registry (:meth:`~repro.telemetry.Telemetry.capture`)
and ships the lossless snapshot back on the result, tagged with job
id and pid, so ``repro timeline`` can merge all workers into one
Perfetto trace.  Live progress goes to a
:class:`~repro.sweep.progress.TTYProgress`, called on job start and
finish by the thread that runs the sweep: in pool mode the dispatcher
announces a job when it submits it, since it keeps exactly ``jobs``
futures in flight.

Simulated results are deterministic by construction — each job seeds
its own RNG and runs an isolated simulation — so per-job cycle counts
are identical across ``jobs=1`` and ``jobs=N``, across cache-cold
and cache-warm runs (the cache stores *compiled accelerators*, whose
execution is what produces cycles), and with observability on or off
(telemetry measures wall time only).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from typing import Optional, Sequence, Union

from .. import telemetry
from ..apps.runners import run_gemm, run_pi
from ..hls.cache import CompileCache, default_cache_dir
from ..sim.config import SimConfig
from .progress import TTYProgress
from .results import JobResult, SweepResult
from .spec import JobSpec, SweepSpec, expand_jobs

__all__ = ["execute_job", "run_sweep", "JobTimeout"]

#: dispatcher poll interval while waiting on in-flight futures
_POLL_S = 0.1

#: extra seconds the pool dispatcher grants beyond the inline deadline
#: before declaring a worker hung and recycling the pool
_TIMEOUT_GRACE_S = 5.0


class JobTimeout(Exception):
    """Raised inside a job when its inline wall-clock deadline expires."""


@contextmanager
def _inline_deadline(seconds: Optional[float]):
    """Raise :class:`JobTimeout` in the running job after ``seconds``.

    Uses a ``SIGALRM`` interval timer, so it only arms on platforms
    with ``SIGALRM`` and when running in the main thread (signal
    handlers cannot be installed elsewhere); otherwise the job runs
    without an inline deadline and pool mode's dispatcher backstop is
    the only limit.  Worker processes run jobs on their main thread,
    so the inline path is the one that fires in practice.
    """

    if (not seconds or seconds <= 0 or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    expired = []

    def _expire(signum, frame):
        expired.append(True)
        raise JobTimeout()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        # the handler ran inside a finalizer or weakref callback (e.g.
        # during a garbage collection), where Python reports and drops
        # exceptions: the job still overran its deadline
        raise JobTimeout()


# ----------------------------------------------------------------------
# one job
# ----------------------------------------------------------------------
def _cache_status(cache: Optional[CompileCache],
                  before: Optional[dict]) -> str:
    if cache is None or before is None:
        return "off"
    if cache.hits > before["hits"]:
        return "hit"
    if cache.misses > before["misses"]:
        return "miss"
    return "off"


def execute_job(spec: JobSpec, *, cache: Optional[CompileCache] = None,
                keep_run: bool = False,
                report_dir: Optional[str] = None,
                timeout: Optional[float] = None,
                capture_telemetry: Optional[bool] = None) -> JobResult:
    """Run one job; never raises — failures become structured records.

    ``timeout`` arms an inline ``SIGALRM`` deadline: an expired job
    becomes a structured ``"timeout"`` record.  ``capture_telemetry``
    runs the job inside an isolated telemetry registry and attaches
    the lossless snapshot (tagged with job id, pid, status, cache
    state and wall time) to ``result.telemetry``; the default
    (``None``) captures whenever the process-wide session is enabled,
    keeping per-job counters attributable instead of accumulated.
    """

    session = telemetry.get_telemetry()
    capture = session.enabled if capture_telemetry is None \
        else bool(capture_telemetry)
    if not capture:
        return _execute_job_body(spec, cache, keep_run, report_dir, timeout)
    with session.capture(enabled=True):
        result = _execute_job_body(spec, cache, keep_run, report_dir,
                                   timeout)
        snap = session.snapshot()
    snap["job"] = result.job_id
    snap["status"] = result.status
    snap["cache"] = result.compile_cache
    snap["wall_s"] = round(result.wall_s, 6)
    result.telemetry = snap
    if session.enabled:
        session.job_snapshots.append(snap)
    return result


def _execute_job_body(spec: JobSpec, cache: Optional[CompileCache],
                      keep_run: bool, report_dir: Optional[str],
                      timeout: Optional[float]) -> JobResult:
    result = JobResult(job_id=spec.job_id, spec=spec.to_dict())
    before = cache.stats() if cache is not None else None
    start = time.perf_counter()
    # no telemetry span here: wrapping the run would reparent the
    # frontend/hls/sim root spans and collapse per-phase breakdowns;
    # the job's wall time is recorded on the JobResult instead
    sim_config = None if spec.start_interval is None else \
        SimConfig(thread_start_interval=spec.start_interval)
    try:
        with _inline_deadline(timeout):
            if spec.app == "gemm":
                run = run_gemm(spec.version, dim=spec.dim,
                               num_threads=spec.threads, seed=spec.seed,
                               vector_len=spec.vector_len,
                               block_size=spec.block_size,
                               sim_config=sim_config, compile_cache=cache)
                result.correct = bool(run.correct)
            else:
                run = run_pi(spec.steps, num_threads=spec.threads,
                             bs_compute=spec.bs_compute,
                             sim_config=sim_config, compile_cache=cache)
                result.value = run.value
                result.value_error = run.error
            result.cycles = int(run.cycles)
            result.gflops = float(run.result.gflops)
            result.bandwidth_gbs = float(run.result.bandwidth_gbs())
            if report_dir:
                result.report_path = _write_job_report(run, spec, report_dir)
            if keep_run:
                result.run = run
        result.status = "ok"
    except JobTimeout:
        result.status = "timeout"
        result.error = (f"job exceeded the {timeout:g}s per-job timeout "
                        "(inline deadline)")
    except Exception as exc:
        result.status = "failed"
        result.error = f"{type(exc).__name__}: {exc}"
        result.traceback = traceback.format_exc()
    result.wall_s = time.perf_counter() - start
    result.compile_cache = _cache_status(cache, before)
    return result


def _write_job_report(run, spec: JobSpec, report_dir: str) -> str:
    from ..report import reports_to_json

    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, f"{spec.job_id}.report.json")
    with open(path, "w") as handle:
        handle.write(reports_to_json([run.report(label=spec.job_id)]) + "\n")
    return path


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: per-process cache handle, reused across the jobs one worker executes
_WORKER_CACHE: Optional[CompileCache] = None


def _pool_worker(job_dict: dict, cache_dir: Optional[str], use_cache: bool,
                 keep_run: bool, report_dir: Optional[str],
                 timeout: Optional[float] = None,
                 capture_telemetry: bool = False) -> JobResult:
    global _WORKER_CACHE
    spec = JobSpec.from_dict(job_dict)
    cache = None
    if use_cache:
        wanted = cache_dir or default_cache_dir()
        if _WORKER_CACHE is None or _WORKER_CACHE.directory != wanted:
            _WORKER_CACHE = CompileCache(wanted)
        cache = _WORKER_CACHE
    result = execute_job(spec, cache=cache, keep_run=keep_run,
                         report_dir=report_dir, timeout=timeout,
                         capture_telemetry=capture_telemetry)
    if not keep_run:
        result.run = None  # keep the cross-process pickle small
    return result


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def run_sweep(spec: Union[SweepSpec, Sequence[JobSpec]], *, jobs: int = 1,
              repeat: Optional[int] = None, use_cache: bool = True,
              cache_dir: Optional[str] = None,
              timeout: Optional[float] = None,
              report_dir: Optional[str] = None,
              keep_runs: bool = False,
              progress: Optional[TTYProgress] = None,
              capture_telemetry: Optional[bool] = None) -> SweepResult:
    """Execute every job of ``spec``; returns results in spec order.

    ``jobs`` is the process fan-out (``<= 1`` runs inline); ``repeat``
    replicates each job with distinct ``repeat_index``; ``timeout`` is
    the per-job wall-clock limit in seconds, enforced inline in the
    job (with a dispatcher backstop in pool mode).  ``progress``
    renders live progress as jobs start and finish.
    ``capture_telemetry`` ships each job's
    telemetry snapshot back on its result (default: whenever the
    session is enabled), ready for ``repro timeline`` merging.
    """

    if isinstance(spec, SweepSpec):
        job_specs = spec.expanded(repeat)
        name = spec.name
    else:
        job_specs = expand_jobs(list(spec), repeat if repeat is not None
                                else 1)
        name = "sweep"
    session = telemetry.get_telemetry()
    capture = session.enabled if capture_telemetry is None \
        else bool(capture_telemetry)
    sweep_wall_start = time.time()
    start = time.perf_counter()
    if progress is not None:
        progress.sweep_started(name, len(job_specs), max(1, jobs))
    with telemetry.span("sweep", category="sweep", sweep=name,
                        jobs=len(job_specs), parallel=jobs):
        if jobs <= 1:
            results = _run_inline(job_specs, cache_dir, use_cache, timeout,
                                  report_dir, keep_runs, progress, capture)
        else:
            results = _run_pool(job_specs, jobs, cache_dir, use_cache,
                                timeout, report_dir, keep_runs, progress,
                                capture)
    outcome = SweepResult(name, results,
                          wall_s=time.perf_counter() - start,
                          parallel_jobs=max(1, jobs))
    totals = outcome.totals()
    telemetry.add("sweep.jobs", totals["jobs"])
    telemetry.add("sweep.ok", totals["ok"])
    telemetry.add("sweep.failures", totals["jobs"] - totals["ok"])
    telemetry.add("sweep.cache_hits", totals["cache_hits"])
    telemetry.add("sweep.cache_misses", totals["cache_misses"])
    if capture:
        _fold_job_telemetry(session, results, sweep_wall_start,
                            pool=jobs > 1)
    if session.enabled:
        outcome.telemetry = session.snapshot()
    if progress is not None:
        progress.sweep_finished(outcome)
    return outcome


def _fold_job_telemetry(session, results: list[JobResult],
                        sweep_wall_start: float, pool: bool) -> None:
    """Tag job snapshots with wall-clock offsets; adopt pool snapshots.

    Inline jobs already appended their snapshots to the session
    (``execute_job`` does); pool jobs captured theirs in the worker
    process, so the parent folds them in here.  Offsets are relative
    to the session start (or the sweep start when the session is
    disabled) — ``time.time()`` is shared across processes, which is
    what makes merged timelines line up.
    """

    base_wall = session.wall_start if session.enabled else sweep_wall_start
    for result in results:
        snap = result.telemetry
        if not snap:
            continue
        snap["wall_offset_s"] = round(snap["wall_start"] - base_wall, 6)
        if pool and session.enabled:
            session.job_snapshots.append(snap)


def _run_inline(job_specs: list[JobSpec], cache_dir: Optional[str],
                use_cache: bool, timeout: Optional[float],
                report_dir: Optional[str], keep_runs: bool,
                progress: Optional[TTYProgress],
                capture: bool) -> list[JobResult]:
    cache = CompileCache(cache_dir) if use_cache else None
    results = []
    for index, job in enumerate(job_specs):
        if progress is not None:
            progress.job_started(job.job_id, index=index)
        result = execute_job(job, cache=cache, keep_run=keep_runs,
                             report_dir=report_dir, timeout=timeout,
                             capture_telemetry=capture)
        if progress is not None:
            progress.job_finished(result, index=index)
        results.append(result)
    return results


def _crash_result(spec: JobSpec, attempts: int, status: str,
                  message: str) -> JobResult:
    return JobResult(job_id=spec.job_id, spec=spec.to_dict(), status=status,
                     error=message, attempts=attempts)


def _terminate_pool(executor) -> None:
    """Shut a pool down hard, reclaiming hung or poisoned workers."""

    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


def _run_pool(job_specs: list[JobSpec], workers: int,
              cache_dir: Optional[str], use_cache: bool,
              timeout: Optional[float], report_dir: Optional[str],
              keep_runs: bool, progress: Optional[TTYProgress] = None,
              capture: bool = False) -> list[JobResult]:
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    workers = min(workers, len(job_specs)) or 1
    results: dict[int, JobResult] = {}
    #: (job index, attempt) — attempt counts pool-crash retries only
    pending: deque[tuple[int, int]] = deque(
        (index, 0) for index in range(len(job_specs)))
    in_flight: dict = {}  # future -> (index, attempt, started_at)
    executor = ProcessPoolExecutor(max_workers=workers)

    def finish(result: JobResult, index: int) -> None:
        results[index] = result
        if progress is not None:
            progress.job_finished(result, index=index)

    def submit(index: int, attempt: int) -> None:
        future = executor.submit(_pool_worker, job_specs[index].to_dict(),
                                 cache_dir, use_cache, keep_runs, report_dir,
                                 timeout, capture)
        in_flight[future] = (index, attempt, time.monotonic())
        if progress is not None:
            # exactly ``workers`` futures are in flight, so a submitted
            # job is a running one (a retry re-announces the same job)
            progress.job_started(job_specs[index].job_id, index=index)

    def recycle_pool() -> None:
        """Replace the pool; requeue surviving in-flight jobs as-is."""

        nonlocal executor
        for _future, (index, attempt, _started) in in_flight.items():
            pending.appendleft((index, attempt))
        in_flight.clear()
        _terminate_pool(executor)
        executor = ProcessPoolExecutor(max_workers=workers)

    try:
        while pending or in_flight:
            while pending and len(in_flight) < workers:
                submit(*pending.popleft())
            done, _ = wait(set(in_flight), timeout=_POLL_S,
                           return_when=FIRST_COMPLETED)
            pool_broken = False
            for future in done:
                index, attempt, _started = in_flight.pop(future)
                spec = job_specs[index]
                try:
                    result = future.result()
                    result.attempts = attempt + 1
                    finish(result, index)
                except BrokenProcessPool:
                    # a worker died (e.g. segfault/OOM): the whole pool is
                    # poisoned and we cannot tell which in-flight job did
                    # it, so each gets one retry before being written off
                    pool_broken = True
                    if attempt < 1:
                        pending.appendleft((index, attempt + 1))
                    else:
                        finish(_crash_result(
                            spec, attempt + 1, "crashed",
                            "worker process died twice running this job"),
                            index)
                except Exception as exc:  # executor-level failure
                    finish(_crash_result(
                        spec, attempt + 1, "crashed",
                        f"{type(exc).__name__}: {exc}"), index)
            if pool_broken:
                recycle_pool()
                continue
            if timeout is not None and in_flight:
                # the job's own SIGALRM deadline normally fires first and
                # returns a structured "timeout" result; this backstop
                # (timeout + grace) only reclaims workers that are truly
                # stuck — blocked in C code or wedged past their alarm
                now = time.monotonic()
                limit = timeout + _TIMEOUT_GRACE_S
                expired = [item for item in in_flight.items()
                           if now - item[1][2] > limit]
                if expired:
                    for future, (index, attempt, _started) in expired:
                        del in_flight[future]
                        finish(_crash_result(
                            job_specs[index], attempt + 1, "timeout",
                            f"job exceeded the {timeout:g}s per-job timeout "
                            "and its worker stopped responding"), index)
                    # hung workers still hold pool slots: recycle, keeping
                    # the surviving in-flight jobs queued for resubmission
                    recycle_pool()
    finally:
        _terminate_pool(executor)
    return [results[index] for index in range(len(job_specs))]
