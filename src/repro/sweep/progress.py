"""Live sweep progress on a terminal.

``run_sweep`` reports every job transition to a :class:`TTYProgress`:
a live terminal line (jobs done/running/failed, compile-cache hit
rate, ETA extrapolated from completed-job durations), re-rendered
when a job starts or finishes, degrading to one printed line per job
when the stream is not a TTY (CI logs stay readable).  Every callback
comes from the thread that called ``run_sweep`` — in pool mode the
dispatcher announces a job when it submits it — and workers report
nothing while a job runs: a hung job is ended by its inline deadline
or, failing that, by the pool dispatcher's backstop.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional, TextIO

__all__ = ["TTYProgress"]


class TTYProgress:
    """Single-line live progress for humans watching a sweep run."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream if stream is not None else sys.stderr
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._lock = threading.Lock()
        self._name = "sweep"
        self._total = 0
        self._parallel = 1
        self._ok = 0
        self._failed = 0
        self._hits = 0
        self._misses = 0
        self._running: dict[str, float] = {}  # job id -> start monotonic
        self._durations: list[float] = []
        self._started_at: Optional[float] = None
        self._last_line_len = 0

    # -- callbacks ------------------------------------------------------
    def sweep_started(self, name, total_jobs, parallel):
        with self._lock:
            self._name = name
            self._total = total_jobs
            self._parallel = max(1, parallel)
            self._started_at = time.monotonic()
            self._render_locked()

    def job_started(self, job_id, index=None):
        with self._lock:
            self._running[job_id] = time.monotonic()
            self._render_locked()

    def job_finished(self, result, index=None):
        """``result`` is a :class:`~repro.sweep.results.JobResult`."""

        with self._lock:
            started = self._running.pop(result.job_id, None)
            if result.status == "ok":
                self._ok += 1
            else:
                self._failed += 1
            if result.compile_cache == "hit":
                self._hits += 1
            elif result.compile_cache == "miss":
                self._misses += 1
            # wall_s may be 0.0 (cache-hit job finishing within one clock
            # tick) or None (hand-built results); both must stay out of
            # the duration average rather than crash or skew the ETA.
            wall = result.wall_s or 0.0
            duration = wall if wall > 0.0 else (
                time.monotonic() - started if started is not None else 0.0)
            if duration > 0.0:
                self._durations.append(duration)
            if self._isatty:
                self._render_locked()
            else:
                detail = "" if result.status == "ok" \
                    else f"  ! {result.error}"
                self._write_line(
                    f"[{self._ok + self._failed:3d}/{self._total}] "
                    f"{result.job_id:34s} {result.status:8s} "
                    f"{wall:6.2f}s  {result.compile_cache}"
                    f"{detail}")

    def sweep_finished(self, result):
        """``result`` is a :class:`~repro.sweep.results.SweepResult`."""

        with self._lock:
            totals = result.totals()
            self._clear_locked()
            self._write_line(
                f"sweep {self._name}: {totals['ok']}/{totals['jobs']} ok, "
                f"{totals['jobs'] - totals['ok']} failed "
                f"({totals['timeout']} timeout, {totals['crashed']} "
                f"crashed); cache {self._cache_pct()} hit; "
                f"{result.wall_s or 0.0:.2f}s wall")

    # -- rendering ------------------------------------------------------
    # Every quotient below is guarded: a sweep whose first job finishes
    # within the same clock tick (zero elapsed), an all-cache-hit sweep
    # where every wall_s is ~0, and a zero-job sweep are all legal and
    # must render "n/a" rather than divide by zero — long explore runs
    # route hundreds of cache-hit jobs through this sink.
    def _cache_pct(self) -> str:
        seen = self._hits + self._misses
        if seen <= 0:
            return "n/a"
        return f"{100.0 * self._hits / seen:.0f}%"

    def _rate_s(self) -> Optional[float]:
        done = self._ok + self._failed
        if done <= 0 or self._started_at is None:
            return None
        elapsed = time.monotonic() - self._started_at
        if elapsed <= 0.0:
            return None
        return done / elapsed

    def _eta_s(self) -> Optional[float]:
        if not self._durations or self._parallel <= 0:
            return None
        remaining = self._total - self._ok - self._failed
        if remaining <= 0:
            return 0.0
        avg = sum(self._durations) / len(self._durations)
        if avg <= 0.0:
            return None
        return avg * remaining / self._parallel

    def _render_locked(self) -> None:
        if not self._isatty:
            return
        done = self._ok + self._failed
        eta = self._eta_s()
        eta_text = f"  eta {eta:.0f}s" if eta is not None else ""
        rate = self._rate_s()
        rate_text = f"  {rate:.1f} job/s" if rate is not None else ""
        failed_text = f" failed:{self._failed}" if self._failed else ""
        line = (f"sweep {self._name}: {done}/{self._total} done "
                f"({len(self._running)} running{failed_text})  "
                f"cache {self._cache_pct()} hit{rate_text}{eta_text}")
        padded = line.ljust(self._last_line_len)
        self._last_line_len = len(line)
        try:
            self.stream.write("\r" + padded)
            self.stream.flush()
        except (OSError, ValueError):
            pass

    def _clear_locked(self) -> None:
        if self._isatty and self._last_line_len:
            try:
                self.stream.write("\r" + " " * self._last_line_len + "\r")
            except (OSError, ValueError):
                pass
            self._last_line_len = 0

    def _write_line(self, line: str) -> None:
        try:
            self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
