"""CPU time of the report's state rasterizer and its HTML/JSON exporters.

Two measurements, each the best of ``--reps`` repetitions in process
CPU seconds (the work is single-threaded and does no waiting, so the
best repetition is the one a busy shared host disturbs least):

* :func:`~repro.paraver.render.state_occupancy` on a synthetic
  timeline the size of the naive GEMM's at DIM=512: 8 threads of
  786,432 intervals each (that trace holds about 3 * DIM**2 per thread,
  12,290 at DIM=64), at the HTML Gantt's 840 buckets and the ASCII
  view's 100;
* ``render_html`` and ``reports_to_json`` of the five GEMM versions at
  DIM=64, the pages perfbench's ``trace_analysis`` workload renders.

It also prints whether ``numpy.ma`` was imported along the way (it
should not be: the analysis path makes no call that loads it).

Run it from a checkout (opt-in; not part of the test suite)::

    PYTHONPATH=src python benchmarks/report_render.py
    PYTHONPATH=src python benchmarks/report_render.py --reps 3
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

DIM = 64
THREADS, INTERVALS = 8, 786_432


def best(reps: int, work) -> float:
    """Fastest of ``reps`` calls of ``work()``, in process CPU seconds."""

    times = []
    for _ in range(reps):
        start = time.process_time()
        work()
        times.append(time.process_time() - start)
    return min(times)


def synthetic_trace(seed: int = 0):
    """A RunTrace whose 8 threads share one tiling of 786,432 intervals
    (durations 1-63 cycles, random states)."""

    from repro.profiling.config import ThreadState
    from repro.profiling.recorder import RunTrace, StateColumns

    rng = np.random.default_rng(seed)
    ends = np.cumsum(rng.integers(1, 64, INTERVALS, dtype=np.int64))
    starts = np.concatenate(([0], ends[:-1]))
    states = rng.integers(0, len(ThreadState), INTERVALS, dtype=np.int64)
    cols = StateColumns(starts, ends, states)
    return RunTrace(THREADS, int(ends[-1]), 100, [cols] * THREADS, {})


def gemm_reports(directory: str) -> list:
    """Reports read back from the five GEMM versions' DIM=64 traces."""

    from repro.apps import run_gemm
    from repro.apps.gemm import GEMM_VERSIONS
    from repro.paraver import write_trace
    from repro.report.model import report_from_prv

    reports = []
    for version in GEMM_VERSIONS:
        result = run_gemm(version, dim=DIM).result
        files = write_trace(result.trace, os.path.join(directory, version),
                            clock_mhz=result.clock_mhz)
        reports.append(report_from_prv(files.prv, label=version))
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=7)
    args = parser.parse_args(argv)

    from repro.paraver.render import state_occupancy
    from repro.report.html import render_html
    from repro.report.serialize import reports_to_json

    trace = synthetic_trace()
    print(f"state_occupancy, {THREADS} threads x {INTERVALS:,} intervals "
          f"({trace.end_cycle:,} cycles):")
    for buckets in (840, 100):
        seconds = best(args.reps, lambda: [
            state_occupancy(trace, thread, 0, trace.end_cycle, buckets)
            for thread in range(THREADS)])
        print(f"  {buckets:>4} buckets {1e3 * seconds:8.1f} ms "
              f"({1e3 * seconds / THREADS:.1f} ms per thread)")
    del trace

    with tempfile.TemporaryDirectory() as directory:
        reports = gemm_reports(directory)
    html = best(args.reps, lambda: render_html(reports, title="compare"))
    json_ = best(args.reps, lambda: reports_to_json(reports))
    print(f"five DIM={DIM} GEMM reports: render_html {1e3 * html:.1f} ms, "
          f"reports_to_json {1e3 * json_:.1f} ms")
    print(f"numpy.ma imported: {'numpy.ma' in sys.modules}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
