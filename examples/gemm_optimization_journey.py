#!/usr/bin/env python3
"""The paper's GEMM case study, end to end (§V-C, Figs. 3-9).

Simulates all five GEMM versions, prints the speedup chain the paper
reports (1x -> 1.14x -> ... -> 19x on real hardware), renders the
Fig. 6-style state view of the naive version, the Fig. 7-style relative
bandwidth comparison, and the Fig. 8/9 load-vs-compute phase pictures
for the blocked and double-buffered versions.  It then writes the whole
journey as a self-contained HTML report (the regenerable equivalent of
the paper's screenshots) plus the naive version's Paraver trace, which
``repro analyze gemm_naive_trace.prv`` re-analyzes without a simulator.

Run:  python examples/gemm_optimization_journey.py [DIM] [--jobs N]

The five versions are executed through :func:`repro.sweep.run_sweep`,
so passing ``--jobs 4`` compiles and simulates them in parallel worker
processes — the rendering below is unchanged because simulated cycle
counts are identical at any worker count.
"""

import sys

from repro.analysis import diagnose
from repro.paraver import (
    bandwidth_series_gbs, gflops_series, phase_overlap, render_series,
    render_state_timeline, write_trace,
)
from repro.profiling import ThreadState
from repro.report import render_comparison_text, write_html
from repro.sweep import gemm_sweep, run_sweep

PAPER_SPEEDUPS = {"naive": 1.0, "no_critical": 1.14, "vectorized": 2.2,
                  "blocked": 5.28, "double_buffered": 19.0}


def main(dim: int = 64, jobs: int = 1) -> None:
    print(f"=== GEMM optimization journey, DIM={dim}, 8 hardware threads "
          f"(--jobs {jobs}) ===\n")
    sweep = run_sweep(gemm_sweep(dim=dim), jobs=jobs, keep_runs=True)
    failed = sweep.failed
    if failed:
        raise SystemExit("\n".join(f"{job.job_id} {job.status}: {job.error}"
                                   for job in failed))
    runs = {job.spec["version"]: job.run for job in sweep.jobs}
    print(f"{'version':18s} {'cycles':>10s} {'speedup':>8s} {'paper':>7s} "
          f"{'GB/s':>6s} {'correct':>8s}")
    base = None
    for version, run in runs.items():
        base = base or run.cycles
        print(f"{version:18s} {run.cycles:10d} {base / run.cycles:7.2f}x "
              f"{PAPER_SPEEDUPS[version]:6.2f}x "
              f"{run.result.bandwidth_gbs():6.2f} {str(run.correct):>8s}")
    totals = sweep.totals()
    print(f"\n(sweep: {totals['jobs']} jobs in {sweep.wall_s:.1f}s wall, "
          f"{totals['ok']} ok)")

    # ------------------------------------------------------------------
    naive = runs["naive"].result
    fractions = naive.trace.state_fractions()
    print(f"\n--- Fig. 6: naive version state view "
          f"(critical {100 * fractions[ThreadState.CRITICAL]:.2f}%, "
          f"spinning {100 * fractions[ThreadState.SPINNING]:.2f}%; "
          "paper: 1.54% / 1.57%) ---")
    print(render_state_timeline(naive.trace, width=72))

    # zoom into one critical-section hand-off, like the paper's bottom pane
    # (thread 7 spins on the lock thread 6 currently holds)
    spin = next((iv for iv in naive.trace.states[7]
                 if iv.state is ThreadState.SPINNING), None)
    if spin is not None:
        print("\n--- Fig. 6 (zoom): threads spinning while another is in the "
              "critical section ---")
        print(render_state_timeline(naive.trace, width=72,
                                    start=max(0, spin.start - 60),
                                    end=spin.end + 120))

    # ------------------------------------------------------------------
    print("\n--- Fig. 7: relative memory bandwidth over normalized runtime ---")
    for version, run in runs.items():
        bw = bandwidth_series_gbs(run.result.trace, run.result.clock_mhz)
        print(render_series(bw, width=72, height=3, label=version))
        print()

    # ------------------------------------------------------------------
    for version, fig in (("blocked", "Fig. 8"), ("double_buffered", "Fig. 9")):
        result = runs[version].result
        phases = phase_overlap(result.trace)
        print(f"--- {fig}: {version} load/compute phases — "
              f"{phases.load_windows} load-only, "
              f"{phases.compute_windows} compute-only, "
              f"{phases.overlap_windows} overlapping windows "
              f"(overlap fraction {phases.overlap_fraction:.2f}) ---")
        flops = gflops_series(result.trace, result.clock_mhz)
        print(render_series(flops, width=72, height=3,
                            label=f"{version} GFLOP/s"))
        print()

    print("--- automatic diagnosis of the naive version ---")
    print(diagnose(naive))
    files = write_trace(naive.trace, "gemm_naive_trace",
                        clock_mhz=naive.clock_mhz)
    print(f"\nParaver trace of the naive version written to {files.prv}")

    # ------------------------------------------------------------------
    reports = [run.report(label=version)
               for version, run in runs.items()]
    print("\n--- efficiency hierarchy across the journey "
          "(parallel = balance x sync x transfer) ---")
    print(render_comparison_text(reports), end="")
    write_html(reports, "gemm_journey_report.html",
               title=f"GEMM optimization journey, DIM={dim}")
    print("\nHTML report written to gemm_journey_report.html "
          "(self-contained, open in any browser)")


if __name__ == "__main__":
    argv = sys.argv[1:]
    n_jobs = 1
    if "--jobs" in argv:
        at = argv.index("--jobs")
        n_jobs = int(argv[at + 1])
        del argv[at:at + 2]
    main(int(argv[0]) if argv else 64, jobs=n_jobs)
