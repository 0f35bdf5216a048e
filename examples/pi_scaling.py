#!/usr/bin/env python3
"""The paper's π case study: thread-start overhead vs workload (§V-D).

Sweeps the iteration count of the π series and shows how the software
overhead of starting the hardware threads dominates small workloads —
the Figs. 11-13 state views and their 0.146/0.556/1.507 GFLOP/s series
at the paper's own 1M/4M/10M iterations (the shape is what reproduces).

Run:  python examples/pi_scaling.py [--jobs N]

The three sweep points run through :func:`repro.sweep.run_sweep`, so
``--jobs 3`` simulates them in parallel worker processes; the rendered
output is identical at any worker count.
"""

import sys

from repro.analysis import diagnose
from repro.paraver import render_state_timeline, thread_activity_windows
from repro.sweep import JobSpec, execute_job, pi_sweep, run_sweep
from repro.sweep.spec import (PI_DEFAULT_START_INTERVAL as START_INTERVAL,
                              PI_DEFAULT_STEPS as SWEEP)


def main(jobs: int = 1) -> None:
    print("=== pi series scaling (paper Figs. 11-13) ===")
    print(f"thread start interval: {START_INTERVAL} cycles "
          f"(--jobs {jobs})\n")
    print(f"{'steps':>9s} {'pi error':>10s} {'cycles':>9s} {'GFLOP/s':>8s}")
    sweep = run_sweep(pi_sweep(), jobs=jobs, keep_runs=True)
    if sweep.failed:
        raise SystemExit("\n".join(f"{job.job_id} {job.status}: {job.error}"
                                   for job in sweep.failed))
    runs = {job.spec["steps"]: job.run for job in sweep.jobs}
    for steps in SWEEP:
        run = runs[steps]
        print(f"{steps:9d} {run.error:10.2e} {run.cycles:9d} "
              f"{run.gflops:8.3f}")

    print("\npaper reference: 1M -> 0.146, 4M -> 0.556, 10M -> 1.507 GFLOP/s")
    ratio = runs[SWEEP[-1]].gflops / runs[SWEEP[0]].gflops
    print(f"measured rise across the sweep: {ratio:.1f}x "
          f"(paper: {1.507 / 0.146:.1f}x)\n")

    for steps in SWEEP:
        run = runs[steps]
        spans = thread_activity_windows(run.result.trace)
        overlap = "yes" if spans[:-1, 1].min() > spans[-1, 0] else "no"
        print(f"--- {steps} steps (threads all overlap: {overlap}) ---")
        print(render_state_timeline(run.result.trace, width=72))
        print()

    print("--- automatic diagnosis at the smallest size ---")
    print(diagnose(runs[SWEEP[0]].result))

    # the paper extrapolates to 15e9 iterations (36.84 GFLOP/s): at large
    # sizes the startup cost vanishes and the pipeline rate is the limit
    result = execute_job(JobSpec(app="pi", steps=16 * SWEEP[-1],
                                 start_interval=START_INTERVAL),
                         keep_run=True)
    if result.status != "ok":
        raise SystemExit(f"{result.job_id} {result.status}: {result.error}")
    big = result.run
    print(f"\nextrapolation point: {big.steps} steps -> "
          f"{big.gflops:.3f} GFLOP/s (startup amortized)")


if __name__ == "__main__":
    n_jobs = 1
    if "--jobs" in sys.argv:
        at = sys.argv.index("--jobs")
        n_jobs = int(sys.argv[at + 1])
    main(jobs=n_jobs)
