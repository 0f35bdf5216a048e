"""Figs. 11-13: π-series iteration sweep and thread-start overhead.

Paper (1M / 4M / 10M iterations, 8 threads): 0.146 / 0.556 / 1.507
GFLOP/s — the software overhead of starting threads one by one dominates
small workloads; at 1M iterations the earliest threads finish before the
last ones start.  Ignoring f32 instability, 15e9 iterations would reach
36.84 GFLOP/s (startup fully amortized).

We sweep the paper's own sizes with a calibrated start interval.  The
shape to reproduce: near-linear GFLOP/s growth while startup dominates
(paper: 3.8x from point 1 to 2), then saturation at the pipeline rate.
"""

import numpy as np

from repro.paraver import render_state_timeline, thread_activity_windows

from _bench_utils import (
    PI_PAPER_POINTS, PI_START_INTERVAL, PI_SWEEP, pi_run_cached, report,
)


def test_pi_scaling_sweep(benchmark):
    def run_sweep():
        return {steps: pi_run_cached(steps) for steps in PI_SWEEP}

    runs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [f"== Figs 11-13: pi iteration sweep "
             f"(start interval {PI_START_INTERVAL} cycles) ==",
             f"{'steps':>9s} {'paper pt':>9s} {'GFLOP/s':>8s} "
             f"{'paper':>7s} {'pi error':>10s}"]
    for steps in PI_SWEEP:
        run = runs[steps]
        label, paper_gflops = PI_PAPER_POINTS[steps]
        lines.append(f"{steps:9d} {label:>9s} {run.gflops:8.3f} "
                     f"{paper_gflops:7.3f} {run.error:10.2e}")
    ratio_12 = runs[PI_SWEEP[1]].gflops / runs[PI_SWEEP[0]].gflops
    ratio_13 = runs[PI_SWEEP[2]].gflops / runs[PI_SWEEP[0]].gflops
    lines += [
        f"growth point1->point2: {ratio_12:.2f}x (paper: "
        f"{0.556 / 0.146:.2f}x)",
        f"growth point1->point3: {ratio_13:.2f}x (paper: "
        f"{1.507 / 0.146:.2f}x)",
    ]
    report("fig11_13_pi_sweep", lines)

    # values are numerically correct and the growth shape matches
    assert all(run.error < 1e-4 for run in runs.values())
    gflops = [runs[s].gflops for s in PI_SWEEP]
    assert gflops[0] < gflops[1] < gflops[2]
    assert 2.5 < ratio_12 < 4.2   # paper: 3.81x
    assert ratio_13 > 4.0         # paper: 10.3x


def test_fig11_earliest_finishes_before_last_starts(benchmark):
    run = benchmark.pedantic(lambda: pi_run_cached(PI_SWEEP[0]),
                             rounds=1, iterations=1)
    spans = thread_activity_windows(run.result.trace)
    lines = ["== Fig 11: thread start staggering at the smallest size ==",
             render_state_timeline(run.result.trace, width=72)]
    report("fig11_states", lines)
    assert spans[0, 1] < spans[-1, 0], \
        "thread 0 should finish before thread 7 starts (Fig. 11)"


def test_fig13_threads_mostly_parallel(benchmark):
    """At the largest sweep point, most of the run has many threads
    active simultaneously (Fig. 13: 'most of the time is spent running
    all threads')."""

    run = benchmark.pedantic(lambda: pi_run_cached(16 * PI_SWEEP[-1]),
                             rounds=1, iterations=1)
    spans = thread_activity_windows(run.result.trace)
    union = spans[:, 1].max() - spans[:, 0].min()
    common = spans[:, 1].min() - spans[:, 0].max()
    lines = ["== Fig 13: thread overlap at the largest size ==",
             render_state_timeline(run.result.trace, width=72),
             f"common active window: {common} of {union} cycles "
             f"({100 * common / union:.1f}%)"]
    report("fig13_states", lines)
    assert common > 0.4 * union


def test_pi_saturation_extrapolation(benchmark):
    """Paper §V-D closes by extrapolating to 15e9 iterations: with
    startup amortized the pipeline rate is the only limit."""

    big = benchmark.pedantic(lambda: pi_run_cached(16 * PI_SWEEP[-1]),
                             rounds=1, iterations=1)  # shared with Fig. 13
    small = pi_run_cached(PI_SWEEP[0])
    lines = [
        "== pi saturation (paper extrapolation to 15e9 iters) ==",
        f"{PI_SWEEP[0]:>9d} steps: {small.gflops:6.3f} GFLOP/s",
        f"{16 * PI_SWEEP[-1]:>9d} steps: {big.gflops:6.3f} GFLOP/s",
        "paper: 0.146 -> 36.84 GFLOP/s (with a much wider unrolled body)",
    ]
    report("pi_saturation", lines)
    assert big.gflops > 4 * small.gflops
