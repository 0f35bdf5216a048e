"""Fig. 6: Paraver state view of the naive GEMM.

Paper: threads are mostly Running; 1.54 % of time is spent inside
critical sections and 1.57 % spinning on the lock, and the zoomed view
shows one thread spinning while another sits in the critical section.
"""

from repro.paraver import render_state_timeline, write_trace
from repro.profiling import ThreadState

from _bench_utils import GEMM_DIM, gemm_run_cached, report


def test_fig6_state_fractions(benchmark):
    run = benchmark.pedantic(lambda: gemm_run_cached("naive"),
                             rounds=1, iterations=1)
    fractions = run.result.trace.state_fractions()
    crit = 100 * fractions[ThreadState.CRITICAL]
    spin = 100 * fractions[ThreadState.SPINNING]
    running = 100 * fractions[ThreadState.RUNNING]
    lines = [
        f"== Fig 6: naive GEMM state fractions (DIM={GEMM_DIM}) ==",
        f"Running  {running:6.2f}%",
        f"Critical {crit:6.2f}%   (paper: 1.54%)",
        f"Spinning {spin:6.2f}%   (paper: 1.57%)",
        f"Idle     {100 * fractions[ThreadState.IDLE]:6.2f}%",
    ]
    report("fig6_state_fractions", lines)

    # shape: threads mostly run; sync states exist but are small
    assert running > 80.0
    assert 0.05 < crit < 5.0
    assert 0.05 < spin < 5.0


def test_fig6_zoom_shows_lock_handoff(benchmark):
    """The zoomed pane: some thread spins exactly while another thread
    holds the critical section."""

    run = benchmark.pedantic(lambda: gemm_run_cached("naive"),
                             rounds=1, iterations=1)
    trace = run.result.trace
    # find a spin interval that intersects another thread's critical
    criticals = [[iv for iv in trace.states[t]
                  if iv.state is ThreadState.CRITICAL]
                 for t in range(trace.num_threads)]
    interval = None
    handoffs = 0
    for thread in range(trace.num_threads):
        for candidate in trace.states[thread]:
            if candidate.state is not ThreadState.SPINNING:
                continue
            for other in range(trace.num_threads):
                if other == thread:
                    continue
                if any(iv.start < candidate.end and candidate.start < iv.end
                       for iv in criticals[other]):
                    handoffs += 1
                    interval = candidate
                    break
            if interval is not None:
                break
        if interval is not None:
            break
    assert handoffs > 0, "no spin interval overlapped another's critical"

    zoom = render_state_timeline(trace, width=72,
                                 start=max(0, interval.start - 60),
                                 end=interval.end + 120)
    lines = ["== Fig 6 (zoom): lock hand-off between threads ==", zoom]
    report("fig6_zoom", lines)
    assert "s" in zoom and "C" in zoom


def test_fig6_trace_file(benchmark, tmp_path):
    """The state view must exist as an actual Paraver trace."""

    run = gemm_run_cached("naive")
    files = benchmark.pedantic(
        lambda: write_trace(run.result.trace, str(tmp_path / "fig6")),
        rounds=1, iterations=1)
    from repro.paraver import parse_prv, STATE_IDS
    parsed = parse_prv(files.prv)
    durations = parsed.state_durations()
    assert durations[STATE_IDS[ThreadState.SPINNING]] > 0
    assert durations[STATE_IDS[ThreadState.CRITICAL]] > 0
