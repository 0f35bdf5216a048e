"""Figs. 8 & 9: load/compute phase structure of the tiled GEMM versions.

Fig. 8 (blocked): compute appears as spikes strictly *between* memory
phases — loads and compute alternate because compute depends on the
loaded block and both contend for the same local memories.

Fig. 9 (double buffered): the next block is prefetched *while* compute
runs on the current one — loads and compute coincide in time — except
for the final iteration, which is compute-only (segment D in the
paper's figure).
"""

import numpy as np

from repro.paraver import gflops_series, phase_overlap, render_series
from repro.profiling import EventKind

from _bench_utils import GEMM_DIM, gemm_run_cached, report


def _phases(run):
    return phase_overlap(run.result.trace)


def test_fig8_blocked_alternating_phases(benchmark):
    run = benchmark.pedantic(lambda: gemm_run_cached("blocked"),
                             rounds=1, iterations=1)
    phases = _phases(run)
    result = run.result
    flops = gflops_series(result.trace, result.clock_mhz)
    lines = [
        f"== Fig 8: blocked GEMM phase structure (DIM={GEMM_DIM}) ==",
        f"load-only windows:    {phases.load_windows}",
        f"compute-only windows: {phases.compute_windows}",
        f"overlap windows:      {phases.overlap_windows}",
        f"overlap fraction:     {phases.overlap_fraction:.3f} "
        "(paper: distinct phases, i.e. near zero within a thread)",
        "",
        render_series(flops, width=72, height=4, label="GFLOP/s over time"),
    ]
    report("fig8_blocked_phases", lines)
    assert phases.compute_windows + phases.overlap_windows > 0
    assert phases.load_windows + phases.overlap_windows > 0


def test_fig9_double_buffer_overlap(benchmark):
    run = benchmark.pedantic(lambda: gemm_run_cached("double_buffered"),
                             rounds=1, iterations=1)
    blocked = gemm_run_cached("blocked")
    dbuf_phases = _phases(run)
    blocked_phases = _phases(blocked)
    lines = [
        f"== Fig 9: double-buffered GEMM overlap (DIM={GEMM_DIM}) ==",
        f"blocked overlap fraction:          {blocked_phases.overlap_fraction:.3f}",
        f"double-buffered overlap fraction:  {dbuf_phases.overlap_fraction:.3f}",
        "(paper: prefetch runs concurrently with compute in Fig 9, "
        "not in Fig 8)",
        f"blocked cycles:         {blocked.cycles}",
        f"double-buffered cycles: {run.cycles}",
    ]
    report("fig9_double_buffer", lines)
    # the double-buffered version overlaps at least as much and is faster
    assert dbuf_phases.overlap_fraction >= blocked_phases.overlap_fraction
    assert run.cycles <= blocked.cycles


def test_fig9_final_iteration_compute_only(benchmark):
    """Segment D of Fig. 9: the last k-iteration prefetches nothing."""

    run = benchmark.pedantic(lambda: gemm_run_cached("double_buffered"),
                             rounds=1, iterations=1)
    result = run.result
    reads = result.trace.events[EventKind.MEM_READ_BYTES].sum(axis=1)
    flops = result.trace.events[EventKind.FLOPS].sum(axis=1)
    # over the trailing windows of the run, compute continues after the
    # last external read has been issued
    active = np.nonzero(flops > 0)[0]
    reading = np.nonzero(reads > 0)[0]
    assert active.max() >= reading.max()


def test_fig8_fig9_contrast_with_disabled_disambiguation(benchmark):
    """Ablation: double buffering only helps because the dependence
    analysis proves the ping-pong halves independent.  Forcing both
    versions through one local-memory conflict group (what a naive HLS
    would do) removes the gain."""

    from repro.apps import run_gemm
    from repro.hls import HLSOptions

    def run_merged():
        run = run_gemm("double_buffered", dim=GEMM_DIM)
        # merge all local groups post-hoc and re-simulate
        schedule = run.accelerator.schedule
        merged = {seg: 0 for seg in schedule.local_groups}
        schedule.local_groups = merged
        from repro.sim import Simulation, SimConfig
        import numpy as np
        sim = Simulation(run.accelerator,
                         SimConfig(thread_start_interval=50))
        C = np.zeros(GEMM_DIM * GEMM_DIM, dtype=np.float32)
        result = sim.run({"A": run.A, "B": run.B, "C": C, "DIM": GEMM_DIM})
        return result

    merged_result = benchmark.pedantic(run_merged, rounds=1, iterations=1)
    free_run = gemm_run_cached("double_buffered")
    lines = [
        "== ablation: ping-pong disambiguation ==",
        f"with disambiguation (separate port groups): {free_run.cycles} cycles",
        f"without (single conflict group):            {merged_result.cycles} cycles",
    ]
    report("ablation_disambiguation", lines)
    assert merged_result.cycles >= free_run.cycles
