"""Analysis of profiling traces: the quantities the paper reads off Paraver.

These helpers compute, programmatically, what the paper's figures show
visually:

* per-state time fractions (Fig. 6's 1.54 % Critical / 1.57 % Spinning);
* memory-bandwidth over time (Fig. 7/8/9's throughput panes);
* compute performance (GFLOP/s) over time and in aggregate (Figs. 8-13);
* load balance across hardware threads;
* phase detection for the blocked/double-buffered comparison: given the
  bandwidth and FLOP series, classify each sampling window as load-,
  compute-, mixed- or idle-phase and measure how much load time overlaps
  compute time (Fig. 8 shows near-zero overlap, Fig. 9 substantial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..profiling.config import EventKind, ThreadState
from ..profiling.recorder import RunTrace

__all__ = [
    "bandwidth_series_gbs", "gflops_series", "total_gflops",
    "state_fractions", "load_balance", "PhaseStats", "phase_overlap",
    "thread_activity_windows",
]


def _window_seconds(trace: RunTrace, clock_mhz: float) -> float:
    return trace.sampling_period / (clock_mhz * 1e6)


def bandwidth_series_gbs(trace: RunTrace, clock_mhz: float,
                         include_writes: bool = True) -> np.ndarray:
    """External-memory throughput per sampling window, in GB/s (all threads)."""

    reads = trace.events.get(EventKind.MEM_READ_BYTES)
    if reads is None:
        raise KeyError("trace has no memory-read events")
    total = reads.sum(axis=1).astype(float)
    if include_writes and EventKind.MEM_WRITE_BYTES in trace.events:
        total = total + trace.events[EventKind.MEM_WRITE_BYTES].sum(axis=1)
    return total / 1e9 / _window_seconds(trace, clock_mhz)


def gflops_series(trace: RunTrace, clock_mhz: float) -> np.ndarray:
    """Floating-point performance per sampling window, in GFLOP/s."""

    flops = trace.events.get(EventKind.FLOPS)
    if flops is None:
        raise KeyError("trace has no FLOP events")
    return flops.sum(axis=1) / 1e9 / _window_seconds(trace, clock_mhz)


def total_gflops(trace: RunTrace, clock_mhz: float) -> float:
    """Aggregate GFLOP/s over the whole run."""

    flops = trace.events.get(EventKind.FLOPS)
    if flops is None or trace.end_cycle == 0:
        return 0.0
    seconds = trace.end_cycle / (clock_mhz * 1e6)
    return float(flops.sum()) / 1e9 / seconds


def state_fractions(trace: RunTrace) -> dict[ThreadState, float]:
    """Fraction of total thread-time per state (what Fig. 6 quantifies)."""

    return trace.state_fractions()


def load_balance(trace: RunTrace) -> float:
    """Running-time balance: mean(running)/max(running) across threads.

    1.0 means perfectly balanced; small values indicate threads idled
    while others worked (the π case study's staggered starts push this
    down, Figs. 11-13).
    """

    totals = trace.state_totals()
    running = totals[:, ThreadState.RUNNING] + totals[:, ThreadState.CRITICAL]
    peak = int(running.max(initial=0))
    if peak == 0:
        return 1.0
    return float(np.mean(running)) / peak


@dataclass(frozen=True)
class PhaseStats:
    """Per-window phase classification summary."""

    load_windows: int
    compute_windows: int
    overlap_windows: int
    idle_windows: int

    @property
    def total(self) -> int:
        return (self.load_windows + self.compute_windows
                + self.overlap_windows + self.idle_windows)

    @property
    def overlap_fraction(self) -> float:
        """Share of active windows where loads and compute coincide.

        Near zero for the blocked GEMM's alternating phases (Fig. 8);
        substantially positive once double buffering prefetches during
        compute (Fig. 9).
        """

        active = self.total - self.idle_windows
        return self.overlap_windows / active if active else 0.0


def phase_overlap(trace: RunTrace, clock_mhz: float,
                  bw_threshold: float = 0.05,
                  flops_threshold: float = 0.05) -> PhaseStats:
    """Classify sampling windows into load/compute/overlap/idle phases.

    A window counts as *loading* when its external read bandwidth exceeds
    ``bw_threshold`` times the trace's peak, as *computing* when its FLOP
    rate exceeds ``flops_threshold`` times the peak, and as *overlapping*
    when both hold.

    Profiling configs may omit either counter (§IV-B.2's event selection
    is user-adjustable); a missing series classifies every window as
    not-loading / not-computing rather than raising.
    """

    read_series = trace.events.get(EventKind.MEM_READ_BYTES)
    flop_series = trace.events.get(EventKind.FLOPS)
    n_bins = read_series.shape[0] if read_series is not None \
        else flop_series.shape[0] if flop_series is not None \
        else max(1, -(-max(1, trace.end_cycle) // trace.sampling_period))
    reads = read_series.sum(axis=1) if read_series is not None \
        else np.zeros(n_bins)
    flops = flop_series.sum(axis=1) if flop_series is not None \
        else np.zeros(n_bins)
    peak_reads = reads.max() if reads.size else 0.0
    peak_flops = flops.max() if flops.size else 0.0
    loading = reads > bw_threshold * peak_reads if peak_reads else \
        np.zeros_like(reads, dtype=bool)
    computing = flops > flops_threshold * peak_flops if peak_flops else \
        np.zeros_like(flops, dtype=bool)
    overlap = loading & computing
    idle = ~(loading | computing)
    return PhaseStats(
        load_windows=int((loading & ~overlap).sum()),
        compute_windows=int((computing & ~overlap).sum()),
        overlap_windows=int(overlap.sum()),
        idle_windows=int(idle.sum()),
    )


def thread_activity_windows(trace: RunTrace) -> np.ndarray:
    """[threads, 2] array of (first, last) cycles each thread was non-idle.

    The π case study reads thread start/stop staggering straight off the
    state view (Figs. 11-13); this is the programmatic equivalent.
    """

    spans = np.zeros((trace.num_threads, 2), dtype=np.int64)
    for thread, cols in enumerate(trace.timeline):
        active = np.flatnonzero(cols.state != ThreadState.IDLE)
        if active.size:
            spans[thread] = (cols.start[active[0]], cols.end[active[-1]])
    return spans
