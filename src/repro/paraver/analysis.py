"""Analysis of profiling traces: the per-window series the paper reads
off Paraver.

These helpers compute, programmatically, what the paper's figures show
visually:

* memory-bandwidth over time (Fig. 7/8/9's throughput panes);
* compute performance (GFLOP/s) over time (Figs. 8-13);
* phase detection for the blocked/double-buffered comparison: given the
  bandwidth and FLOP series, classify each sampling window as load-,
  compute-, mixed- or idle-phase and measure how much load time overlaps
  compute time (Fig. 8 shows near-zero overlap, Fig. 9 substantial);
* when each thread was active, and how much those spans coincide.

Whole-run figures have one definition each elsewhere: state fractions
are :meth:`RunTrace.state_fractions`, average GB/s and GFLOP/s are
:class:`~repro.sim.executor.SimResult`'s, and load balance is the
report's :class:`~repro.report.model.EfficiencyHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..profiling.config import EventKind, ThreadState
from ..profiling.recorder import RunTrace

__all__ = [
    "bandwidth_series_gbs", "gflops_series", "PhaseStats", "phase_overlap",
    "thread_activity_windows", "temporal_overlap",
]

#: a window is *loading* when its read bytes exceed this share of the
#: trace's busiest window
BW_THRESHOLD = 0.05
#: a window is *computing* when its FLOPs exceed this share of the
#: trace's busiest window
FLOPS_THRESHOLD = 0.05


def _window_seconds(trace: RunTrace, clock_mhz: float) -> float:
    return trace.sampling_period / (clock_mhz * 1e6)


def bandwidth_series_gbs(trace: RunTrace, clock_mhz: float) -> np.ndarray:
    """External-memory throughput (reads + writes) per sampling window,
    in GB/s (all threads)."""

    reads = trace.events.get(EventKind.MEM_READ_BYTES)
    if reads is None:
        raise KeyError("trace has no memory-read events")
    total = reads.sum(axis=1).astype(float)
    if EventKind.MEM_WRITE_BYTES in trace.events:
        total = total + trace.events[EventKind.MEM_WRITE_BYTES].sum(axis=1)
    return total / 1e9 / _window_seconds(trace, clock_mhz)


def gflops_series(trace: RunTrace, clock_mhz: float) -> np.ndarray:
    """Floating-point performance per sampling window, in GFLOP/s."""

    flops = trace.events.get(EventKind.FLOPS)
    if flops is None:
        raise KeyError("trace has no FLOP events")
    return flops.sum(axis=1) / 1e9 / _window_seconds(trace, clock_mhz)


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


def phase_overlap(trace: RunTrace) -> PhaseStats:
    """Classify sampling windows into load/compute/overlap/idle phases.

    A window counts as *loading* when its external read bytes exceed
    :data:`BW_THRESHOLD` times the trace's peak, as *computing* when its
    FLOPs exceed :data:`FLOPS_THRESHOLD` times the peak, and as
    *overlapping* when both hold.  Both counters must be in the trace
    (:meth:`RunTrace.event_series` raises otherwise); the report skips
    phases when the profiling config left either out (§IV-B.2).
    """

    reads = trace.event_series(EventKind.MEM_READ_BYTES).sum(axis=1)
    flops = trace.event_series(EventKind.FLOPS).sum(axis=1)
    # counters are never negative, so an all-zero series loads nothing
    loading = reads > BW_THRESHOLD * reads.max(initial=0.0)
    computing = flops > FLOPS_THRESHOLD * flops.max(initial=0.0)
    overlap = loading & computing
    return PhaseStats(
        load_windows=int((loading & ~overlap).sum()),
        compute_windows=int((computing & ~overlap).sum()),
        overlap_windows=int(overlap.sum()),
        idle_windows=int((~(loading | computing)).sum()),
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


def temporal_overlap(trace: RunTrace) -> float:
    """Common active window of all threads over their union, in [0, 1].

    Even equal-duration threads are imbalanced when staggered starts
    keep them from overlapping (the π case study's startup-overhead
    signature, Figs. 11-13).  Threads that never left IDLE report a
    (0, 0) span and must not drag the union back to cycle 0; disjoint
    activity makes the common window negative, so the ratio is clamped
    to [0, 1].  With no active thread the run counts as overlapping.
    """

    spans = thread_activity_windows(trace)
    active = spans[spans[:, 1] > spans[:, 0]]
    if not active.size:
        return 1.0
    union = active[:, 1].max() - active[:, 0].min()
    common = active[:, 1].min() - active[:, 0].max()
    return float(min(1.0, max(0.0, common / union)) if union > 0 else 1.0)
