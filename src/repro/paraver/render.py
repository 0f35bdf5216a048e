"""ASCII rendering of traces — the repo's stand-in for Paraver screenshots.

:func:`render_state_timeline` draws the state view (Fig. 6/11-13 style):
one row per hardware thread, one character per time bucket, using the
paper's color legend as letters ('.' Idle, '#' Running — green in the
paper, 'C' Critical — blue, 's' Spinning — red).  The buckets come
from :func:`state_occupancy`, the one state rasterizer, which the HTML
report's Gantt uses too.

:func:`render_series` draws an event series (bandwidth, GFLOP/s) as a
fixed-height bar chart, the equivalent of the throughput panes in
Figs. 7-9.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..profiling.config import ThreadState
from ..profiling.recorder import RunTrace

__all__ = ["STATE_GLYPHS", "render_state_timeline", "render_series",
           "state_occupancy"]

STATE_GLYPHS = {
    ThreadState.IDLE: ".",
    ThreadState.RUNNING: "#",
    ThreadState.CRITICAL: "C",
    ThreadState.SPINNING: "s",
}


def _cycles_before(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``sum(max(0, edge - p) for p in points)`` for each edge."""

    points = np.sort(points)
    count = np.searchsorted(points, edges)
    prefix = np.concatenate(([0], np.cumsum(points)))
    return count * edges - prefix[count]


def state_occupancy(trace: RunTrace, thread: int, start: int, end: int,
                    buckets: int) -> np.ndarray:
    """[buckets, states] int64 cycles each state occupies per bucket.

    ``[start, end)`` splits into ``buckets`` integer buckets, bucket
    ``b`` covering ``[start + b*span//buckets, start + (b+1)*span//buckets)``
    (empty when there are more buckets than cycles).  An interval
    ``[lo, hi)`` puts ``|[lo, hi) ∩ bucket|`` cycles into its state's
    column; a state's cycles before cycle ``x`` are the ramp sum
    ``Σ max(0, x - lo) - max(0, x - hi)``, so each column is a
    difference of ramp sums at the bucket edges.
    """

    cols = trace.timeline[thread]
    edges = start + np.arange(buckets + 1, dtype=np.int64) \
        * (end - start) // buckets
    occupancy = np.zeros((buckets, len(ThreadState)), dtype=np.int64)
    for state in np.unique(cols.state).tolist():
        mine = cols.state == state
        before = (_cycles_before(cols.start[mine], edges)
                  - _cycles_before(cols.end[mine], edges))
        occupancy[:, state] = np.diff(before)
    return occupancy


def render_state_timeline(trace: RunTrace, width: int = 100,
                          start: int = 0, end: Optional[int] = None) -> str:
    """Render per-thread states over [start, end) into ``width`` buckets.

    Each bucket shows the state that occupied most of its cycles (the
    lowest state id on a tie, Idle for an empty bucket; see
    :func:`state_occupancy`); zooming (the paper zooms into Fig. 6 to
    show thread 7 spinning on thread 6's critical section) is done by
    narrowing [start, end).
    """

    if end is None:
        end = trace.end_cycle
    if end <= start:
        raise ValueError(f"empty render window [{start}, {end})")
    glyphs = np.array([STATE_GLYPHS[state] for state in ThreadState])
    lines = []
    for thread in range(trace.num_threads):
        occupancy = state_occupancy(trace, thread, start, end, width)
        # Idle is state 0, so argmax also maps an empty bucket to it
        lines.append(f"t{thread}: "
                     + "".join(glyphs[occupancy.argmax(axis=1)]))
    legend = "   [" + " ".join(f"{g}={s.name.title()}"
                               for s, g in STATE_GLYPHS.items()) + "]"
    return "\n".join(lines) + "\n" + legend


def render_series(values: Sequence[float], width: int = 100, height: int = 8,
                  label: str = "") -> str:
    """Render a numeric series as an ASCII bar chart."""

    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return f"{label}(empty)"
    if data.size > width:
        # average down to `width` buckets
        edges = np.linspace(0, data.size, width + 1).astype(int)
        data = np.array([data[a:b].mean() if b > a else 0.0
                         for a, b in zip(edges[:-1], edges[1:])])
    peak = data.max()
    if peak <= 0:
        peak = 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = peak * (level - 0.5) / height
        rows.append("".join("█" if v >= threshold else " " for v in data))
    axis = "─" * len(data)
    head = f"{label} (peak {peak:.3g})" if label else f"peak {peak:.3g}"
    return head + "\n" + "\n".join(rows) + "\n" + axis
