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
from numpy.lib.stride_tricks import sliding_window_view

from ..profiling.config import ThreadState
from ..profiling.recorder import RunTrace

__all__ = ["STATE_GLYPHS", "bucket_means", "render_state_timeline",
           "render_series", "state_occupancy"]

STATE_GLYPHS = {
    ThreadState.IDLE: ".",
    ThreadState.RUNNING: "#",
    ThreadState.CRITICAL: "C",
    ThreadState.SPINNING: "s",
}


def state_occupancy(trace: RunTrace, thread: int, start: int, end: int,
                    buckets: int) -> np.ndarray:
    """[buckets, states] int64 cycles each state occupies per bucket.

    ``[start, end)`` splits into ``buckets`` integer buckets, bucket
    ``b`` covering ``[start + b*span//buckets, start + (b+1)*span//buckets)``
    (empty when there are more buckets than cycles).  An interval
    ``[lo, hi)`` puts ``|[lo, hi) ∩ bucket|`` cycles into its state's
    column.  The thread's intervals are sorted and do not overlap (the
    :attr:`RunTrace.timeline` tiling), so before each bucket edge lie
    a prefix of whole intervals and at most one partial one: a
    ``searchsorted`` of the edges into the interval ends finds the
    prefixes, one ``bincount`` sums the whole intervals per (edge
    segment, state), a cumulative sum over the segments gives each
    state's cycles before every edge, and the straddling interval adds
    its part.  The float64 bincount is exact while every total stays
    below 2**53 cycles.  Overlapping intervals raise ``ValueError``.
    """

    cols = trace.timeline[thread]
    if (cols.start[1:] < cols.end[:-1]).any():
        raise ValueError(f"thread {thread}'s state intervals overlap")
    states, count = len(ThreadState), cols.end.size
    edges = start + np.arange(buckets + 1, dtype=np.int64) \
        * (end - start) // buckets
    # intervals [0, done[k]) end at or before edges[k]
    done = np.searchsorted(cols.end, edges, side="right")
    # an interval i in [done[k-1], done[k]) is whole before edges[k:]
    # and counts into bin k * states + state[i]
    index = np.repeat(np.arange(0, (buckets + 2) * states, states),
                      np.diff(done, prepend=0, append=count))
    index += cols.state
    whole = np.bincount(index, weights=np.subtract(cols.end, cols.start,
                                                   dtype=float),
                        minlength=(buckets + 2) * states)
    before = whole.reshape(buckets + 2, states)[:-1].astype(np.int64) \
        .cumsum(axis=0)
    # the interval done[k] straddles edges[k] when it starts before it
    edge = np.flatnonzero(done < count)
    first = done[edge]
    part = edges[edge] - cols.start[first]
    inside = part > 0
    before[edge[inside], cols.state[first[inside]]] += part[inside]
    return np.diff(before, axis=0)


def bucket_means(values: np.ndarray, buckets: int) -> np.ndarray:
    """``values`` averaged down to ``buckets`` points (as is when it has
    no more).

    Bucket ``b`` is the mean of ``values[edges[b]:edges[b + 1]]``, the
    edges ``np.linspace(0, values.size, buckets + 1)`` truncated, and
    0.0 when that slice is empty.  The slices of each width are gathered
    into one 2-D block whose row means equal each slice's own
    ``.mean()`` bit for bit: numpy sums every contiguous row pairwise,
    as it sums a slice.
    """

    if values.size <= buckets:
        return values
    edges = np.linspace(0, values.size, buckets + 1).astype(int)
    firsts, widths = edges[:-1], np.diff(edges)
    means = np.zeros(buckets)
    for width in range(max(1, int(widths.min())), int(widths.max()) + 1):
        rows = widths == width
        if rows.any():
            block = sliding_window_view(values, width)[firsts[rows]]
            means[rows] = block.mean(axis=1)
    return means


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
    data = bucket_means(data, width)
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
