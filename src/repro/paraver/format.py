"""Paraver trace file writer (.prv / .pcf / .row).

Produces the three files a Paraver trace consists of:

* ``.prv`` — the trace body: a header line plus one record per line.
  We emit *state* records (``1:cpu:appl:task:thread:begin:end:state``)
  and *event* records (``2:cpu:appl:task:thread:time:type:value...``),
  the two record classes the paper supports (§IV-A: communication
  records are future work there and here).
* ``.pcf`` — the semantic configuration: state names/colors matching
  the paper's Fig. 2/6 palette (Running green, Spinning red, Critical
  blue, Idle black) and the event-type catalogue.
* ``.row`` — row labels (one per hardware thread).

Each hardware thread of the accelerator maps to one Paraver
``(appl=1, task=t+1, thread=1)`` object, i.e. the thread-level actors
of §IV-A.  Times are in cycles; Paraver itself has no notion of cycles,
so — exactly as the paper notes in §V-A — the "microseconds" shown in
Paraver are in fact cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import telemetry
from ..profiling.config import EventKind, ThreadState
from ..profiling.recorder import RunTrace

__all__ = ["ATTR_EVENT_BASE", "ATTR_EVENT_LIMIT", "ATTR_EVENT_STRIDE",
           "EVENT_TYPE_IDS",
           "STATE_IDS", "ParaverFiles", "write_trace"]


#: Paraver event type ids for the profiling unit's counters.
EVENT_TYPE_IDS: dict[EventKind, int] = {
    EventKind.STALLS: 42000001,
    EventKind.FLOPS: 42000002,
    EventKind.INTOPS: 42000003,
    EventKind.MEM_READ_BYTES: 42000004,
    EventKind.MEM_WRITE_BYTES: 42000005,
    # cycle-accounting counters (SimConfig.attribution), binned like the
    # hardware counters so Paraver timelines can stack them over time
    EventKind.ATTR_USEFUL: 42000006,
    EventKind.ATTR_II_LIMIT: 42000007,
    EventKind.ATTR_LOCAL_PORT_CONFLICT: 42000008,
    EventKind.ATTR_DRAM_LATENCY: 42000009,
    EventKind.ATTR_DRAM_ARBITRATION: 42000010,
    EventKind.ATTR_DRAM_ROW_MISS: 42000011,
    EventKind.ATTR_SYNC_WAIT: 42000012,
    EventKind.ATTR_DRAIN: 42000013,
    EventKind.ATTR_CONTROL: 42000014,
}

#: base/stride of the per-region cycle-accounting event family: region
#: ``i`` (in the order of the ``# REPRO_ATTR_REGION`` pcf comments) puts
#: its :class:`~repro.profiling.attribution.Cause` slot ``s`` total at
#: type id ``ATTR_EVENT_BASE + i * ATTR_EVENT_STRIDE + s``, emitted once
#: per thread at the end of the trace.
ATTR_EVENT_BASE = 43000000
ATTR_EVENT_STRIDE = 16
#: exclusive upper bound of the family (62 500 regions); types at or
#: above it are foreign and must surface as unknown, not as attribution
ATTR_EVENT_LIMIT = ATTR_EVENT_BASE + 1_000_000

#: Paraver state values (the 2-bit hardware encodings of §IV-B.1).
STATE_IDS: dict[ThreadState, int] = {state: int(state) for state in ThreadState}

_STATE_NAMES = {
    ThreadState.IDLE: "Idle",
    ThreadState.RUNNING: "Running",
    ThreadState.CRITICAL: "Critical",
    ThreadState.SPINNING: "Spinning",
}

# RGB colors as in the paper's figures: black, green, blue, red.
_STATE_COLORS = {
    ThreadState.IDLE: (0, 0, 0),
    ThreadState.RUNNING: (0, 160, 0),
    ThreadState.CRITICAL: (0, 0, 255),
    ThreadState.SPINNING: (255, 0, 0),
}


@dataclass(frozen=True)
class ParaverFiles:
    """Paths of one written trace."""

    prv: str
    pcf: str
    row: str


def write_trace(trace: RunTrace, path: str,
                clock_mhz: Optional[float] = None) -> ParaverFiles:
    """Write ``trace`` as ``path``.prv/.pcf/.row; returns the file paths.

    ``clock_mhz``, when given, is stashed
    as a ``# REPRO_CLOCK_MHZ`` comment in the ``.pcf`` so trace-native
    analysis (``repro analyze``) can convert cycles to seconds without
    re-running the compiler.
    """

    base, ext = os.path.splitext(path)
    if ext.lower() == ".prv":
        path_prv = path
    else:
        base = path
        path_prv = base + ".prv"
    path_pcf = base + ".pcf"
    path_row = base + ".row"

    with telemetry.span("paraver", category="paraver", prv=path_prv):
        records = _write_prv(trace, path_prv)
        _write_pcf(trace, path_pcf, clock_mhz)
        _write_row(trace, path_row)
    telemetry.add("paraver.records", records)
    telemetry.add("paraver.bytes",
                  sum(os.path.getsize(p)
                      for p in (path_prv, path_pcf, path_row)))
    return ParaverFiles(path_prv, path_pcf, path_row)


def _header(trace: RunTrace) -> str:
    threads = trace.num_threads
    # one node with `threads` cpus; one application with `threads` tasks
    # of one thread each, all on node 1
    tasks = ",".join("1:1" for _ in range(threads))
    return (f"#Paraver (01/01/2020 at 00:00):{trace.end_cycle}"
            f":1({threads}):1:{threads}({tasks})")


#: records per formatted write of the ``.prv`` body
BLOCK_RECORDS = 8192

#: one state or event record: ``kind:cpu:appl:task:thread:a:b:c``
_RECORD = "%d:%d:1:%d:1:%d:%d:%d\n"


def _write_prv(trace: RunTrace, path: str) -> int:
    kind, thread, a, b, c = _record_columns(trace)
    # the columns hold the record classes in their tie order (states,
    # events, attribution totals): a stable sort on time is the
    # format's (time, class, gathering order)
    perm = np.argsort(a, kind="stable")
    with open(path, "w") as out:
        out.write(_header(trace) + "\n")
        out.write("c:accelerator\n")
        for lo in range(0, perm.shape[0], BLOCK_RECORDS):
            rows = perm[lo:lo + BLOCK_RECORDS]
            th = thread[rows]
            block = np.column_stack((kind[rows], th, th, a[rows],
                                     b[rows], c[rows]))
            out.write(_RECORD * rows.shape[0]
                      % tuple(block.ravel().tolist()))
    return perm.shape[0]


def _record_columns(trace: RunTrace):
    """(kind, thread, a, b, c) int64 columns of every ``.prv`` record.

    A record reads ``kind:thread:1:thread:1:a:b:c``; its time is ``a``.
    """

    parts = []  # per source: (kind, thread, a, b, c) columns

    def add(kind: int, thread, a, b, c) -> None:
        parts.append(np.broadcast_arrays(kind, thread, a, b, c))

    for t, cols in enumerate(trace.timeline):
        add(1, t + 1, cols.start, cols.end, cols.state)
    period = trace.sampling_period
    for kind, series in trace.events.items():
        bins, threads = series.shape
        values = series.astype(np.int64).ravel()  # truncates like int()
        keep = np.flatnonzero(values)
        times = np.minimum(np.arange(1, bins + 1, dtype=np.int64) * period,
                           trace.end_cycle)
        add(2, keep % threads + 1, times[keep // threads],
            EVENT_TYPE_IDS[kind], values[keep])
    if trace.attribution is not None:
        # per-(region, thread, cause) table totals, one event each at the
        # end of the trace; the region index <-> key/label map travels in
        # the .pcf (# REPRO_ATTR_REGION comments)
        index_of = {key: i for i, key in
                    enumerate(_attr_region_keys(trace.attribution))}
        rows = [(t + 1, ATTR_EVENT_BASE + index_of[region] * ATTR_EVENT_STRIDE
                 + slot, value)
                for (region, t), cell in sorted(
                    trace.attribution.cells.items(),
                    key=lambda item: (index_of[item[0][0]], item[0][1]))
                for slot, value in enumerate(cell) if value != 0]
        if rows:
            cols = np.array(rows, dtype=np.int64).reshape(-1, 3)
            add(2, cols[:, 0], trace.end_cycle, cols[:, 1], cols[:, 2])

    empty = np.empty(0, dtype=np.int64)
    return tuple(np.concatenate([empty] + [part[field] for part in parts])
                 for field in range(5))


def _attr_region_keys(table) -> list[int]:
    """Stable region-key order shared by the .prv records and the .pcf map."""

    keys = set(table.regions)
    keys.update(region for region, _thread in table.cells)
    return sorted(keys)


def _write_pcf(trace: RunTrace, path: str,
               clock_mhz: Optional[float] = None) -> None:
    with open(path, "w") as out:
        # Paraver has no field for these; it ignores comment lines, and
        # repro.paraver.metadata.parse_pcf reads them back.
        out.write(f"# REPRO_SAMPLING_PERIOD {trace.sampling_period}\n")
        if clock_mhz is not None:
            out.write(f"# REPRO_CLOCK_MHZ {clock_mhz:g}\n")
        if trace.attribution is not None:
            for i, key in enumerate(_attr_region_keys(trace.attribution)):
                label = trace.attribution.regions.get(key, f"region {key}")
                label = " ".join(label.split()) or "?"
                out.write(f"# REPRO_ATTR_REGION {i} {key} {label}\n")
        out.write("DEFAULT_OPTIONS\n\nLEVEL               THREAD\n"
                  "UNITS               NANOSEC\n\n")
        out.write("STATES\n")
        for state in ThreadState:
            out.write(f"{STATE_IDS[state]}    {_STATE_NAMES[state]}\n")
        out.write("\nSTATES_COLOR\n")
        for state in ThreadState:
            r, g, b = _STATE_COLORS[state]
            out.write(f"{STATE_IDS[state]}    {{{r},{g},{b}}}\n")
        out.write("\n")
        for kind, type_id in EVENT_TYPE_IDS.items():
            if kind not in trace.events:
                continue
            out.write("EVENT_TYPE\n")
            out.write(f"0    {type_id}    {_event_label(kind)}\n")
            out.write("\n")
        if trace.attribution is not None:
            from ..profiling.attribution import Cause
            for i, key in enumerate(_attr_region_keys(trace.attribution)):
                label = trace.attribution.regions.get(key, f"region {key}")
                label = " ".join(label.split()) or "?"
                base = ATTR_EVENT_BASE + i * ATTR_EVENT_STRIDE
                out.write("EVENT_TYPE\n")
                for cause in Cause:
                    out.write(f"0    {base + int(cause)}    "
                              f"Cycle accounting [{label}]: "
                              f"{cause.name.lower()}\n")
                out.write("\n")


def _event_label(kind: EventKind) -> str:
    return {
        EventKind.STALLS: "Pipeline stalls (cycles)",
        EventKind.FLOPS: "Floating-point operations",
        EventKind.INTOPS: "Integer operations",
        EventKind.MEM_READ_BYTES: "External memory bytes read",
        EventKind.MEM_WRITE_BYTES: "External memory bytes written",
        EventKind.ATTR_USEFUL: "Cycle accounting: useful (cycles)",
        EventKind.ATTR_II_LIMIT: "Cycle accounting: II limit (cycles)",
        EventKind.ATTR_LOCAL_PORT_CONFLICT:
            "Cycle accounting: local port conflict (cycles)",
        EventKind.ATTR_DRAM_LATENCY:
            "Cycle accounting: DRAM latency (cycles)",
        EventKind.ATTR_DRAM_ARBITRATION:
            "Cycle accounting: DRAM arbitration (cycles)",
        EventKind.ATTR_DRAM_ROW_MISS:
            "Cycle accounting: DRAM row miss (cycles)",
        EventKind.ATTR_SYNC_WAIT: "Cycle accounting: sync wait (cycles)",
        EventKind.ATTR_DRAIN: "Cycle accounting: pipeline drain (cycles)",
        EventKind.ATTR_CONTROL: "Cycle accounting: control (cycles)",
    }[kind]


def _write_row(trace: RunTrace, path: str) -> None:
    with open(path, "w") as out:
        threads = trace.num_threads
        out.write(f"LEVEL CPU SIZE {threads}\n")
        for t in range(threads):
            out.write(f"HW thread {t}\n")
        out.write(f"\nLEVEL NODE SIZE 1\nfpga-0\n")
        out.write(f"\nLEVEL THREAD SIZE {threads}\n")
        for t in range(threads):
            out.write(f"THREAD 1.{t + 1}.1\n")
