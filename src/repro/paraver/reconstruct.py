"""Reconstruct a full :class:`RunTrace` from a saved Paraver trace.

The inverse of :mod:`repro.paraver.format`: where the writer flattens
the recorder's in-memory :class:`~repro.profiling.recorder.RunTrace`
into ``.prv`` records, this module folds parsed records back into the
same structure — per-thread state columns tiling ``[0, end_cycle]``
and ``[bins, threads]`` event arrays — so *every* metric in
:mod:`repro.paraver.analysis` and the bottleneck classifier in
:mod:`repro.analysis.bottlenecks` runs on a trace file exactly as it
would on a live simulation result.  This is what lets the paper's
workflow — save a trace, study it later, compare five saved versions
side by side (§V-C/§VI) — work without re-running the simulator.

Two things the ``.prv`` body does not carry are recovered separately:

* the **sampling period** comes from the ``.pcf`` metadata our writer
  stashes, or failing that from the cadence of the event records (their
  timestamps are multiples of the period, so the GCD of the unclamped
  flush times recovers it);
* the **accelerator clock** comes from the ``.pcf`` metadata, an
  explicit argument, or the board default (140 MHz).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from ..profiling.attribution import AttributionTable, N_SLOTS
from ..profiling.config import EventKind, ProfilingConfig, ThreadState
from ..profiling.recorder import RunTrace, StateColumns
from ..sim.executor import SimResult
from .format import (
    ATTR_EVENT_BASE, ATTR_EVENT_LIMIT, ATTR_EVENT_STRIDE, EVENT_TYPE_IDS,
)
from .metadata import PcfInfo, RowInfo, companion_paths, parse_pcf, parse_row
from .parser import (
    EVENT, STATE, ParsedTrace, PrvBlock, PrvHeader, stream_prv,
)

__all__ = ["ReconstructedRun", "reconstruct_trace", "reconstruct_run",
           "recover_sampling_period"]

#: inverse of the writer's event-type table
_EVENT_KINDS = {type_id: kind for kind, type_id in EVENT_TYPE_IDS.items()}
_KNOWN_TYPES = np.array(sorted(_EVENT_KINDS))
_NO_STATES = StateColumns(*np.zeros((3, 0), dtype=np.int64))

_DEFAULT_CLOCK_MHZ = 140.0


@dataclass
class ReconstructedRun:
    """A saved trace rebuilt into simulator-equivalent objects.

    ``result`` is a genuine :class:`~repro.sim.executor.SimResult`
    (buffers empty, DRAM geometry counters zero — the trace does not
    record them), so ``diagnose(run.result)`` and every ``SimResult``
    consumer work unchanged.
    """

    result: SimResult
    source: str
    #: where the clock came from: "explicit" | "pcf" | "default"
    clock_source: str
    #: where the period came from: "explicit" | "pcf" | "cadence" | "default"
    period_source: str
    thread_names: list[str] = field(default_factory=list)
    #: event type ids present in the .prv but unknown to this toolchain,
    #: mapped to their record counts
    unknown_event_types: dict[int, int] = field(default_factory=dict)
    pcf: Optional[PcfInfo] = None
    row: Optional[RowInfo] = None

    @property
    def trace(self) -> RunTrace:
        return self.result.trace


def _blocks(source: Union[str, ParsedTrace]
            ) -> tuple[PrvHeader, Iterator[PrvBlock]]:
    """The header and the record blocks of a ``.prv`` path (streamed)
    or of an in-memory :class:`ParsedTrace` (one block)."""

    if isinstance(source, str):
        records = stream_prv(source)
        return next(records), records
    return (PrvHeader(source.end_time, source.num_tasks),
            iter([source.records]))


def recover_sampling_period(
        parsed: Union[str, ParsedTrace]) -> Optional[int]:
    """Infer the sampling period from event-record cadence.

    The writer stamps each counter flush at its window's *end*,
    ``(bin + 1) * period`` (clamped to the trace end), so every
    unclamped flush time is a positive multiple of the period and their
    GCD recovers it.  Returns ``None`` when the trace has no usable
    event records (the cadence is then unknowable).

    ``parsed`` may also be a ``.prv`` path, in which case the file is
    streamed block by block.
    """

    header, blocks = _blocks(parsed)
    # an event exactly at end_time is unclamped only if it is also the
    # window boundary; including it can only leave the GCD unchanged or
    # wrong, so prefer interior times and fall back to the end time.
    interior = positive = 0
    for block in blocks:
        times = block.time[(block.kind == EVENT) & (block.time > 0)]
        if times.size:
            positive = np.gcd(positive, np.gcd.reduce(times))
            inside = np.unique(times[times < header.end_time])
            if inside.size:
                interior = np.gcd(interior, np.gcd.reduce(inside))
    return int(interior or positive) or None


def _add_intervals(out: list[StateColumns], state: np.ndarray,
                   start: np.ndarray, end: np.ndarray, cursor: int) -> int:
    """Append one thread's next intervals, sorted by (start, end), to
    ``out``, padding every gap after ``cursor`` (the furthest end
    reached so far) with IDLE; returns the new cursor."""

    reach = np.maximum(np.maximum.accumulate(end), cursor)
    before = np.empty_like(start)
    before[0] = cursor
    before[1:] = reach[:-1]
    gap = start > before
    # interval i lands after the gaps up to and including its own
    at = np.arange(start.size) + np.cumsum(gap)
    size = start.size + int(np.count_nonzero(gap))
    ids = np.full(size, int(ThreadState.IDLE), dtype=np.int64)
    begins = np.empty(size, dtype=np.int64)
    ends = np.empty(size, dtype=np.int64)
    ids[at], begins[at], ends[at] = state, start, end
    begins[at[gap] - 1], ends[at[gap] - 1] = before[gap], start[gap]
    out.append(StateColumns(begins, ends, ids))
    return int(reach[-1])


class _OutOfOrder(Exception):
    """A thread's state records arrived out of (start, end) order
    across blocks."""


def _fold(header: PrvHeader, blocks: Iterator[PrvBlock], period: int,
          pcf: Optional[PcfInfo]
          ) -> tuple[RunTrace, dict[int, int]]:
    """Fold record blocks into a :class:`RunTrace` one block at a time;
    also returns the unknown event types with their record counts.

    Raises :class:`_OutOfOrder` when a block's states of a thread sort
    before states of an earlier block.
    """

    end_cycle, num_threads = header.end_time, header.num_tasks
    pieces: list[list[StateColumns]] = [[_NO_STATES]
                                        for _ in range(num_threads)]
    # per thread: the furthest end reached, and the last (start, end)
    cursor = [0] * num_threads
    last = [(-np.inf, -np.inf)] * num_threads
    # events: flush times map back to bins; the final window absorbs
    # clamped stamps exactly as ProfilingRecorder.finalize did
    n_bins = max(1, -(-max(1, end_cycle) // period))
    events: dict[EventKind, np.ndarray] = {}
    unknown: dict[int, int] = {}
    attribution: Optional[AttributionTable] = None
    for block in blocks:
        # tasks are 1-based in the .prv, threads 0-based here
        thread = block.task - 1
        on_thread = (thread >= 0) & (thread < num_threads)
        rows = (block.kind == STATE) & on_thread
        for t in np.unique(thread[rows]).tolist():
            mine = rows & (thread == t)
            start, end = block.time[mine], block.end[mine]
            order = np.lexsort((end, start))  # stable: file order on ties
            start, end = start[order], end[order]
            if (start[0], end[0]) < last[t]:
                raise _OutOfOrder
            last[t] = (start[-1], end[-1])
            cursor[t] = _add_intervals(pieces[t], block.value[mine][order],
                                       start, end, cursor[t])

        event = block.kind == EVENT
        if not event.any():
            continue
        thread, on_thread = thread[event], on_thread[event]
        type_, time, value = (block.type[event], block.time[event],
                              block.value[event])
        types, first, of_type, counts = np.unique(
            type_, return_index=True, return_inverse=True,
            return_counts=True)
        known = np.isin(types, _KNOWN_TYPES)
        attr = (types >= ATTR_EVENT_BASE) & (types < ATTR_EVENT_LIMIT)
        attr &= (types - ATTR_EVENT_BASE) % ATTR_EVENT_STRIDE < N_SLOTS
        # each type in order of first appearance, as a record-by-record
        # fold would meet it
        for u in np.argsort(first, kind="stable"):
            type_id = int(types[u])
            if attr[u]:
                continue
            if not known[u]:
                unknown[type_id] = unknown.get(type_id, 0) + int(counts[u])
                continue
            kind = _EVENT_KINDS[type_id]
            series = events.get(kind)
            if series is None:
                series = events[kind] = np.zeros((n_bins, num_threads))
            rows = (of_type == u) & on_thread
            at = time[rows]
            bins = at // period - ((at > 0) & (at % period == 0))
            np.add.at(series, (np.clip(bins, 0, n_bins - 1), thread[rows]),
                      value[rows].astype(np.float64))
        if attr.any():
            if attribution is None:
                attribution = AttributionTable(num_threads)
                if pcf is not None:
                    attribution.regions.update(
                        {key: label
                         for key, label in pcf.attr_regions.values()})
            _fold_attribution(attribution, pcf, num_threads, type_, thread,
                              value, attr[of_type] & on_thread)

    for t, reach in enumerate(cursor):
        if reach < end_cycle:
            pieces[t].append(StateColumns(*np.array(
                [[reach], [end_cycle], [ThreadState.IDLE]], dtype=np.int64)))
    timeline = [StateColumns(*map(np.concatenate, zip(*thread)))
                for thread in pieces]
    trace = RunTrace(num_threads, end_cycle, period, timeline, events,
                     attribution=attribution)
    return trace, unknown


def reconstruct_trace(parsed: Union[str, ParsedTrace],
                      sampling_period: Optional[int] = None,
                      pcf: Optional[PcfInfo] = None
                      ) -> tuple[RunTrace, str, dict[int, int]]:
    """Rebuild a :class:`RunTrace` from parsed ``.prv`` records.

    ``parsed`` may be an in-memory :class:`ParsedTrace` or a ``.prv``
    path.  Either way the record blocks are folded into the output
    structures one block at a time; the path form streams the file, so
    only one block of records and the reconstructed trace are ever held
    in memory.  When the sampling period must be recovered from cadence
    that costs one extra streaming pass over the file, and so does a
    file whose states of a thread are out of order across blocks: it is
    folded again as one block.

    Returns ``(trace, period_source, unknown_event_types)``; see
    :class:`ReconstructedRun` for the source vocabulary.
    """

    header, blocks = _blocks(parsed)
    if sampling_period is not None:
        period, period_source = sampling_period, "explicit"
    elif pcf is not None and pcf.sampling_period:
        period, period_source = pcf.sampling_period, "pcf"
    else:
        cadence = recover_sampling_period(parsed)
        if cadence is not None:
            period, period_source = cadence, "cadence"
        else:
            period, period_source = ProfilingConfig().sampling_period, \
                "default"
    try:
        trace, unknown = _fold(header, blocks, period, pcf)
    except _OutOfOrder:
        header, blocks = _blocks(parsed)
        whole = PrvBlock.concat(list(blocks))
        trace, unknown = _fold(header, iter([whole]), period, pcf)
    return trace, period_source, unknown


def _fold_attribution(table: AttributionTable, pcf: Optional[PcfInfo],
                      num_threads: int, types: np.ndarray,
                      thread: np.ndarray, value: np.ndarray,
                      rows: np.ndarray) -> None:
    """Add one block's per-(region, thread, cause) totals to ``table``,
    creating cells in order of first appearance."""

    index, slot = np.divmod(types[rows] - ATTR_EVENT_BASE, ATTR_EVENT_STRIDE)
    keys, first, of_key = np.unique(index * num_threads + thread[rows],
                                    return_index=True, return_inverse=True)
    sums = np.zeros((keys.size, N_SLOTS), dtype=np.int64)
    np.add.at(sums, (of_key, slot), value[rows])
    for u in np.argsort(first, kind="stable"):
        family, t = divmod(int(keys[u]), num_threads)
        if pcf is not None and family in pcf.attr_regions:
            region = pcf.attr_regions[family][0]
        else:
            # no .pcf map: keep the family index as the region key
            region = family
        cell = table.cells.get((region, t))
        if cell is None:
            cell = table.cells[(region, t)] = [0] * N_SLOTS
        for s, amount in enumerate(sums[u].tolist()):
            cell[s] += amount


def reconstruct_run(source: Union[str, ParsedTrace],
                    clock_mhz: Optional[float] = None,
                    sampling_period: Optional[int] = None
                    ) -> ReconstructedRun:
    """Load a ``.prv`` (with its companions, when present) end to end.

    ``source`` is a ``.prv`` path or an already-parsed trace.  Paths
    are streamed block by block (see :func:`reconstruct_trace`).  The
    per-thread stall totals of the returned ``SimResult`` come from the
    ``STALLS`` event series; DRAM byte totals from the memory counters.
    """

    pcf = row = None
    if isinstance(source, str):
        path = source
        pcf_path, row_path = companion_paths(path)
        if os.path.exists(pcf_path):
            pcf = parse_pcf(pcf_path)
        if os.path.exists(row_path):
            row = parse_row(row_path)
    else:
        path = "<memory>"

    trace, period_source, unknown = reconstruct_trace(
        source, sampling_period=sampling_period, pcf=pcf)

    if clock_mhz is not None:
        clock, clock_source = clock_mhz, "explicit"
    elif pcf is not None and pcf.clock_mhz:
        clock, clock_source = pcf.clock_mhz, "pcf"
    else:
        clock, clock_source = _DEFAULT_CLOCK_MHZ, "default"

    stall_series = trace.events.get(EventKind.STALLS)
    if stall_series is not None:
        stalls = [int(round(v)) for v in stall_series.sum(axis=0)]
    else:
        stalls = [0] * trace.num_threads

    def _total(kind: EventKind) -> int:
        series = trace.events.get(kind)
        return int(series.sum()) if series is not None else 0

    result = SimResult(
        cycles=trace.end_cycle, clock_mhz=clock, trace=trace, buffers={},
        stalls=stalls,
        dram_bytes_read=_total(EventKind.MEM_READ_BYTES),
        dram_bytes_written=_total(EventKind.MEM_WRITE_BYTES),
        dram_requests=0, dram_row_misses=0, attribution=trace.attribution)

    thread_names = row.thread_names if row is not None else []
    if len(thread_names) != trace.num_threads:
        thread_names = [f"HW thread {t}" for t in range(trace.num_threads)]
    return ReconstructedRun(result, path, clock_source, period_source,
                            thread_names=thread_names,
                            unknown_event_types=unknown, pcf=pcf, row=row)
