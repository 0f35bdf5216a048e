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

from .. import telemetry
from ..profiling.attribution import AttributionTable, N_SLOTS
from ..profiling.config import EventKind, ProfilingConfig, ThreadState
from ..profiling.recorder import RunTrace, StateColumns
from ..sim.executor import SimResult
from .format import (
    ATTR_EVENT_BASE, ATTR_EVENT_LIMIT, ATTR_EVENT_STRIDE, EVENT_TYPE_IDS,
)
from .metadata import PcfInfo, RowInfo, companion_paths, parse_pcf, parse_row
from .parser import (
    EVENT, STATE, ParaverParseError, ParsedTrace, PrvBlock, PrvHeader,
    stream_prv,
)

__all__ = ["ReconstructedRun", "reconstruct_trace", "reconstruct_run",
           "recover_sampling_period"]

#: inverse of the writer's event-type table
_EVENT_KINDS = {type_id: kind for kind, type_id in EVENT_TYPE_IDS.items()}
_KNOWN_TYPES = np.array(sorted(_EVENT_KINDS))
#: ``_KNOWN_TYPES`` and a slot that matches no type, for searchsorted
_KNOWN_SLOTS = np.append(_KNOWN_TYPES, -1)
_NONE = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max
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
        # a gcd over no times is 0, which leaves the running gcd as is
        positive = np.gcd(positive, np.gcd.reduce(times))
        interior = np.gcd(interior, np.gcd.reduce(
            times[times < header.end_time]))
    return int(interior or positive) or None


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

    fold = _Fold(header, period, pcf)
    for block in blocks:
        fold.add(block)
        del block  # not held while the next block is parsed
    return fold.result()


class _Fold:
    """The running state of :func:`_fold`.

    Each block costs a fixed number of whole-block array passes,
    whatever its number of threads and event types: one stable sort of
    its states by (thread, start, end), one segmented running maximum
    that pads every thread's IDLE gaps at once, and one ``np.add.at``
    of every counter event into a ``[kind, bin, thread]`` sum over the
    bins the block spans.
    """

    def __init__(self, header: PrvHeader, period: int,
                 pcf: Optional[PcfInfo]):
        self.end_cycle, self.num_threads = header.end_time, header.num_tasks
        self.period, self.pcf = period, pcf
        threads = self.num_threads
        self.pieces: list[list[StateColumns]] = [[_NO_STATES]
                                                 for _ in range(threads)]
        # per thread: the furthest end reached, and the last (start,
        # end), where int64's minimum (never parsed) means none yet
        self.cursor = np.zeros(threads, dtype=np.int64)
        self.last_start = np.full(threads, _NONE)
        self.last_end = np.full(threads, _NONE)
        # events: flush times map back to bins; the final window absorbs
        # clamped stamps exactly as ProfilingRecorder.finalize did
        self.n_bins = max(1, -(-max(1, self.end_cycle) // period))
        # the [bin, thread] sums of each counter kind met so far, in
        # order of first appearance, as a record-by-record fold would
        # meet them; column[slot] is the index of _KNOWN_TYPES[slot]'s
        # kind among them (-1: not met yet)
        self.events: dict[EventKind, np.ndarray] = {}
        self.column = np.full(_KNOWN_TYPES.size + 1, -1)
        self.unknown: dict[int, int] = {}
        self.attribution: Optional[AttributionTable] = None

    def add(self, block: PrvBlock) -> None:
        # tasks are 1-based in the .prv, threads 0-based here
        thread = block.task - 1
        on_thread = thread.view(np.uint64) < self.num_threads
        rows = (block.kind == STATE) & on_thread
        if rows.any():
            self._states(thread[rows], block.time[rows], block.end[rows],
                         block.value[rows])
        rows = block.kind == EVENT
        if rows.any():
            self._events(thread[rows], on_thread[rows], block.type[rows],
                         block.time[rows], block.value[rows])

    def _states(self, thread: np.ndarray, start: np.ndarray,
                end: np.ndarray, state: np.ndarray) -> None:
        """Append one block's states to each thread's pieces, sorted by
        (start, end), with every gap after the thread's cursor (the
        furthest end reached so far) padded with IDLE."""

        cursor = self.cursor
        # stable: file order on ties; a narrow thread key sorts faster
        order = np.lexsort((end, start, thread.astype(
            np.min_scalar_type(cursor.size))))
        thread, start, end = thread[order], start[order], end[order]
        # each run of one thread is a segment: heads[k] .. tails[k]
        heads = np.flatnonzero(np.diff(thread, prepend=-1))
        tails = np.append(heads[1:], thread.size) - 1
        mine = thread[heads]
        first_start, first_end = start[heads], end[heads]
        last_start, last_end = self.last_start[mine], self.last_end[mine]
        if ((first_start < last_start) | ((first_start == last_start)
                                          & (first_end < last_end))).any():
            raise _OutOfOrder
        self.last_start[mine], self.last_end[mine] = start[tails], end[tails]

        # the running maximum of end within each segment, from its
        # cursor: lifting thread t by t * width keeps the maxima apart
        low = int(start.min())  # every end is at least its start
        width = max(int(end.max()), int(cursor[mine].max())) - low + 1
        if width * cursor.size + abs(low) > _INT64_MAX:
            raise ParaverParseError(
                f"state records span {width} cycles over {cursor.size} "
                "threads, too many to fold in int64")
        lift = thread * width - low
        reach = end + lift
        reach[heads] = np.maximum(reach[heads],
                                  np.maximum(cursor[mine], low) + lift[heads])
        np.maximum.accumulate(reach, out=reach)
        reach -= lift
        before = np.empty_like(start)
        before[1:] = reach[:-1]
        before[heads] = cursor[mine]
        cursor[mine] = reach[tails]
        overlap = np.flatnonzero(start < before)
        if overlap.size:
            first = overlap[0]
            raise ParaverParseError(
                f"state records of task {thread[first] + 1} overlap at "
                f"cycle {start[first]}")
        gap = start > before
        # interval i lands after the gaps up to and including its own
        at = np.arange(start.size) + np.cumsum(gap)
        size = int(at[-1]) + 1
        ids = np.full(size, int(ThreadState.IDLE), dtype=np.int64)
        begins = np.empty(size, dtype=np.int64)
        ends = np.empty(size, dtype=np.int64)
        ids[at], begins[at], ends[at] = state[order], start, end
        begins[at[gap] - 1], ends[at[gap] - 1] = before[gap], start[gap]
        # each segment's rows run from its head's gap through its tail;
        # copies, so that each thread's pieces free once it is joined
        bounds = zip(mine.tolist(), (at[heads] - gap[heads]).tolist(),
                     (at[tails] + 1).tolist())
        for t, lo, hi in bounds:
            self.pieces[t].append(StateColumns(
                begins[lo:hi].copy(), ends[lo:hi].copy(), ids[lo:hi].copy()))

    def _events(self, thread: np.ndarray, on_thread: np.ndarray,
                type_: np.ndarray, time: np.ndarray,
                value: np.ndarray) -> None:
        """Add one block's events: counters into the sums, attribution
        totals into the table, the rest to the unknown types."""

        n_bins, num_threads = self.n_bins, self.num_threads
        column = self.column
        slot = np.searchsorted(_KNOWN_TYPES, type_)
        known = _KNOWN_SLOTS[slot] == type_
        slot[~known] = _KNOWN_TYPES.size
        fresh = known & (column[slot] < 0)
        if fresh.any():
            new, first = np.unique(slot[fresh], return_index=True)
            for s in new[np.argsort(first, kind="stable")].tolist():
                column[s] = len(self.events)
                self.events[_EVENT_KINDS[int(_KNOWN_TYPES[s])]] = np.zeros(
                    (n_bins, num_threads))
        rows = known & on_thread
        if rows.any():
            # a flush at t closes the window that ends at t; one
            # [kind, bin, thread] sum over the bins the block spans is
            # then added to each kind's series
            bins = np.clip((time[rows] - 1) // self.period, 0, n_bins - 1)
            low, high = int(bins.min()), int(bins.max()) + 1
            sums = np.zeros((len(self.events), high - low, num_threads))
            np.add.at(sums.reshape(-1),
                      (column[slot[rows]] * (high - low) + bins - low)
                      * num_threads + thread[rows],
                      value[rows].astype(np.float64))
            for series, block_sums in zip(self.events.values(), sums):
                series[low:high] += block_sums
        if known.all():
            return
        other = ~known
        attr = other & (type_ >= ATTR_EVENT_BASE) & (type_ < ATTR_EVENT_LIMIT)
        attr &= (type_ - ATTR_EVENT_BASE) % ATTR_EVENT_STRIDE < N_SLOTS
        foreign = other & ~attr
        if foreign.any():
            types, first, counts = np.unique(
                type_[foreign], return_index=True, return_counts=True)
            for u in np.argsort(first, kind="stable").tolist():
                type_id = int(types[u])
                self.unknown[type_id] = (self.unknown.get(type_id, 0)
                                         + int(counts[u]))
        if attr.any():
            if self.attribution is None:
                self.attribution = AttributionTable(num_threads)
                if self.pcf is not None:
                    self.attribution.regions.update(
                        {key: label
                         for key, label in self.pcf.attr_regions.values()})
            _fold_attribution(self.attribution, self.pcf, num_threads,
                              type_, thread, value, attr & on_thread)

    def result(self) -> tuple[RunTrace, dict[int, int]]:
        end_cycle = self.end_cycle
        timeline = []
        for t, reach in enumerate(self.cursor.tolist()):
            # drop each thread's pieces once they are joined
            pieces, self.pieces[t] = self.pieces[t], []
            if reach < end_cycle:
                pieces.append(StateColumns(*np.array(
                    [[reach], [end_cycle], [ThreadState.IDLE]],
                    dtype=np.int64)))
            timeline.append(StateColumns(*map(np.concatenate, zip(*pieces))))
        trace = RunTrace(self.num_threads, end_cycle, self.period, timeline,
                         self.events, attribution=self.attribution)
        return trace, self.unknown


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

    with telemetry.span("paraver.reconstruct", category="paraver",
                        prv=source if isinstance(source, str) else None):
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
            dram_requests=0, dram_row_misses=0)

        thread_names = row.thread_names if row is not None else []
        if len(thread_names) != trace.num_threads:
            thread_names = [f"HW thread {t}" for t in range(trace.num_threads)]
        return ReconstructedRun(result, path, clock_source, period_source,
                                thread_names=thread_names,
                                unknown_event_types=unknown, pcf=pcf, row=row)
