"""Runtime side of the profiling unit: state & event collection.

The :class:`ProfilingRecorder` is the simulation counterpart of the
hardware profiling unit in Fig. 1: the executor calls into it when
threads change state (Fig. 2), when pipelines stall, when compute
stages retire work, and when memory traffic passes the Avalon
interface.  Events are aggregated into sampling-period bins exactly as
the hardware's periodically-flushed counters would produce them
(§IV-B.2); states are recorded per change (§IV-B.1).

Counter deposits are fixed-width rows ``(thread, start, end, *amounts)``
appended to one float64 log — by :meth:`ProfilingRecorder.add_many` and
by the generated nest drivers alike — and :meth:`~ProfilingRecorder.
finalize` bins the log once, in log order, so every window sums its
deposits in the order they were made.

Each thread's state log is one ``array('q')`` of ``cycle << 2 | state``
ints — the hardware's 2-bit state code under its clock — appended by
:meth:`~ProfilingRecorder.set_state` (the executor and the generated
nest drivers alike) and decoded by ``finalize``.

Attribution counters are kept as the hardware keeps counters: per
thread, one ``array('q')`` row of :data:`N_SLOTS` exact integer sums
per sampling window, indexed ``window * N_SLOTS + slot``.
:meth:`~ProfilingRecorder.attr_deposit` grows a row array in place, so
the generated nest drivers hoist it once and add single-window
deposits into it directly.

The recorder also models the *cost* of tracing, the source of the
(small) runtime perturbation the paper measures: the bits of trace data
are a function of two counts, state records and flushes, and
:meth:`~ProfilingRecorder.flush` returns what each periodic flush writes
so the executor can book it as an external-memory write.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .. import telemetry
from .attribution import N_SLOTS, AttributionTable
from .config import (
    ATTRIBUTION_EVENTS, EventKind, ProfilingConfig, ThreadState,
)

__all__ = ["StateColumns", "StateInterval", "RunTrace", "ProfilingRecorder",
           "state_totals", "state_fractions", "LOG_KINDS"]

#: counter kinds of a deposit row, in column order after the row's
#: ``(thread, start, end)``
LOG_KINDS: tuple[EventKind, ...] = (
    EventKind.FLOPS, EventKind.INTOPS, EventKind.MEM_READ_BYTES,
    EventKind.MEM_WRITE_BYTES, EventKind.STALLS)
_LOG_COLUMN = {kind: 3 + col for col, kind in enumerate(LOG_KINDS)}
_ROW = 3 + len(LOG_KINDS)

#: deposit rows binned per block by finalize (bounds its temporaries)
LOG_BLOCK_ROWS = 8192


class StateColumns(NamedTuple):
    """One thread's state timeline as int64 columns: interval ``i`` is
    ``[start[i], end[i])`` spent in state ``state[i]`` (a ThreadState id)."""

    start: np.ndarray
    end: np.ndarray
    state: np.ndarray


@dataclass(frozen=True)
class StateInterval:
    """A maximal interval during which a thread stayed in one state."""

    thread: int
    state: ThreadState
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


def state_totals(state: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Cycles per state id (int64, indexed by ThreadState) of intervals
    with these states and durations.

    The float64 bincount is exact while every total stays below 2**53
    cycles.
    """

    return np.bincount(state, weights=duration,
                       minlength=len(ThreadState)).astype(np.int64)


def state_fractions(totals: np.ndarray) -> dict[ThreadState, float]:
    """Fraction of all thread-time per state, from [threads, states]
    cycle totals (:meth:`RunTrace.state_totals`)."""

    row = totals.sum(axis=0).tolist()
    denom = max(1, sum(row))
    return {state: value / denom for state, value in zip(ThreadState, row)}


@dataclass
class RunTrace:
    """Everything the profiling unit captured during one run."""

    num_threads: int
    end_cycle: int
    sampling_period: int
    #: per-thread state columns, sorted by start, tiling [0, end_cycle]
    timeline: list[StateColumns]
    #: EventKind -> array[bins, threads] of per-window sums
    events: dict[EventKind, np.ndarray]
    #: bits of trace data produced (states + event flushes)
    trace_bits: int = 0
    #: number of buffer flushes to external memory
    flushes: int = 0
    #: per-(region, thread) cycle accounting (SimConfig.attribution)
    attribution: Optional[AttributionTable] = None

    @property
    def states(self) -> list[list[StateInterval]]:
        """Per-thread :class:`StateInterval` lists derived from
        :attr:`timeline` on each access (a convenience view; the
        toolchain itself reads the columns)."""

        return [[StateInterval(thread, ThreadState(state), start, end)
                 for start, end, state in zip(*(col.tolist() for col in cols))]
                for thread, cols in enumerate(self.timeline)]

    def state_totals(self) -> np.ndarray:
        """[threads, states] int64 array of cycles per state."""

        totals = np.zeros((self.num_threads, len(ThreadState)), np.int64)
        for thread, cols in enumerate(self.timeline):
            totals[thread] = state_totals(cols.state, cols.end - cols.start)
        return totals

    def state_durations(self, thread: Optional[int] = None
                        ) -> dict[ThreadState, int]:
        """Total cycles per state, for one thread or all threads."""

        totals = self.state_totals()
        row = totals.sum(axis=0) if thread is None else totals[thread]
        return dict(zip(ThreadState, row.tolist()))

    def state_fractions(self) -> dict[ThreadState, float]:
        """Fraction of total thread-time spent in each state."""

        return state_fractions(self.state_totals())

    def event_series(self, kind: EventKind) -> np.ndarray:
        """[bins, threads] array of per-window event sums.

        Raises a diagnostic :class:`KeyError` when ``kind`` was not in
        the run's profiling configuration (mirroring the graceful
        degradation of :func:`repro.analysis.diagnose`, which reports
        missing counters instead of crashing).
        """

        series = self.events.get(kind)
        if series is None:
            recorded = ", ".join(str(k) for k in self.events) or "none"
            raise KeyError(
                f"counter {kind!s} was not recorded in this trace "
                f"(recorded counters: {recorded}); add EventKind."
                f"{kind.name} to ProfilingConfig.events before the run")
        return series

    def window_starts(self, kind: EventKind) -> np.ndarray:
        """Start cycle of each sampling window of ``kind``'s series."""

        bins = self.event_series(kind).shape[0]
        return np.arange(bins, dtype=np.int64) * self.sampling_period


class ProfilingRecorder:
    """Collects states and events during a simulation run."""

    def __init__(self, config: ProfilingConfig, num_threads: int,
                 attribution: bool = False):
        self.config = config
        self.num_threads = num_threads
        # per thread: cycle << 2 | state, one int per state change
        self._state_log = [array("q", (ThreadState.IDLE,))
                           for _ in range(num_threads)]
        # one row per add_many call or driver deposit site, in deposit
        # order (cycles, thread ids and amounts are exact below 2**53)
        self._log = array("d")
        kinds = tuple(config.events)
        if attribution:
            # virtual counters: binned for visualization, but never part
            # of config.events, so the flush cost model (and therefore
            # the simulated cycles) is unchanged by attribution
            kinds += ATTRIBUTION_EVENTS
        self._kinds = tuple(dict.fromkeys(kinds))
        # per thread: the attribution sums, window * N_SLOTS + slot
        self._attr_bins = [array("q") for _ in range(num_threads)]
        self.attribution: Optional[AttributionTable] = (
            AttributionTable(num_threads) if attribution else None)
        on = config.enabled
        self._state_bits = (config.state_record_bits(num_threads)
                            if config.record_states and on else 0)
        self._event_bits = (config.event_record_bits(num_threads)
                            if config.events and on else 0)
        self._flushed_records = num_threads
        self.flushes = 0

    # ------------------------------------------------------------------
    # states
    # ------------------------------------------------------------------
    def set_state(self, cycle: int, thread: int, state: ThreadState) -> None:
        log = self._state_log[thread]
        if log[-1] & 3 != state:
            log.append(cycle << 2 | state)

    def _records(self) -> int:
        return sum(len(log) for log in self._state_log)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def add_many(self, start: int, end: int, thread: int, pairs) -> None:
        """Deposit ``(kind, amount)`` pairs uniformly over cycles [start, end).

        Logs one row; :meth:`finalize` spreads each amount over the
        sampling windows the range overlaps, in proportion to the cycles
        it covers in each; a range inside one window deposits the amount
        whole.  Zero amounts and kinds outside ``config.events`` bin
        nothing.  A zero-length range (``end <= start``) covers no cycles
        and deposits nothing: the executor emits such ranges for
        zero-trip loops, and depositing the full amount would
        double-count work already booked by the surrounding real ranges.
        A single-cycle event at ``c`` is the range ``[c, c + 1)``.  Pairs
        of kinds outside :data:`LOG_KINDS` are ignored.
        """

        row = [thread, start, end, 0, 0, 0, 0, 0]
        for kind, amount in pairs:
            col = _LOG_COLUMN.get(kind)
            if col is not None:
                row[col] = amount
        self._log.extend(row)

    def attr_deposit(self, start: int, end: int, thread: int, region: int,
                     amounts) -> None:
        """Account ``amounts`` cycles (slot order) to ``(region, thread)``.

        The table cell takes the integer amounts verbatim; the binned
        counter series spread each amount over the sampling windows
        overlapping ``[start, end)`` with *integer-exact* telescoping
        shares (cumulative ``amount * covered // span`` differences), so
        every binned value is an integer and the per-kind series sum
        equals the table exactly — the ``.prv`` round trip is lossless.
        The shares are added into the thread's row array, which grows
        (geometrically, in place) to cover the last window touched.
        """

        table = self.attribution
        if table is None:
            return
        cell = table.cells.get((region, thread))
        if cell is None:
            cell = table.cells[(region, thread)] = [0] * len(amounts)
        period = self.config.sampling_period
        if end <= start:
            for slot, amount in enumerate(amounts):
                if amount:
                    cell[slot] += amount
            return
        first_bin = start // period
        last_bin = (end - 1) // period
        row = self._attr_bins[thread]
        need = (last_bin + 1) * N_SLOTS
        if need > len(row):
            row.frombytes(bytes(8 * (max(need, 2 * len(row)) - len(row))))
        if first_bin == last_bin:
            base = first_bin * N_SLOTS
            for slot, amount in enumerate(amounts):
                if amount:
                    cell[slot] += amount
                    row[base + slot] += amount
            return
        span = end - start
        for slot, amount in enumerate(amounts):
            if not amount:
                continue
            cell[slot] += amount
            prev = 0
            for index in range(first_bin, last_bin):
                covered = (index + 1) * period - start
                cum = amount * covered // span
                row[index * N_SLOTS + slot] += cum - prev
                prev = cum
            row[last_bin * N_SLOTS + slot] += amount - prev

    # ------------------------------------------------------------------
    # trace-buffer cost model
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Bits one periodic flush writes: the counters of all threads
        plus the state records made since the previous flush.  A flush
        that writes bits is counted in :attr:`flushes`."""

        records = self._records()
        bits = (self._event_bits
                + self._state_bits * (records - self._flushed_records))
        self._flushed_records = records
        if bits:
            self.flushes += 1
        return bits

    @property
    def total_bits(self) -> int:
        """Bits of trace data produced so far: every flush's counters and
        every state record (the initial IDLE records excepted)."""

        return (self.flushes * self._event_bits
                + self._state_bits * (self._records() - self.num_threads))

    # ------------------------------------------------------------------
    def finalize(self, end_cycle: int) -> RunTrace:
        with telemetry.span("profiling.finalize", category="profiling"):
            trace = self._finalize(end_cycle)
        telemetry.add("profiling.flushes", self.flushes)
        telemetry.add("profiling.trace_bits", self.total_bits)
        telemetry.add("profiling.state_records", self._records())
        telemetry.add("profiling.deposits", len(self._log) // _ROW)
        return trace

    def _finalize(self, end_cycle: int) -> RunTrace:
        timeline: list[StateColumns] = []
        for log in self._state_log:
            packed = np.frombuffer(log, np.int64)
            cycles, states = packed >> 2, packed & 3
            # each record runs until the next record's cycle (the last
            # until end_cycle); empty intervals (same-cycle
            # re-transitions) are dropped
            ends = np.append(cycles[1:], end_cycle)
            keep = ends > cycles
            timeline.append(StateColumns(cycles[keep], ends[keep],
                                         states[keep]))

        period = self.config.sampling_period
        n_bins = max(1, -(-max(1, end_cycle) // period))
        logged = self._bin_log(n_bins)
        # the kinds without a log column are the attribution counters
        attr = (self._attr_series(n_bins)
                if len(logged) < len(self._kinds) else {})
        events = {kind: logged[kind] if kind in logged else attr[kind]
                  for kind in self._kinds}
        return RunTrace(self.num_threads, end_cycle, period, timeline,
                        events, trace_bits=self.total_bits,
                        flushes=self.flushes, attribution=self.attribution)

    def _attr_series(self, n_bins: int) -> dict[EventKind, np.ndarray]:
        """The [n_bins, threads] series of each attribution kind, read
        from the per-thread row arrays.

        The float64 series equal the float sums of the deposited shares
        in any order: every share is a non-negative integer and every
        sum stays below 2**53.  Rows past ``n_bins`` (stragglers, and
        the zero rows of geometric growth) clamp into the last one.
        """

        rows = [np.frombuffer(row, np.int64).reshape(-1, N_SLOTS)
                for row in self._attr_bins]
        size = max(n_bins, max(map(len, rows), default=0))
        series = {}
        for slot, kind in enumerate(ATTRIBUTION_EVENTS):
            sums = np.zeros((size, self.num_threads))
            for thread, row in enumerate(rows):
                sums[:len(row), thread] = row[:, slot]
            series[kind] = _windows(sums, size, n_bins)
        return series

    def _bin_log(self, n_bins: int) -> dict[EventKind, np.ndarray]:
        """The [n_bins, threads] series of each logged kind in
        ``config.events``, binned from the deposit log.

        Rows are read ``LOG_BLOCK_ROWS`` at a time and expanded over the
        windows their range covers: the whole amount when it fits in one
        window, else ``span * (amount / (end - start))`` per window.
        ``np.add.at`` adds the shares in row order, so each cell sums its
        deposits in deposit order.  Zero amounts add ``+0.0`` (a no-op
        on a cell that starts at ``+0.0``) but, like empty ranges, do not
        count toward the straggler bound ``used``.
        """

        threads = self.num_threads
        period = self.config.sampling_period
        kinds = [kind for kind in self._kinds if kind in _LOG_COLUMN]
        columns = [_LOG_COLUMN[kind] for kind in kinds]
        # one flat [bins * threads] sum per kind, kind-major
        sums = np.zeros((len(kinds), n_bins * threads))
        used = np.zeros(len(kinds), np.int64)
        log = self._log
        step = LOG_BLOCK_ROWS * _ROW
        for lo in range(0, len(log) if kinds else 0, step):
            rows = np.frombuffer(log[lo:lo + step]).reshape(-1, _ROW)
            live = rows[:, 2] > rows[:, 1]
            if not live.all():
                rows = rows[live]
                if not rows.shape[0]:
                    continue
            thread, start, end = rows[:, :3].T.astype(np.int64)
            amount = rows.T[columns]
            first = start // period
            last = (end - 1) // period
            used = np.maximum(used,
                              np.where(amount != 0, last + 1, 0).max(axis=1))
            width = last - first + 1
            row_of = np.repeat(np.arange(width.shape[0]), width)
            window = np.arange(row_of.shape[0]) - np.repeat(
                np.cumsum(width) - width - first, width)
            share = amount[:, row_of]
            # a row spread over several windows: span * (amount / length)
            part = np.flatnonzero(width[row_of] > 1)
            r, w = row_of[part], window[part]
            span = (np.minimum((w + 1) * period, end[r])
                    - np.maximum(w * period, start[r]))
            share[:, part] = span * (amount[:, r] / (end - start)[r])
            size = (int(last.max()) + 1) * threads
            if size > sums.shape[1]:
                sums = np.concatenate(
                    (sums, np.zeros((len(kinds), size - sums.shape[1]))),
                    axis=1)
            cell = window * threads + thread[row_of]
            offset = np.arange(len(kinds))[:, None] * sums.shape[1]
            np.add.at(sums.reshape(-1), (cell + offset).ravel(),
                      share.ravel())
        return {kind: _windows(sums[k].reshape(-1, threads), int(used[k]),
                               n_bins)
                for k, kind in enumerate(kinds)}


def _windows(series: np.ndarray, used: int, n_bins: int) -> np.ndarray:
    """The first ``n_bins`` rows of ``series``, with rows ``n_bins`` up to
    ``used`` (deposits past the run's end) clamped into the final one."""

    arr = series[:n_bins].copy()
    if used > n_bins:
        arr[-1] += series[n_bins:used].sum(axis=0)
    return arr
