"""Runtime side of the profiling unit: state & event collection.

The :class:`ProfilingRecorder` is the simulation counterpart of the
hardware profiling unit in Fig. 1: the executor calls into it when
threads change state (Fig. 2), when pipelines stall, when compute
stages retire work, and when memory traffic passes the Avalon
interface.  Events are aggregated into sampling-period bins exactly as
the hardware's periodically-flushed counters would produce them
(§IV-B.2); states are recorded per change (§IV-B.1).

The recorder also models the *cost* of tracing: it tracks how many
bits of trace data have been produced so the executor's flush process
can book the corresponding external-memory writes — the source of the
(small) runtime perturbation the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .. import telemetry
from .attribution import AttributionTable
from .config import (
    ATTRIBUTION_EVENTS, EventKind, ProfilingConfig, ThreadState,
)

__all__ = ["StateColumns", "StateInterval", "RunTrace", "ProfilingRecorder",
           "state_totals"]


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

        totals = self.state_durations()
        denom = max(1, sum(totals.values()))
        return {state: value / denom for state, value in totals.items()}

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
        self._state_log: list[list[tuple[int, ThreadState]]] = [
            [(0, ThreadState.IDLE)] for _ in range(num_threads)]
        # per counter kind, (bin, thread) -> running sum of the deposits
        # in deposit order (a dict upsert is several times cheaper than
        # a numpy scalar indexed add); finalize scatters each dict into
        # the kind's [bins, threads] array once
        kinds = tuple(config.events)
        if attribution:
            # virtual counters: binned for visualization, but never part
            # of config.events, so the flush cost model (and therefore
            # the simulated cycles) is unchanged by attribution
            kinds += ATTRIBUTION_EVENTS
        self._accum: dict[EventKind, dict] = {kind: {} for kind in kinds}
        self._enabled_kinds = set(config.events)
        self.attribution: Optional[AttributionTable] = (
            AttributionTable(num_threads) if attribution else None)
        self.pending_bits = 0  # trace bits not yet flushed
        self.total_bits = 0
        self.flushes = 0

    # ------------------------------------------------------------------
    # states
    # ------------------------------------------------------------------
    def set_state(self, cycle: int, thread: int, state: ThreadState) -> None:
        log = self._state_log[thread]
        if log[-1][1] is state:
            return
        log.append((cycle, state))
        if self.config.record_states and self.config.enabled:
            bits = self.config.state_record_bits(self.num_threads)
            self.pending_bits += bits
            self.total_bits += bits

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def add_many(self, start: int, end: int, thread: int, pairs) -> None:
        """Deposit ``(kind, amount)`` pairs uniformly over cycles [start, end).

        Each amount is spread over the sampling windows the range
        overlaps, in proportion to the cycles it covers in each; a range
        inside one window deposits the amount whole.  Zero amounts and
        disabled kinds are skipped.  A zero-length range (``end <=
        start``) covers no cycles and deposits nothing: the executor
        emits such ranges for zero-trip loops, and depositing the full
        amount would double-count work already booked by the surrounding
        real ranges.  A single-cycle event at ``c`` is the range
        ``[c, c + 1)``.
        """

        if end <= start:
            return
        period = self.config.sampling_period
        first_bin = start // period
        last_bin = (end - 1) // period
        enabled = self._enabled_kinds
        accum = self._accum
        if first_bin == last_bin:
            key = None
            for kind, amount in pairs:
                if amount and kind in enabled:
                    if key is None:
                        key = (first_bin, thread)
                    bucket = accum[kind]
                    bucket[key] = bucket.get(key, 0.0) + amount
            return
        edges = np.arange(first_bin, last_bin + 2, dtype=np.int64) * period
        span = np.minimum(edges[1:], end) - np.maximum(edges[:-1], start)
        for kind, amount in pairs:
            if amount and kind in enabled:
                bucket = accum[kind]
                shares = span * (amount / (end - start))
                for index, share in enumerate(shares.tolist(), first_bin):
                    key = (index, thread)
                    bucket[key] = bucket.get(key, 0.0) + share

    def attr_deposit(self, start: int, end: int, thread: int, region: int,
                     amounts) -> None:
        """Account ``amounts`` cycles (slot order) to ``(region, thread)``.

        The table cell takes the integer amounts verbatim; the binned
        counter series spread each amount over the sampling windows
        overlapping ``[start, end)`` with *integer-exact* telescoping
        shares (cumulative ``amount * covered // span`` differences), so
        every binned value is an integer and the per-kind series sum
        equals the table exactly — the ``.prv`` round trip is lossless.
        """

        table = self.attribution
        if table is None:
            return
        cell = table.cells.get((region, thread))
        if cell is None:
            cell = table.cells[(region, thread)] = [0] * len(amounts)
        accum = self._accum
        period = self.config.sampling_period
        if end <= start:
            for slot, amount in enumerate(amounts):
                if amount:
                    cell[slot] += amount
            return
        first_bin = start // period
        last_bin = (end - 1) // period
        if first_bin == last_bin:
            key = (first_bin, thread)
            for slot, amount in enumerate(amounts):
                if amount:
                    cell[slot] += amount
                    bucket = accum[ATTRIBUTION_EVENTS[slot]]
                    bucket[key] = bucket.get(key, 0.0) + amount
            return
        span = end - start
        for slot, amount in enumerate(amounts):
            if not amount:
                continue
            cell[slot] += amount
            bucket = accum[ATTRIBUTION_EVENTS[slot]]
            prev = 0
            for index in range(first_bin, last_bin):
                covered = (index + 1) * period - start
                cum = amount * covered // span
                if cum != prev:
                    key = (index, thread)
                    bucket[key] = bucket.get(key, 0.0) + (cum - prev)
                    prev = cum
            if amount != prev:
                key = (last_bin, thread)
                bucket[key] = bucket.get(key, 0.0) + (amount - prev)

    # ------------------------------------------------------------------
    # trace-buffer cost model
    # ------------------------------------------------------------------
    def sample_flush_bits(self) -> int:
        """Bits one periodic event flush writes (counters for all threads)."""

        if not self.config.enabled or not self.config.events:
            return 0
        bits = self.config.event_record_bits(self.num_threads)
        self.total_bits += bits
        return bits

    def drain_pending_bits(self) -> int:
        """Bits of state records accumulated since the last flush."""

        bits = self.pending_bits
        self.pending_bits = 0
        return bits

    # ------------------------------------------------------------------
    def finalize(self, end_cycle: int) -> RunTrace:
        with telemetry.span("profiling.finalize", category="profiling"):
            trace = self._finalize(end_cycle)
        telemetry.add("profiling.flushes", self.flushes)
        telemetry.add("profiling.trace_bits", self.total_bits)
        telemetry.add("profiling.state_records",
                      sum(len(log) for log in self._state_log))
        return trace

    def _finalize(self, end_cycle: int) -> RunTrace:
        timeline: list[StateColumns] = []
        for log in self._state_log:
            cycles, states = np.array(log, dtype=np.int64).T
            # each record runs until the next record's cycle (the last
            # until end_cycle); empty intervals (same-cycle
            # re-transitions) are dropped
            ends = np.append(cycles[1:], end_cycle)
            keep = ends > cycles
            timeline.append(StateColumns(cycles[keep], ends[keep],
                                         states[keep]))

        # each cell receives the sum of its deposits, accumulated in
        # deposit order — bit-identical to per-deposit array adds
        period = self.config.sampling_period
        n_bins = max(1, -(-max(1, end_cycle) // period))
        events: dict[EventKind, np.ndarray] = {}
        for kind, bucket in self._accum.items():
            cells = np.array(list(bucket), dtype=np.intp).reshape(-1, 2)
            used = int(cells[:, 0].max(initial=-1)) + 1
            series = np.zeros((max(used, n_bins), self.num_threads))
            series[cells[:, 0], cells[:, 1]] = list(bucket.values())
            events[kind] = arr = series[:n_bins].copy()
            if used > n_bins:  # clamp stragglers into the final window
                arr[-1] += series[n_bins:used].sum(axis=0)
        return RunTrace(self.num_threads, end_cycle, period, timeline,
                        events, trace_bits=self.total_bits,
                        flushes=self.flushes, attribution=self.attribution)
