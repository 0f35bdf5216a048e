"""Unit tests for the profiling recorder and RunTrace."""

from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import run_gemm, run_pi
from repro.apps.gemm import GEMM_VERSIONS
from repro.hls import HLSOptions
from repro.profiling import (
    EventKind, ProfilingConfig, ProfilingRecorder, STATE_ENCODING,
    ThreadState,
)
from repro.profiling import recorder as recorder_module
from repro.profiling.attribution import N_SLOTS
from repro.profiling.config import ATTRIBUTION_EVENTS
from repro.profiling.recorder import LOG_KINDS
from repro.sim.config import SimConfig

from .test_nest_fastpath import NEST_CASES, _run


def make_recorder(threads: int = 2, period: int = 100) -> ProfilingRecorder:
    return ProfilingRecorder(ProfilingConfig(sampling_period=period), threads)


class TestStateEncoding:
    def test_paper_encodings(self):
        """§IV-B.1: 00 idle, 01 running, 10 critical, 11 spinning."""

        assert STATE_ENCODING[ThreadState.IDLE] == 0b00
        assert STATE_ENCODING[ThreadState.RUNNING] == 0b01
        assert STATE_ENCODING[ThreadState.CRITICAL] == 0b10
        assert STATE_ENCODING[ThreadState.SPINNING] == 0b11


class TestStateRecording:
    def test_initial_state_is_idle(self):
        recorder = make_recorder()
        trace = recorder.finalize(50)
        assert trace.states[0][0].state is ThreadState.IDLE

    def test_intervals_cover_run(self):
        recorder = make_recorder()
        recorder.set_state(10, 0, ThreadState.RUNNING)
        recorder.set_state(30, 0, ThreadState.CRITICAL)
        recorder.set_state(40, 0, ThreadState.RUNNING)
        recorder.set_state(90, 0, ThreadState.IDLE)
        trace = recorder.finalize(100)
        intervals = trace.states[0]
        assert intervals[0].start == 0
        assert intervals[-1].end == 100
        for prev, nxt in zip(intervals, intervals[1:]):
            assert prev.end == nxt.start

    def test_redundant_transition_coalesced(self):
        recorder = make_recorder()
        recorder.set_state(10, 0, ThreadState.RUNNING)
        recorder.set_state(20, 0, ThreadState.RUNNING)
        trace = recorder.finalize(50)
        assert len(trace.states[0]) == 2  # idle + running only

    def test_durations(self):
        recorder = make_recorder()
        recorder.set_state(10, 0, ThreadState.RUNNING)
        recorder.set_state(60, 0, ThreadState.IDLE)
        trace = recorder.finalize(100)
        durations = trace.state_durations(0)
        assert durations[ThreadState.RUNNING] == 50
        assert durations[ThreadState.IDLE] == 50

    def test_fractions_sum_to_one(self):
        recorder = make_recorder(threads=3)
        recorder.set_state(5, 1, ThreadState.RUNNING)
        recorder.set_state(9, 2, ThreadState.SPINNING)
        trace = recorder.finalize(100)
        assert sum(trace.state_fractions().values()) == pytest.approx(1.0)

    def test_state_changes_produce_trace_bits(self):
        recorder = make_recorder(threads=4)
        assert recorder.total_bits == 0
        recorder.set_state(1, 0, ThreadState.RUNNING)
        # 2 bits x 4 threads + 32-bit clock
        assert recorder.total_bits == 2 * 4 + 32


class TestEventBinning:
    def test_add_goes_to_right_bin(self):
        recorder = make_recorder(period=100)
        recorder.add_many(250, 251, 0, ((EventKind.FLOPS, 7),))
        trace = recorder.finalize(400)
        series = trace.event_series(EventKind.FLOPS)
        assert series.shape == (4, 2)
        assert series[2, 0] == 7
        assert series.sum() == 7

    def test_add_range_distributes_linearly(self):
        recorder = make_recorder(period=100)
        recorder.add_many(50, 250, 1, ((EventKind.INTOPS, 200),))
        trace = recorder.finalize(300)
        series = trace.event_series(EventKind.INTOPS)
        assert series[0, 1] == pytest.approx(50)
        assert series[1, 1] == pytest.approx(100)
        assert series[2, 1] == pytest.approx(50)
        assert series.sum() == pytest.approx(200)

    def test_add_range_single_bin(self):
        recorder = make_recorder(period=100)
        recorder.add_many(10, 20, 0, ((EventKind.STALLS, 5),))
        trace = recorder.finalize(100)
        assert trace.event_series(EventKind.STALLS)[0, 0] == 5

    def test_zero_length_range_is_noop(self):
        """A range covering no cycles must not deposit anything (the
        executor emits such ranges for zero-trip loops; depositing the
        full amount double-counted them)."""

        recorder = make_recorder(period=100)
        recorder.add_many(150, 150, 0, ((EventKind.FLOPS, 3),))
        recorder.add_many(200, 150, 0, ((EventKind.FLOPS, 5),))  # inverted
        trace = recorder.finalize(200)
        assert trace.event_series(EventKind.FLOPS).sum() == 0

    def test_degenerate_ranges_do_not_inflate_binned_totals(self):
        """Binned totals equal the sum of real deposits only."""

        recorder = make_recorder(period=100)
        recorder.add_many(0, 50, 0, ((EventKind.FLOPS, 10),))
        recorder.add_many(50, 50, 0, ((EventKind.FLOPS, 10),))  # zero-trip
        recorder.add_many(50, 250, 0, ((EventKind.FLOPS, 200),))
        trace = recorder.finalize(300)
        series = trace.event_series(EventKind.FLOPS)
        assert series.sum() == pytest.approx(210)
        assert series[0, 0] == pytest.approx(10 + 50)
        assert series[1, 0] == pytest.approx(100)
        assert series[2, 0] == pytest.approx(50)

    def test_binning_grows_beyond_initial_capacity(self):
        recorder = make_recorder(period=10)
        last_bin = 259  # hundreds of windows, deposited out of order
        recorder.add_many(last_bin * 10 + 5, last_bin * 10 + 6, 1,
                          ((EventKind.FLOPS, 2),))
        recorder.add_many(0, (last_bin + 1) * 10, 0,
                          ((EventKind.INTOPS, float(last_bin + 1)),))
        trace = recorder.finalize((last_bin + 1) * 10)
        flops = trace.event_series(EventKind.FLOPS)
        assert flops.shape[0] == last_bin + 1
        assert flops[last_bin, 1] == 2
        intops = trace.event_series(EventKind.INTOPS)
        assert intops[:, 0] == pytest.approx(np.ones(last_bin + 1))

    def test_zero_amount_ignored(self):
        recorder = make_recorder()
        recorder.add_many(10, 11, 0, ((EventKind.FLOPS, 0),))
        trace = recorder.finalize(100)
        assert trace.event_series(EventKind.FLOPS).sum() == 0

    def test_disabled_kind_ignored(self):
        config = ProfilingConfig(events=(EventKind.FLOPS,))
        recorder = ProfilingRecorder(config, 1)
        recorder.add_many(10, 11, 0, ((EventKind.STALLS, 5),))
        trace = recorder.finalize(100)
        assert EventKind.STALLS not in trace.events

    def test_missing_counter_raises_diagnostic(self):
        """event_series names the missing counter and the recorded set
        instead of a bare KeyError."""

        config = ProfilingConfig(events=(EventKind.FLOPS,))
        recorder = ProfilingRecorder(config, 1)
        trace = recorder.finalize(100)
        with pytest.raises(KeyError, match="stalls.*not recorded.*flops"):
            trace.event_series(EventKind.STALLS)
        with pytest.raises(KeyError, match="ProfilingConfig.events"):
            trace.event_series(EventKind.MEM_READ_BYTES)

    def test_stragglers_clamped_into_last_bin(self):
        recorder = make_recorder(period=100)
        recorder.add_many(950, 951, 0, ((EventKind.FLOPS, 2),))
        trace = recorder.finalize(500)  # run "ended" before the event bin
        series = trace.event_series(EventKind.FLOPS)
        assert series[-1, 0] == 2


class TestFlushAccounting:
    def test_first_flush_writes_the_counters(self):
        config = ProfilingConfig()
        recorder = ProfilingRecorder(config, 8)
        assert recorder.flush() == config.event_record_bits(8)
        assert recorder.flushes == 1

    def test_state_record_rides_the_next_flush_only(self):
        recorder = make_recorder(threads=2)
        counters = recorder.config.event_record_bits(2)
        recorder.set_state(5, 0, ThreadState.RUNNING)
        assert recorder.flush() == counters + 2 * 2 + 32
        assert recorder.flush() == counters

    def test_disabled_profiling_produces_no_bits(self):
        recorder = ProfilingRecorder(ProfilingConfig.disabled(), 2)
        recorder.set_state(5, 0, ThreadState.RUNNING)
        assert recorder.flush() == 0
        assert recorder.flushes == 0
        assert recorder.total_bits == 0
        # but the state timeline still exists (the simulator always knows)
        trace = recorder.finalize(10)
        assert trace.states[0][-1].state is ThreadState.RUNNING


# ----------------------------------------------------------------------
# the packed state log and derived bit counts against eager bookkeeping
# ----------------------------------------------------------------------
class _OracleStates:
    """States and trace bits kept eagerly: one ``(cycle, state)`` tuple
    per change, running pending/total bit sums, and a flush that counts
    itself when it writes bits."""

    def __init__(self, config, threads):
        self.config, self.threads = config, threads
        self.log = [[(0, ThreadState.IDLE)] for _ in range(threads)]
        self.pending_bits = self.total_bits = self.flushes = 0

    def set_state(self, cycle, thread, state):
        log = self.log[thread]
        if log[-1][1] is state:
            return
        log.append((cycle, state))
        if self.config.record_states and self.config.enabled:
            bits = self.config.state_record_bits(self.threads)
            self.pending_bits += bits
            self.total_bits += bits

    def flush(self):
        bits, self.pending_bits = self.pending_bits, 0
        if self.config.enabled and self.config.events:
            counters = self.config.event_record_bits(self.threads)
            self.total_bits += counters
            bits += counters
        if bits:
            self.flushes += 1
        return bits

    def timeline(self, end_cycle):
        """Per thread, the non-empty ``(start, end, state)`` intervals."""

        return [[(cycle, end, int(state))
                 for (cycle, state), end in zip(
                     log, [cycle for cycle, _ in log[1:]] + [end_cycle])
                 if end > cycle]
                for log in self.log]


#: a period of 2**36 cycles keeps finalize's event windows few at 2**40
#: cycles; the period plays no part in the trace-bit model
_STATE_CONFIGS = {
    name: replace(config, sampling_period=2 ** 36)
    for name, config in (
        ("default", ProfilingConfig()),
        ("no_states", ProfilingConfig(record_states=False)),
        ("no_events", ProfilingConfig(events=())),
        ("disabled", ProfilingConfig.disabled()))}


@st.composite
def _state_streams(draw):
    threads = draw(st.integers(1, 8))
    now = [0] * threads
    ops = []
    for _ in range(draw(st.integers(0, 60))):
        if draw(st.integers(0, 4)) == 0:
            ops.append(None)  # a flush
            continue
        thread = draw(st.integers(0, threads - 1))
        # repeats and same-cycle re-transitions, up to 2**40 cycles
        now[thread] = min(2 ** 40, now[thread] + draw(st.one_of(
            st.just(0), st.integers(1, 50), st.integers(2 ** 30, 2 ** 39))))
        ops.append((now[thread], thread,
                    draw(st.sampled_from(list(ThreadState)))))
    end_cycle = max(now) + draw(st.integers(0, 3))
    return threads, ops, end_cycle


class TestStateLog:
    @pytest.mark.parametrize("config", sorted(_STATE_CONFIGS))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stream=_state_streams())
    def test_states_and_bits_match_eager_oracle(self, config, stream):
        threads, ops, end_cycle = stream
        config = _STATE_CONFIGS[config]
        recorder = ProfilingRecorder(config, threads)
        oracle = _OracleStates(config, threads)
        for op in ops:
            if op is None:
                assert recorder.flush() == oracle.flush()
            else:
                recorder.set_state(*op)
                oracle.set_state(*op)
            assert recorder.flushes == oracle.flushes
            assert recorder.total_bits == oracle.total_bits
        trace = recorder.finalize(end_cycle)
        assert (trace.trace_bits, trace.flushes) == (oracle.total_bits,
                                                     oracle.flushes)
        timeline = [list(zip(*(col.tolist() for col in cols)))
                    for cols in trace.timeline]
        assert timeline == oracle.timeline(end_cycle)


# ----------------------------------------------------------------------
# the deposit log against the dict recorder it replaced
# ----------------------------------------------------------------------
def _oracle_series(config, threads, deposits, end_cycle):
    """Event series of ``(start, end, thread, pairs)`` deposits binned the
    dict way: one running sum per ``(bin, thread)`` cell, upserted in
    deposit order, scattered into ``[bins, threads]`` at the end."""

    period = config.sampling_period
    accum = {kind: {} for kind in config.events}
    for start, end, thread, pairs in deposits:
        if end <= start:
            continue
        first, last = start // period, (end - 1) // period
        for kind, amount in pairs:
            if not amount or kind not in accum:
                continue
            if first == last:
                shares = [(first, amount)]
            else:
                edges = np.arange(first, last + 2, dtype=np.int64) * period
                span = (np.minimum(edges[1:], end)
                        - np.maximum(edges[:-1], start))
                shares = enumerate(
                    (span * (amount / (end - start))).tolist(), first)
            bucket = accum[kind]
            for index, share in shares:
                bucket[(index, thread)] = bucket.get((index, thread),
                                                     0.0) + share
    n_bins = max(1, -(-max(1, end_cycle) // period))
    events = {}
    for kind, bucket in accum.items():
        cells = np.array(list(bucket), dtype=np.intp).reshape(-1, 2)
        used = int(cells[:, 0].max(initial=-1)) + 1
        series = np.zeros((max(used, n_bins), threads))
        series[cells[:, 0], cells[:, 1]] = list(bucket.values())
        events[kind] = arr = series[:n_bins].copy()
        if used > n_bins:
            arr[-1] += series[n_bins:used].sum(axis=0)
    return events


def _assert_series_equal(events, oracle):
    for kind, expected in oracle.items():
        assert events[kind].shape == expected.shape, kind
        assert events[kind].tobytes() == expected.tobytes(), kind


_AMOUNTS = st.one_of(
    st.just(0), st.integers(1, 100),
    st.floats(0, 1, exclude_min=True, exclude_max=True),
    st.integers(2 ** 40, 2 ** 50))


@st.composite
def _deposit_streams(draw):
    period = draw(st.sampled_from([1, 2, 7, 100, 2048]))
    threads = draw(st.integers(1, 4))
    # any subset of the counters, attribution ones included: log kinds
    # left out are disabled, attribution kinds listed get a series
    events = tuple(draw(st.lists(st.sampled_from(list(EventKind)),
                                 unique=True, max_size=8)))
    horizon = 30 * period
    deposits = []
    for _ in range(draw(st.integers(0, 40))):
        start = draw(st.integers(0, horizon))
        length = draw(st.one_of(
            st.integers(-3, 0),                      # empty or inverted
            st.integers(1, period),                  # at most two windows
            st.integers(period + 1, 3 * period),     # two to four
            st.integers(3 * period, 12 * period)))   # many
        pairs = draw(st.lists(st.tuples(st.sampled_from(LOG_KINDS),
                                        _AMOUNTS),
                              unique_by=lambda pair: pair[0], max_size=5))
        deposits.append((start, start + length,
                         draw(st.integers(0, threads - 1)), pairs))
    # runs may end before the last deposits (stragglers)
    end_cycle = draw(st.integers(0, horizon + 6 * period))
    return ProfilingConfig(sampling_period=period, events=events), \
        threads, deposits, end_cycle


class TestDepositLog:
    @pytest.mark.parametrize("block_rows", [1, 7, None])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stream=_deposit_streams())
    def test_binning_matches_dict_oracle(self, block_rows, stream):
        config, threads, deposits, end_cycle = stream
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:
                patch.setattr(recorder_module, "LOG_BLOCK_ROWS", block_rows)
            recorder = ProfilingRecorder(config, threads)
            for start, end, thread, pairs in deposits:
                recorder.add_many(start, end, thread, pairs)
            trace = recorder.finalize(end_cycle)
        oracle = _oracle_series(config, threads, deposits, end_cycle)
        assert list(trace.events) == list(oracle)
        _assert_series_equal(trace.events, oracle)


# ----------------------------------------------------------------------
# the attribution row arrays against the dict recorder they replaced
# ----------------------------------------------------------------------
class _OracleAttr:
    """Attribution kept the dict way: cells created on first deposit,
    one float running sum per ``(bin, thread)`` and kind, upserted in
    deposit order and scattered into ``[bins, threads]`` at the end."""

    def __init__(self, period, threads):
        self.period, self.threads = period, threads
        self.cells = {}
        self.accum = {kind: {} for kind in ATTRIBUTION_EVENTS}

    def attr_deposit(self, start, end, thread, region, amounts):
        cell = self.cells.get((region, thread))
        if cell is None:
            cell = self.cells[(region, thread)] = [0] * len(amounts)
        period = self.period
        if end <= start:
            for slot, amount in enumerate(amounts):
                if amount:
                    cell[slot] += amount
            return
        first_bin, last_bin = start // period, (end - 1) // period
        span = end - start
        for slot, amount in enumerate(amounts):
            if not amount:
                continue
            cell[slot] += amount
            bucket = self.accum[ATTRIBUTION_EVENTS[slot]]
            prev = 0
            for index in range(first_bin, last_bin):
                cum = amount * ((index + 1) * period - start) // span
                if cum != prev:
                    key = (index, thread)
                    bucket[key] = bucket.get(key, 0.0) + (cum - prev)
                    prev = cum
            if amount != prev:
                key = (last_bin, thread)
                bucket[key] = bucket.get(key, 0.0) + (amount - prev)

    def series(self, end_cycle):
        n_bins = max(1, -(-max(1, end_cycle) // self.period))
        events = {}
        for kind, bucket in self.accum.items():
            cells = np.array(list(bucket), dtype=np.intp).reshape(-1, 2)
            used = int(cells[:, 0].max(initial=-1)) + 1
            series = np.zeros((max(used, n_bins), self.threads))
            series[cells[:, 0], cells[:, 1]] = list(bucket.values())
            events[kind] = arr = series[:n_bins].copy()
            if used > n_bins:
                arr[-1] += series[n_bins:used].sum(axis=0)
        return events


_CYCLES = st.one_of(st.just(0), st.integers(1, 50),
                    st.integers(2 ** 30, 2 ** 40))


@st.composite
def _attr_streams(draw):
    # 2**36 lets start cycles reach 2**40 over few windows
    period = draw(st.sampled_from([1, 7, 2048, 2 ** 36]))
    threads = draw(st.integers(1, 8))
    horizon = 16 * period
    deposits = []
    for _ in range(draw(st.integers(0, 40))):
        # None: the first window past the thread's current row array
        start = draw(st.one_of(st.integers(0, horizon), st.none()))
        length = draw(st.one_of(
            st.integers(-3, 0),                      # empty or inverted
            st.integers(1, period),                  # at most two windows
            st.integers(period + 1, 2 * period),     # two or three
            st.integers(2 * period, 6 * period)))    # many
        amounts = tuple(draw(st.lists(_CYCLES, min_size=N_SLOTS,
                                      max_size=N_SLOTS)))
        deposits.append((start, length, draw(st.integers(0, threads - 1)),
                         draw(st.integers(-6, 12)), amounts))
    # runs may end before the last deposits (stragglers)
    end_cycle = draw(st.integers(0, horizon + 4 * period))
    return period, threads, deposits, end_cycle


class TestAttrRows:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stream=_attr_streams())
    def test_rows_match_dict_oracle(self, stream):
        period, threads, deposits, end_cycle = stream
        recorder = ProfilingRecorder(
            ProfilingConfig(sampling_period=period), threads,
            attribution=True)
        oracle = _OracleAttr(period, threads)
        for start, length, thread, region, amounts in deposits:
            if start is None:
                start = len(recorder._attr_bins[thread]) // N_SLOTS * period
            recorder.attr_deposit(start, start + length, thread, region,
                                  amounts)
            oracle.attr_deposit(start, start + length, thread, region,
                                amounts)
        trace = recorder.finalize(end_cycle)
        assert list(trace.attribution.cells.items()) == list(
            oracle.cells.items())
        assert list(trace.events)[-N_SLOTS:] == list(ATTRIBUTION_EVENTS)
        _assert_series_equal(trace.events, oracle.series(end_cycle))


def _gemm(version, mode, attribution):
    return run_gemm(version, dim=16, attribution=attribution,
                    sim_config=SimConfig(thread_start_interval=50,
                                         exec_mode=mode)).result


def _nest(name, mode, attribution):
    src, sizes = NEST_CASES[name]
    return _run(src, mode, attribution, sizes)[0]


def _pi(mode, attribution):
    return run_pi(80_000, attribution=attribution,
                  sim_config=SimConfig(exec_mode=mode)).result


LIVE_RUNS = {f"gemm_{version}": (lambda mode, attr, v=version:
                                 _gemm(v, mode, attr))
             for version in sorted(GEMM_VERSIONS)}
LIVE_RUNS.update({name: (lambda mode, attr, n=name: _nest(n, mode, attr))
                  for name in ("matvec_m32", "matvec_m33", "matvec_m70",
                               "triangular_n40")})
LIVE_RUNS["pi_80k"] = _pi


class TestProfilingConfigsLive:
    """The nest driver's state changes and the bits they cost match the
    reference with states, counters or the whole unit switched off."""

    @pytest.mark.parametrize("version",
                             ["naive", "no_critical", "double_buffered"])
    @pytest.mark.parametrize("config", ["no_states", "no_events",
                                        "disabled"])
    def test_reference_and_auto_agree(self, version, config):
        options = HLSOptions(profiling={
            "no_states": ProfilingConfig(record_states=False),
            "no_events": ProfilingConfig(events=()),
            "disabled": ProfilingConfig.disabled()}[config])
        ref, fast = (
            run_gemm(version, dim=16, options=options,
                     sim_config=SimConfig(thread_start_interval=50,
                                          exec_mode=mode)).result
            for mode in ("reference", "auto"))
        assert ref.cycles == fast.cycles
        assert (ref.trace.trace_bits, ref.trace.flushes) == (
            fast.trace.trace_bits, fast.trace.flushes)
        for ref_cols, fast_cols in zip(ref.trace.timeline,
                                       fast.trace.timeline, strict=True):
            for ref_col, fast_col in zip(ref_cols, fast_cols):
                assert np.array_equal(ref_col, fast_col)


class TestLiveLogReplay:
    """The rows a real run logs — executor and nest driver alike —
    replayed through the dict oracle give the trace's event arrays."""

    @pytest.mark.parametrize("name", sorted(LIVE_RUNS))
    @pytest.mark.parametrize("mode", ["reference", "auto"])
    @pytest.mark.parametrize("attribution", [False, True])
    def test_log_replays_to_the_event_arrays(self, name, mode, attribution,
                                             monkeypatch):
        logs = []
        finalize = ProfilingRecorder.finalize

        def capture(recorder, end_cycle):
            logs.append(array("d", recorder._log))
            return finalize(recorder, end_cycle)

        monkeypatch.setattr(ProfilingRecorder, "finalize", capture)
        result = LIVE_RUNS[name](mode, attribution)
        trace = result.trace
        assert len(logs) == 1 and len(logs[0])
        rows = np.frombuffer(logs[0]).reshape(-1, 3 + len(LOG_KINDS))
        deposits = [(int(start), int(end), int(thread),
                     list(zip(LOG_KINDS, amounts)))
                    for thread, start, end, *amounts in rows.tolist()]
        config = ProfilingConfig(sampling_period=trace.sampling_period)
        oracle = _oracle_series(config, trace.num_threads, deposits,
                                trace.end_cycle)
        assert set(oracle) == set(LOG_KINDS)
        _assert_series_equal(trace.events, oracle)
