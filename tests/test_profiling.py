"""Unit tests for the profiling recorder and RunTrace."""

import numpy as np
import pytest

from repro.profiling import (
    EventKind, ProfilingConfig, ProfilingRecorder, STATE_ENCODING,
    ThreadState,
)


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
        """event_series/window_starts name the missing counter and the
        recorded set instead of a bare KeyError."""

        config = ProfilingConfig(events=(EventKind.FLOPS,))
        recorder = ProfilingRecorder(config, 1)
        trace = recorder.finalize(100)
        with pytest.raises(KeyError, match="stalls.*not recorded.*flops"):
            trace.event_series(EventKind.STALLS)
        with pytest.raises(KeyError, match="ProfilingConfig.events"):
            trace.window_starts(EventKind.MEM_READ_BYTES)

    def test_stragglers_clamped_into_last_bin(self):
        recorder = make_recorder(period=100)
        recorder.add_many(950, 951, 0, ((EventKind.FLOPS, 2),))
        trace = recorder.finalize(500)  # run "ended" before the event bin
        series = trace.event_series(EventKind.FLOPS)
        assert series[-1, 0] == 2

    def test_window_starts(self):
        recorder = make_recorder(period=128)
        recorder.add_many(0, 1, 0, ((EventKind.FLOPS, 1),))
        trace = recorder.finalize(512)
        starts = trace.window_starts(EventKind.FLOPS)
        assert list(starts[:3]) == [0, 128, 256]


class TestFlushAccounting:
    def test_sample_flush_bits(self):
        config = ProfilingConfig()
        recorder = ProfilingRecorder(config, 8)
        bits = recorder.sample_flush_bits()
        assert bits == config.event_record_bits(8)

    def test_drain_pending(self):
        recorder = make_recorder(threads=2)
        recorder.set_state(5, 0, ThreadState.RUNNING)
        pending = recorder.drain_pending_bits()
        assert pending == 2 * 2 + 32
        assert recorder.drain_pending_bits() == 0

    def test_disabled_profiling_produces_no_bits(self):
        recorder = ProfilingRecorder(ProfilingConfig.disabled(), 2)
        recorder.set_state(5, 0, ThreadState.RUNNING)
        assert recorder.sample_flush_bits() == 0
        assert recorder.total_bits == 0
        # but the state timeline still exists (the simulator always knows)
        trace = recorder.finalize(10)
        assert trace.states[0][-1].state is ThreadState.RUNNING
