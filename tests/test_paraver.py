"""Tests for the Paraver writer, parser and analysis (round trips)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.paraver import (
    EVENT_TYPE_IDS, STATE_GLYPHS, STATE_IDS, CommRecord, ParaverParseError,
    bandwidth_series_gbs, gflops_series, parse_prv, phase_overlap,
    render_series, render_state_timeline, state_occupancy,
    thread_activity_windows, write_trace,
)
from repro.paraver import format as prv_format
from repro.paraver import parser as prv_parser
from repro.paraver.format import ATTR_EVENT_BASE, ATTR_EVENT_STRIDE
from repro.profiling import (
    EventKind, ProfilingConfig, ProfilingRecorder, RunTrace, StateColumns,
    ThreadState,
)
from repro.profiling.attribution import N_SLOTS, AttributionTable
from repro.report import build_report
from repro.report.html import _state_runs
from repro.sim.executor import SimResult


def make_trace(threads: int = 2, period: int = 100, end: int = 1000):
    recorder = ProfilingRecorder(ProfilingConfig(sampling_period=period),
                                 threads)
    recorder.set_state(10, 0, ThreadState.RUNNING)
    recorder.set_state(500, 0, ThreadState.CRITICAL)
    recorder.set_state(550, 0, ThreadState.RUNNING)
    recorder.set_state(900, 0, ThreadState.IDLE)
    recorder.set_state(20, 1, ThreadState.RUNNING)
    recorder.set_state(480, 1, ThreadState.SPINNING)
    recorder.set_state(560, 1, ThreadState.RUNNING)
    recorder.set_state(950, 1, ThreadState.IDLE)
    recorder.add_many(0, 500, 0, ((EventKind.FLOPS, 5000),
                                  (EventKind.MEM_READ_BYTES, 64000)))
    recorder.add_many(400, 900, 1, ((EventKind.FLOPS, 2000),))
    recorder.add_many(120, 121, 1, ((EventKind.STALLS, 42),))
    recorder.add_many(130, 131, 0, ((EventKind.MEM_WRITE_BYTES, 256),))
    recorder.add_many(140, 141, 0, ((EventKind.INTOPS, 10),))
    return recorder.finalize(end)


def as_result(trace: RunTrace, clock_mhz: float = 100.0) -> SimResult:
    """A SimResult around a hand-built trace (no buffers, no DRAM)."""

    return SimResult(cycles=trace.end_cycle, clock_mhz=clock_mhz,
                     trace=trace, buffers={},
                     stalls=[0] * trace.num_threads, dram_bytes_read=0,
                     dram_bytes_written=0, dram_requests=0,
                     dram_row_misses=0)


def mangle_prv(path: str) -> None:
    """Rewrite a written ``.prv`` into an equivalent one that uses the
    format's other spellings: ``c:``/``#`` comment and blank lines
    between records, event lines of one object and time merged into one
    multi-pair line, and no newline after the last line."""

    with open(path) as handle:
        header, *lines = handle.read().splitlines()
    out = [header]
    merged = 0
    for i, line in enumerate(lines):
        fields = line.split(":")
        if fields[0] == "2" and out[-1].startswith("2:") \
                and out[-1].split(":")[:6] == fields[:6]:
            out[-1] += ":" + ":".join(fields[6:])
            merged += 1
            continue
        if i % 5 == 2:
            out.append(("c:note", "# note", "")[i % 3])
        out.append(line)
    with open(path, "w") as handle:
        handle.write("\n".join(out))
    assert merged, "no event lines to merge: the rewrite tests nothing"


class TestWriter:
    def test_three_files(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        for path in (files.prv, files.pcf, files.row):
            assert (tmp_path / path.split("/")[-1]).exists()

    def test_prv_header(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        header = open(files.prv).readline()
        assert header.startswith("#Paraver")
        assert ":1000:" in header  # end time

    def test_pcf_contains_states_and_events(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        pcf = open(files.pcf).read()
        for name in ("Idle", "Running", "Critical", "Spinning"):
            assert name in pcf
        assert str(EVENT_TYPE_IDS[EventKind.FLOPS]) in pcf
        assert "STATES_COLOR" in pcf

    def test_row_labels(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        row = open(files.row).read()
        assert "HW thread 0" in row and "HW thread 1" in row

    def test_records_sorted_by_time(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        times = []
        for line in open(files.prv):
            if line[0] in "12":
                fields = line.split(":")
                times.append(int(fields[5]))
        assert times == sorted(times)

    def test_prv_extension_respected(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run.prv"))
        assert files.prv.endswith("run.prv")
        assert files.pcf.endswith("run.pcf")


class TestRoundTrip:
    def test_states_roundtrip(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        parsed = parse_prv(files.prv)
        assert parsed.end_time == 1000
        assert parsed.num_tasks == 2
        # total per-state durations must match
        durations = parsed.state_durations()
        original = trace.state_durations()
        for state in ThreadState:
            assert durations.get(STATE_IDS[state], 0) == original[state]

    def test_events_roundtrip(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        parsed = parse_prv(files.prv)
        flops_events = parsed.events_of_type(EVENT_TYPE_IDS[EventKind.FLOPS])
        total = sum(e.value for e in flops_events)
        assert total == pytest.approx(7000, abs=len(flops_events))

    def test_parse_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.prv"
        path.write_text("not a paraver file\n")
        with pytest.raises(ParaverParseError):
            parse_prv(str(path))

    def test_parse_rejects_inverted_state_record(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        content = open(files.prv).read() + "1:1:1:1:1:500:100:1\n"
        path = tmp_path / "bad.prv"
        path.write_text(content)
        with pytest.raises(ParaverParseError, match="ends before it begins"):
            parse_prv(str(path))

    def test_parse_rejects_bad_record(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "run"))
        content = open(files.prv).read() + "2:1:1:1:1:10:99\n"  # odd pairs
        path = tmp_path / "bad.prv"
        path.write_text(content)
        with pytest.raises(ParaverParseError):
            parse_prv(str(path))


def _insert_line(tmp_path, line: str, at: int = 6) -> str:
    """A written trace with ``line`` inserted as line ``at``."""

    files = write_trace(make_trace(), str(tmp_path / "run"))
    lines = open(files.prv).read().splitlines()
    lines.insert(at - 1, line)
    path = tmp_path / "bad.prv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(params=[prv_parser.BLOCK_BYTES, 5], ids=["block", "5B"])
def block_bytes(request, monkeypatch):
    """Run a test at the reader's block size and at one so small that
    every record straddles block boundaries."""

    monkeypatch.setattr(prv_parser, "BLOCK_BYTES", request.param)
    return request.param


class TestMalformedRecords:
    """Every malformed record raises ParaverParseError naming path:line."""

    @pytest.mark.parametrize("line,message", [
        ("2:1:1:1:1:2048", "event record has no type:value pair"),
        ("1:1:1:1:1:0:50:1:9:9", "state record has 10 fields, expected 8"),
        ("3:1:1:1:1:100:105:2:1:2:1:300:310:4096:1:7",
         "communication record has 16 fields, expected 15"),
        ("1:1:1:1:1:0:50:7", "unknown state id 7"),
        ("1:1:1:1:1:500:100:1",
         r"state record ends before it begins \(100 < 500\)"),
        ("2:1:1:1:1:10:99", "odd type:value list"),
        ("2:1:1:1:1:10:99:1:98", "odd type:value list"),
        ("9:1:1", "unknown record type 9"),
        ("1:1:1:1:1:0:5x:1", "field is not an integer"),
        ("2:1:1:1:1: :42000002:5", "field is not an integer"),
        ("2:1:1:1:1:-:42000002:5", "field is not an integer"),
        ("2:1:1:1:1:10:42000002:", "field is not an integer"),
        ("2:1:1:1:1:10:42000002:99999999999999999999",
         "field is not an integer"),
    ])
    def test_reports_path_and_line(self, tmp_path, block_bytes, line,
                                   message):
        path = _insert_line(tmp_path, line)
        with pytest.raises(ParaverParseError,
                           match=rf"bad\.prv:6: {message}"):
            parse_prv(path)

    def test_earlier_error_reported_before_unparsable_line(
            self, tmp_path, block_bytes):
        files = write_trace(make_trace(), str(tmp_path / "run"))
        lines = open(files.prv).read().splitlines()
        lines[3:3] = ["2:1:1:1:1:2048", "1:1:1:1:1:x:50:1"]
        path = tmp_path / "bad.prv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParaverParseError,
                           match=r"bad\.prv:4: event record has no"):
            parse_prv(str(path))

    def test_last_line_without_newline(self, tmp_path, block_bytes):
        files = write_trace(make_trace(), str(tmp_path / "run"))
        lines = open(files.prv).read().splitlines()
        path = tmp_path / "bad.prv"
        path.write_text("\n".join(lines) + "\n1:1:1:1:1:0")
        with pytest.raises(ParaverParseError,
                           match=rf"bad\.prv:{len(lines) + 1}: state record "
                                 r"has 6 fields"):
            parse_prv(str(path))


class TestBlockBoundaries:
    """Records straddling the reader's blocks parse as if read whole."""

    def _records(self, parsed):
        return (parsed.end_time, parsed.num_tasks, parsed.states,
                parsed.events, parsed.comms)

    def test_mangled_trace_parses_identically(self, tmp_path, monkeypatch):
        comms = [CommRecord(0, 1, 100, 105, 300, 310, 4096, tag=1),
                 CommRecord(1, 0, 400, 402, 500, 501, 64)]
        files = write_trace(make_trace(), str(tmp_path / "run"),
                            comms=comms)
        expected = self._records(parse_prv(files.prv))
        mangle_prv(files.prv)
        for size in (1, 2, 3, 7, 16, 61, prv_parser.BLOCK_BYTES):
            monkeypatch.setattr(prv_parser, "BLOCK_BYTES", size)
            assert self._records(parse_prv(files.prv)) == expected, size
        assert len(expected[4]) == 2

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_newlines_and_indented_lines(self, tmp_path, block_bytes,
                                               newline):
        files = write_trace(make_trace(), str(tmp_path / "run"))
        expected = self._records(parse_prv(files.prv))
        header, *lines = open(files.prv).read().splitlines()
        body = [header, "  # indented comment", "\t", " c:x"]
        body += ["  " + line for line in lines] + ["2:1:1:1:1:x:1:1"]
        path = tmp_path / "newlines.prv"
        path.write_bytes(newline.join(body).encode())
        with pytest.raises(ParaverParseError,
                           match=rf"newlines\.prv:{len(body)}: field is not"):
            parse_prv(str(path))
        path.write_bytes(newline.join(body[:-1]).encode() + newline.encode())
        assert self._records(parse_prv(str(path))) == expected


class TestAnalysis:
    def test_state_fractions(self):
        trace = make_trace()
        fractions = trace.state_fractions()
        assert fractions[ThreadState.CRITICAL] > 0
        assert fractions[ThreadState.SPINNING] > 0
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_bandwidth_series(self):
        trace = make_trace()
        bw = bandwidth_series_gbs(trace, clock_mhz=100.0)
        assert bw.shape == (10,)
        assert bw.max() > 0

    def test_gflops_series_and_total(self):
        trace = make_trace()
        series = gflops_series(trace, clock_mhz=100.0)
        assert series.sum() > 0
        total = as_result(trace).gflops
        seconds = 1000 / 100e6
        assert total == pytest.approx(7000 / 1e9 / seconds, rel=1e-6)

    def test_load_balance_range(self):
        trace = make_trace()
        balance = build_report(as_result(trace)).efficiency.balance
        assert 0 < balance <= 1.0

    def test_thread_activity_windows(self):
        trace = make_trace()
        spans = thread_activity_windows(trace)
        assert spans[0, 0] == 10 and spans[0, 1] == 900
        assert spans[1, 0] == 20 and spans[1, 1] == 950

    def test_phase_overlap_counts(self):
        trace = make_trace()
        phases = phase_overlap(trace)
        assert phases.total == 10
        assert 0 <= phases.overlap_fraction <= 1


class TestRender:
    def test_state_timeline_shape(self):
        trace = make_trace()
        text = render_state_timeline(trace, width=50)
        lines = text.splitlines()
        assert len(lines) == 3  # 2 threads + legend
        assert lines[0].startswith("t0: ")
        assert len(lines[0]) == len("t0: ") + 50

    def test_state_timeline_content(self):
        trace = make_trace()
        text = render_state_timeline(trace, width=100)
        assert "#" in text  # running
        assert "C" in text.splitlines()[0]  # thread 0 critical phase

    def test_zoom_window(self):
        trace = make_trace()
        text = render_state_timeline(trace, width=20, start=480, end=560)
        assert "s" in text.splitlines()[1]  # thread 1 spinning in the window

    def test_empty_window_rejected(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            render_state_timeline(trace, start=100, end=100)

    def test_tie_goes_to_lowest_state_id(self):
        # one 4-cycle bucket, two cycles each of Spinning then Running
        trace = RunTrace(1, 4, 100, [StateColumns(
            np.array([0, 2]), np.array([2, 4]),
            np.array([ThreadState.SPINNING, ThreadState.RUNNING]))], {})
        assert render_state_timeline(trace, width=1).splitlines()[0] == \
            "t0: #"
        assert _state_runs(trace, 0, 1) == [(0, 1, ThreadState.RUNNING)]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_rasterizer_matches_per_cycle_oracle(self, data):
        """state_occupancy, the ASCII glyphs and the HTML runs against a
        brute-force per-cycle count, on random tilings of [0, end)."""

        end = data.draw(st.integers(1, 120), label="end_cycle")
        timeline, per_cycle = [], []
        for _ in range(data.draw(st.integers(1, 3), label="threads")):
            cuts = sorted(data.draw(st.sets(st.integers(1, end - 1),
                                            max_size=12), label="cuts")) \
                if end > 1 else []
            bounds = [0] + cuts + [end]
            states = data.draw(st.lists(st.sampled_from(list(ThreadState)),
                                        min_size=len(bounds) - 1,
                                        max_size=len(bounds) - 1),
                               label="states")
            timeline.append(StateColumns(*np.array(
                [bounds[:-1], bounds[1:], states], dtype=np.int64)))
            per_cycle.append([state for state, lo, hi
                              in zip(states, bounds, bounds[1:])
                              for _ in range(lo, hi)])
        trace = RunTrace(len(timeline), end, 100, timeline, {})
        # windows may run past end_cycle; widths reach above the span
        start = data.draw(st.integers(0, end - 1), label="start")
        stop = data.draw(st.integers(start + 1, end + 30), label="stop")
        width = data.draw(st.integers(1, stop - start + 8), label="width")

        def oracle(thread, lo, hi, buckets):
            occupancy = np.zeros((buckets, len(ThreadState)), np.int64)
            edges = [lo + b * (hi - lo) // buckets
                     for b in range(buckets + 1)]
            for cycle in range(lo, min(hi, end)):
                for b in range(buckets):
                    if edges[b] <= cycle < edges[b + 1]:
                        occupancy[b, per_cycle[thread][cycle]] += 1
            return occupancy

        def dominant(row):
            # the first (lowest-id) maximum; None for an empty bucket
            best = None
            for state in ThreadState:
                if row[state] and (best is None or row[state] > row[best]):
                    best = state
            return best

        lines = render_state_timeline(trace, width, start, stop).splitlines()
        for thread in range(trace.num_threads):
            expected = oracle(thread, start, stop, width)
            got = state_occupancy(trace, thread, start, stop, width)
            assert np.array_equal(got, expected)
            glyphs = "".join(STATE_GLYPHS[dominant(row) or ThreadState.IDLE]
                             for row in expected)
            assert lines[thread] == f"t{thread}: {glyphs}"

            buckets = data.draw(st.integers(1, end + 8), label="buckets")
            codes = []
            for row in oracle(thread, 0, end, buckets):
                row[ThreadState.IDLE] = 0
                codes.append(dominant(row))
            runs = []
            for b, state in enumerate(codes):
                if b and codes[b - 1] == state:
                    runs[-1][1] = b + 1
                else:
                    runs.append([b, b + 1, state])
            assert _state_runs(trace, thread, buckets) == \
                [tuple(run) for run in runs if run[2] is not None]

    def test_render_series(self):
        text = render_series([0, 1, 2, 3, 4], width=5, height=3, label="x")
        lines = text.splitlines()
        assert lines[0].startswith("x")
        assert len(lines) == 5  # label + 3 rows + axis

    def test_render_series_downsamples(self):
        text = render_series(list(range(1000)), width=10, height=2)
        axis = text.splitlines()[-1]
        assert len(axis) == 10

    def test_render_empty_series(self):
        assert "empty" in render_series([], label="y")


class TestCommRecords:
    """Communication-record scaffolding (future-work §VII in the paper)."""

    def _comms(self):
        from repro.paraver import CommRecord
        return [CommRecord(0, 1, 100, 105, 300, 310, 4096, tag=1),
                CommRecord(1, 0, 400, 402, 500, 501, 64)]

    def test_comm_roundtrip(self, tmp_path):
        from repro.paraver import write_trace, parse_prv
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "comm"),
                            comms=self._comms())
        parsed = parse_prv(files.prv)
        assert len(parsed.comms) == 2
        first = parsed.comms[0]
        assert (first.src_task, first.dst_task) == (1, 2)
        assert first.size == 4096 and first.tag == 1

    def test_comm_records_time_sorted(self, tmp_path):
        from repro.paraver import write_trace
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "comm"),
                            comms=list(reversed(self._comms())))
        times = [int(line.split(":")[5]) for line in open(files.prv)
                 if line.startswith("3:")]
        assert times == sorted(times)

    def test_no_comms_by_default(self, tmp_path):
        from repro.paraver import write_trace, parse_prv
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "plain"))
        assert parse_prv(files.prv).comms == []


# ----------------------------------------------------------------------
# the block writer against the per-record writer it replaced
# ----------------------------------------------------------------------
def _oracle_prv(trace, application="accelerator", comms=()):
    """The ``.prv`` text as the per-record writer made it: one
    ``(time, order, line)`` tuple per record, one stable Python sort."""

    records = []
    for thread, cols in enumerate(trace.timeline):
        head = f"1:{thread + 1}:1:{thread + 1}:1:"
        records.extend((start, 0, f"{head}{start}:{end}:{state}")
                       for start, end, state
                       in zip(*(col.tolist() for col in cols)))
    period = trace.sampling_period
    for kind, series in trace.events.items():
        bins, threads = series.shape
        for b in range(bins):
            time = min((b + 1) * period, trace.end_cycle)
            for t in range(threads):
                value = int(series[b, t])
                if value:
                    records.append((time, 1, f"2:{t + 1}:1:{t + 1}:1:{time}"
                                    f":{EVENT_TYPE_IDS[kind]}:{value}"))
    for comm in comms:
        src, dst = comm.src_thread + 1, comm.dst_thread + 1
        records.append((comm.logical_send, 2,
                        f"3:{src}:1:{src}:1:{comm.logical_send}:"
                        f"{comm.physical_send}:{dst}:1:{dst}:1:"
                        f"{comm.logical_recv}:{comm.physical_recv}:"
                        f"{comm.size}:{comm.tag}"))
    if trace.attribution is not None:
        end = trace.end_cycle
        index_of = {key: i for i, key in enumerate(
            prv_format._attr_region_keys(trace.attribution))}
        for (region, t), cell in sorted(
                trace.attribution.cells.items(),
                key=lambda item: (index_of[item[0][0]], item[0][1])):
            base = ATTR_EVENT_BASE + index_of[region] * ATTR_EVENT_STRIDE
            for slot, value in enumerate(cell):
                if value:
                    records.append((end, 3, f"2:{t + 1}:1:{t + 1}:1:{end}:"
                                            f"{base + slot}:{value}"))
    records.sort(key=lambda rec: (rec[0], rec[1]))
    body = "".join(line + "\n" for _, _, line in records)
    return f"{prv_format._header(trace)}\nc:{application}\n{body}"


def _live_trace(app, attribution):
    from repro.apps import run_gemm, run_pi
    from repro.sim import SimConfig
    cfg = SimConfig(thread_start_interval=50, attribution=attribution)
    if app == "pi":
        return run_pi(3200, num_threads=4, sim_config=cfg).result.trace
    return run_gemm(app, dim=16, num_threads=4, sim_config=cfg).result.trace


@st.composite
def _traces(draw):
    """Random tilings, event values at the int() truncation edges, comm
    records and attribution totals that tie in time with the rest."""

    threads = draw(st.integers(1, 3))
    period = draw(st.integers(1, 40))
    end = draw(st.integers(1, 200))
    timeline = []
    cuts_seen = []
    for _ in range(threads):
        cuts = sorted(draw(st.sets(st.integers(1, end - 1), max_size=8))
                      if end > 1 else set())
        starts = [0] + cuts
        ends = cuts + [end]
        states = draw(st.lists(st.sampled_from([int(s) for s in ThreadState]),
                               min_size=len(starts), max_size=len(starts)))
        timeline.append(StateColumns(*(np.array(col, dtype=np.int64)
                                       for col in (starts, ends, states))))
        cuts_seen += starts
    values = st.sampled_from([0.0, 0.0, 0.25, 0.999, 1.0, 2.5, 7.0,
                              2.0 ** 31 - 1, 2.0 ** 31, 2.0 ** 31 + 0.5,
                              2.0 ** 40])
    bins = -(-end // period) + draw(st.integers(0, 2))  # clamped tail bins
    kinds = draw(st.lists(st.sampled_from(list(EVENT_TYPE_IDS)),
                          unique=True, max_size=3))
    events = {kind: np.array(draw(st.lists(values, min_size=bins * threads,
                                           max_size=bins * threads)),
                             dtype=np.float64).reshape(bins, threads)
              for kind in kinds}
    times = st.sampled_from(cuts_seen + [min(period, end), end])
    comms = [CommRecord(draw(st.integers(0, threads - 1)),
                        draw(st.integers(0, threads - 1)), send, send + 1,
                        send + 2, send + 3, draw(st.integers(0, 4096)))
             for send in draw(st.lists(st.one_of(times, st.integers(0, end)),
                                       max_size=4))]
    attribution = None
    if draw(st.booleans()):
        attribution = AttributionTable(threads)
        for _ in range(draw(st.integers(0, 4))):
            attribution.deposit(draw(st.integers(-3, 5)),
                                draw(st.integers(0, threads - 1)),
                                draw(st.lists(st.integers(0, 2 ** 40),
                                              min_size=N_SLOTS,
                                              max_size=N_SLOTS)))
    trace = RunTrace(num_threads=threads, end_cycle=end,
                     sampling_period=period, timeline=timeline,
                     events=events, attribution=attribution)
    return trace, comms


class TestBlockWriter:
    @pytest.mark.parametrize("attribution", [False, True])
    @pytest.mark.parametrize("app", ["naive", "no_critical", "vectorized",
                                     "blocked", "double_buffered", "pi"])
    def test_live_traces_match_the_per_record_writer(self, tmp_path, app,
                                                     attribution):
        trace = _live_trace(app, attribution)
        files = write_trace(trace, str(tmp_path / app))
        assert open(files.prv).read() == _oracle_prv(trace)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_traces(), block=st.sampled_from([1, 7, 8192]))
    def test_random_traces_match_the_per_record_writer(self, case, block):
        import tempfile
        trace, comms = case
        with mock.patch.object(prv_format, "BLOCK_RECORDS", block), \
                tempfile.TemporaryDirectory() as tmp:
            files = write_trace(trace, f"{tmp}/run", comms=comms)
            text = open(files.prv).read()
        assert text == _oracle_prv(trace, comms=comms)

    def test_records_counter_counts_body_lines(self, tmp_path):
        from repro import telemetry
        trace = _live_trace("naive", True)
        session = telemetry.configure(enabled=True)
        try:
            files = write_trace(trace, str(tmp_path / "run"),
                                comms=TestCommRecords()._comms())
            records = session.counters["paraver.records"]
        finally:
            telemetry.configure(enabled=False)
        lines = open(files.prv).read().splitlines()
        assert records == len(lines) - 2  # header and c: line
