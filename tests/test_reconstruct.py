"""Round-trip tests: write a trace, reconstruct it, re-derive metrics.

Covers the tentpole guarantee: a saved ``.prv`` (plus companions)
rebuilds into a :class:`RunTrace` on which every existing metric and
``diagnose()`` produce the same answers as the live in-memory run.
"""

import os

import numpy as np
import pytest

from repro.analysis import diagnose
from repro.apps import run_gemm, run_pi
from repro.apps.gemm import GEMM_VERSIONS
from repro.core import SimConfig
from repro.paraver import (
    ParaverParseError, parse_pcf, parse_prv, parse_row,
    reconstruct_run, reconstruct_trace, recover_sampling_period, write_trace,
)
from repro.paraver import parser as prv_parser
from repro.paraver import reconstruct
from repro.paraver.parser import BLOCK_BYTES
from repro.profiling import ThreadState
from repro.report import build_report, reports_to_json

from .test_paraver import add_comm_lines, make_trace, mangle_prv


@pytest.fixture(scope="module")
def gemm_run():
    return run_gemm("naive", dim=32)


@pytest.fixture(scope="module")
def pi_run():
    return run_pi(6400, sim_config=SimConfig(thread_start_interval=5000))


def _write_and_reconstruct(result, tmp_path, name):
    files = write_trace(result.trace, str(tmp_path / name),
                        clock_mhz=result.clock_mhz)
    return files, reconstruct_run(files.prv)


class TestSyntheticRoundTrip:
    def test_states_identical(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"))
        rec = reconstruct_run(files.prv)
        assert rec.trace.num_threads == trace.num_threads
        assert rec.trace.end_cycle == trace.end_cycle
        for thread in range(trace.num_threads):
            assert rec.trace.states[thread] == trace.states[thread]

    def test_sampling_period_from_pcf(self, tmp_path):
        trace = make_trace(period=100)
        files = write_trace(trace, str(tmp_path / "t"))
        rec = reconstruct_run(files.prv)
        assert rec.trace.sampling_period == 100
        assert rec.period_source == "pcf"

    def test_sampling_period_from_cadence(self, tmp_path):
        trace = make_trace(period=100)
        files = write_trace(trace, str(tmp_path / "t"))
        parsed = parse_prv(files.prv)
        assert recover_sampling_period(parsed) == 100
        rebuilt, source, _ = reconstruct_trace(parsed)
        assert rebuilt.sampling_period == 100
        assert source == "cadence"

    def test_event_sums_close(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"))
        rec = reconstruct_run(files.prv)
        for kind, series in trace.events.items():
            rebuilt = rec.trace.events[kind]
            assert rebuilt.shape == series.shape
            # writer truncates per-bin floats to ints: off by < 1/bin
            assert np.all(np.abs(rebuilt - np.floor(series)) <= 1)

    def test_clock_from_pcf_metadata(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"), clock_mhz=123.5)
        rec = reconstruct_run(files.prv)
        assert rec.result.clock_mhz == pytest.approx(123.5)
        assert rec.clock_source == "pcf"

    def test_clock_default_without_pcf(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"))
        parsed = parse_prv(files.prv)
        rec = reconstruct_run(parsed)
        assert rec.result.clock_mhz == pytest.approx(140.0)
        assert rec.clock_source == "default"

    def test_explicit_clock_wins(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"), clock_mhz=123.5)
        rec = reconstruct_run(files.prv, clock_mhz=99.0)
        assert rec.result.clock_mhz == pytest.approx(99.0)
        assert rec.clock_source == "explicit"

    def test_thread_names_from_row(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"))
        rec = reconstruct_run(files.prv)
        assert rec.thread_names == ["HW thread 0", "HW thread 1"]

    def test_unknown_event_types_collected(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"))
        with open(files.prv, "a") as out:
            out.write("2:1:1:1:1:100:99000001:7\n")
        rec = reconstruct_run(files.prv)
        assert rec.unknown_event_types == {99000001: 1}

    def test_idle_gap_filled(self, tmp_path):
        """A trace missing explicit idle records still covers [0, end]."""

        path = tmp_path / "gap.prv"
        path.write_text(
            "#Paraver (01/01/2020 at 00:00):1000:1(1):1:1(1:1)\n"
            "1:1:1:1:1:200:600:1\n")
        rec = reconstruct_run(str(path))
        intervals = rec.trace.states[0]
        assert intervals[0].state is ThreadState.IDLE
        assert (intervals[0].start, intervals[0].end) == (0, 200)
        assert intervals[-1].state is ThreadState.IDLE
        assert (intervals[-1].start, intervals[-1].end) == (600, 1000)
        total = sum(iv.duration for iv in intervals)
        assert total == 1000


class TestCompanionParsers:
    def test_pcf_states_and_events(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"), clock_mhz=140.0)
        pcf = parse_pcf(files.pcf)
        assert pcf.state_names[1] == "Running"
        assert pcf.state_colors[3] == (255, 0, 0)
        assert any("Floating-point" in label
                   for label in pcf.event_labels.values())
        assert pcf.clock_mhz == pytest.approx(140.0)
        assert pcf.sampling_period == trace.sampling_period

    def test_row_levels(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"))
        row = parse_row(files.row)
        assert row.levels["CPU"] == ["HW thread 0", "HW thread 1"]
        assert row.levels["NODE"] == ["fpga-0"]
        assert row.thread_names == ["HW thread 0", "HW thread 1"]


class TestDemoRoundTrip:
    """Satellite: GEMM and π demo traces reconstruct with matching
    state durations, event-window sums and diagnosis."""

    def test_gemm_state_durations_match(self, gemm_run, tmp_path):
        _, rec = _write_and_reconstruct(gemm_run.result, tmp_path, "gemm")
        original = gemm_run.result.trace
        for thread in range(original.num_threads):
            assert rec.trace.state_durations(thread) == \
                original.state_durations(thread)

    def test_gemm_state_fractions_close(self, gemm_run, tmp_path):
        _, rec = _write_and_reconstruct(gemm_run.result, tmp_path, "gemm")
        original = gemm_run.result.trace.state_fractions()
        rebuilt = rec.trace.state_fractions()
        for state in ThreadState:
            assert rebuilt[state] == pytest.approx(original[state],
                                                   abs=1e-6)

    def test_gemm_event_window_sums_close(self, gemm_run, tmp_path):
        _, rec = _write_and_reconstruct(gemm_run.result, tmp_path, "gemm")
        for kind, series in gemm_run.result.trace.events.items():
            rebuilt = rec.trace.events[kind]
            assert rebuilt.shape == series.shape
            assert np.all(np.abs(rebuilt - np.floor(series)) <= 1)

    def test_gemm_diagnosis_matches(self, gemm_run, tmp_path):
        _, rec = _write_and_reconstruct(gemm_run.result, tmp_path, "gemm")
        live = diagnose(gemm_run.result)
        from_file = diagnose(rec.result)
        assert from_file.primary is live.primary
        assert from_file.metrics["sync_fraction"] == pytest.approx(
            live.metrics["sync_fraction"], abs=1e-6)

    def test_pi_diagnosis_matches(self, pi_run, tmp_path):
        _, rec = _write_and_reconstruct(pi_run.result, tmp_path, "pi")
        live = diagnose(pi_run.result)
        from_file = diagnose(rec.result)
        assert from_file.primary is live.primary

    def test_pi_state_durations_match(self, pi_run, tmp_path):
        _, rec = _write_and_reconstruct(pi_run.result, tmp_path, "pi")
        assert rec.trace.state_durations() == \
            pi_run.result.trace.state_durations()


LIVE_RUNS = [(version, attribution)
             for version in [*GEMM_VERSIONS, "pi"]
             for attribution in (False, True)]
LIVE_IDS = [f"{v}-attr" if a else v for v, a in LIVE_RUNS]


def assert_tiles(trace):
    """Each thread's int64 columns tile [0, end_cycle] with no gap, no
    overlap and no empty interval."""

    assert len(trace.timeline) == trace.num_threads
    for cols in trace.timeline:
        assert [col.dtype for col in cols] == [np.int64] * 3
        assert cols.start[0] == 0 and cols.end[-1] == trace.end_cycle
        assert np.array_equal(cols.start[1:], cols.end[:-1])
        assert (cols.end > cols.start).all()


@pytest.fixture(scope="module")
def live_runs():
    runs = {}
    for version, attribution in LIVE_RUNS:
        if version == "pi":
            run = run_pi(6400, sim_config=SimConfig(
                thread_start_interval=5000, attribution=attribution))
        else:
            run = run_gemm(version, dim=16,
                           sim_config=SimConfig(attribution=attribution))
        runs[version, attribution] = run.result
    return runs


class TestBlockFold:
    """The block reader and fold rebuild a live trace exactly, however
    the records fall across blocks and whichever spelling the file
    uses."""

    @pytest.mark.parametrize("with_pcf", [True, False],
                             ids=["pcf", "cadence"])
    @pytest.mark.parametrize("run_key", LIVE_RUNS, ids=LIVE_IDS)
    def test_rebuilds_live_trace(self, live_runs, run_key, with_pcf,
                                 tmp_path, monkeypatch):
        result = live_runs[run_key]
        live = result.trace
        files = write_trace(live, str(tmp_path / "run"),
                            clock_mhz=result.clock_mhz)
        add_comm_lines(files.prv)
        mangle_prv(files.prv)
        if not with_pcf:
            os.remove(files.pcf)
        # 509 bytes: a block holds ~20 records and cuts one at each end
        monkeypatch.setattr(prv_parser, "BLOCK_BYTES", 509)
        rec = reconstruct_run(files.prv)
        rebuilt = rec.trace

        assert rec.period_source == ("pcf" if with_pcf else "cadence")
        assert (rebuilt.num_threads, rebuilt.end_cycle,
                rebuilt.sampling_period) == \
            (live.num_threads, live.end_cycle, live.sampling_period)
        assert_tiles(live)
        assert_tiles(rebuilt)
        for got, want in zip(rebuilt.timeline, live.timeline):
            for column, got_col, want_col in zip(want._fields, got, want):
                assert np.array_equal(got_col, want_col), column
        assert np.array_equal(rebuilt.state_totals(), live.state_totals())
        assert rebuilt.states == live.states
        # the writer stores each window's sum truncated to an integer
        expected = {kind: np.trunc(series)
                    for kind, series in live.events.items()
                    if np.trunc(series).any()}
        assert rebuilt.events.keys() == expected.keys()
        for kind, series in expected.items():
            assert np.array_equal(rebuilt.events[kind], series), kind
        if live.attribution is None:
            assert rebuilt.attribution is None
        elif with_pcf:
            assert rebuilt.attribution == live.attribution
        else:
            # without the .pcf map regions keep their family index
            assert rebuilt.attribution.thread_totals() == \
                live.attribution.thread_totals()
            assert len(rebuilt.attribution.cells) == len(
                [cell for cell in live.attribution.cells.values()
                 if any(cell)])
        assert rec.unknown_event_types == {}

    def test_states_out_of_order_across_blocks(self, tmp_path,
                                               monkeypatch):
        """A file whose state records are not in time order still
        rebuilds the sorted, gap-filled timeline."""

        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"))
        header, *lines = open(files.prv).read().splitlines()
        states = [line for line in lines if line.startswith("1:")]
        others = [line for line in lines if not line.startswith("1:")]
        path = tmp_path / "shuffled.prv"
        path.write_text("\n".join([header] + states[::-1] + others) + "\n")
        monkeypatch.setattr(prv_parser, "BLOCK_BYTES", 40)
        rebuilt, _, _ = reconstruct_trace(str(path))
        assert rebuilt.states == trace.states

    def test_path_and_parsed_forms_agree(self, live_runs, tmp_path):
        result = live_runs["naive", True]
        files = write_trace(result.trace, str(tmp_path / "run"))
        from_path = reconstruct_trace(files.prv)
        from_parsed = reconstruct_trace(parse_prv(files.prv))
        assert from_path[1:] == from_parsed[1:] == ("cadence", {})
        assert from_path[0].states == from_parsed[0].states
        for kind, series in from_path[0].events.items():
            assert np.array_equal(from_parsed[0].events[kind], series)
        assert from_path[0].attribution == from_parsed[0].attribution

    def test_unknown_state_id_names_line(self, tmp_path):
        path = tmp_path / "bad.prv"
        path.write_text(
            "#Paraver (01/01/2020 at 00:00):1000:1(1):1:1(1:1)\n"
            "c:app\n"
            "1:1:1:1:1:0:200:1\n"
            "1:1:1:1:1:200:600:7\n")
        with pytest.raises(ParaverParseError,
                           match=r"bad\.prv:4: unknown state id 7"):
            reconstruct_run(str(path))

    @pytest.mark.parametrize("block_bytes", [40, "default"])
    def test_overlapping_states_refused(self, tmp_path, monkeypatch,
                                        block_bytes):
        """A thread's states tile its time, so two records that overlap
        are refused, in one block or across two."""

        if block_bytes != "default":
            monkeypatch.setattr(prv_parser, "BLOCK_BYTES", block_bytes)
        path = tmp_path / "overlap.prv"
        path.write_text(
            "#Paraver (01/01/2020 at 00:00):100:1(2):1:2(1:1,1:1)\n"
            "1:1:1:1:1:0:100:1\n"
            "1:2:1:2:1:0:60:1\n"
            "1:2:1:2:1:40:100:2\n")
        with pytest.raises(ParaverParseError,
                           match="state records of task 2 overlap at "
                                 "cycle 40"):
            reconstruct_run(str(path))

    def test_state_span_too_wide_for_int64(self, tmp_path):
        """The fold lifts thread t's times by t times their span; a
        span that int64 cannot lift is refused, not wrapped."""

        path = tmp_path / "wide.prv"
        path.write_text(
            "#Paraver (01/01/2020 at 00:00):10:1(2):1:2(1:1,1:1)\n"
            "1:1:1:1:1:0:10:1\n"
            f"1:2:1:2:1:0:{2 ** 62}:1\n")
        with pytest.raises(ParaverParseError, match="too many to fold"):
            reconstruct_run(str(path))


#: block sizes: a record per block or less, a dozen records, the
#: reader's own (larger than most of these files); each is checked
#: against the whole file read as one block
BLOCK_SIZES = [37, 509, "default"]


@pytest.fixture(scope="module")
def block_traces(tmp_path_factory):
    """``.prv`` paths of the five GEMMs at DIM=16 and π at 80k
    iterations, attribution off and on."""

    out = tmp_path_factory.mktemp("blocks")
    paths = {}
    for version, attribution in LIVE_RUNS:
        if version == "pi":
            result = run_pi(80_000, attribution=attribution).result
        else:
            result = run_gemm(version, dim=16,
                              attribution=attribution).result
        name = f"{version}-{'on' if attribution else 'off'}"
        paths[version, attribution] = write_trace(
            result.trace, str(out / name), clock_mhz=result.clock_mhz).prv
    return paths


def folded(path, block_bytes, monkeypatch):
    """Everything a reconstruction yields, as plain comparable values."""

    monkeypatch.setattr(prv_parser, "BLOCK_BYTES", block_bytes)
    run = reconstruct_run(path)
    trace = run.trace
    attribution = trace.attribution
    return {
        "timeline": [[col.tolist() for col in cols]
                     for cols in trace.timeline],
        "events": [(kind, series.dtype.str, series.shape, series.tobytes())
                   for kind, series in trace.events.items()],
        "attribution": None if attribution is None else (
            list(attribution.cells.items()), attribution.regions),
        "unknown": list(run.unknown_event_types.items()),
        "sources": (run.period_source, run.clock_source),
        "report": reports_to_json([build_report(
            run.result, label="run", source=path,
            thread_names=run.thread_names)]),
    }


class TestBlockIndependence:
    """However a live trace falls into blocks, the fold gives what one
    block holding the whole file gives."""

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize("run_key", LIVE_RUNS, ids=LIVE_IDS)
    def test_matches_one_block_fold(self, block_traces, run_key,
                                    block_bytes, monkeypatch):
        path = block_traces[run_key]
        whole = os.path.getsize(path) + 1
        expected = folded(path, whole, monkeypatch)
        if block_bytes == "default":
            block_bytes = BLOCK_BYTES
        got = folded(path, block_bytes, monkeypatch)
        for key, value in expected.items():
            assert got[key] == value, key
        # the in-memory form folds the parsed records as one block too
        trace, _, unknown = reconstruct_trace(
            parse_prv(path), pcf=parse_pcf(path[:-len(".prv")] + ".pcf"))
        assert [[col.tolist() for col in cols]
                for cols in trace.timeline] == expected["timeline"]
        assert [(kind, series.tobytes())
                for kind, series in trace.events.items()] == \
            [(kind, data) for kind, _, _, data in expected["events"]]
        assert list(unknown.items()) == expected["unknown"]

    def test_out_of_order_states_refold(self, tmp_path, monkeypatch):
        """Thread 2's states run backwards across the first block
        boundary: the streamed fold gives up and folds the file again
        as one block, sorting them and padding thread 2's gaps, which
        lie before thread 1's furthest end."""

        path = tmp_path / "backwards.prv"
        path.write_text(
            "#Paraver (01/01/2020 at 00:00):1000:1(2):1:2(1:1,1:1)\n"
            "1:1:1:1:1:0:100:1\n"
            "1:2:1:2:1:600:900:2\n"
            "1:1:1:1:1:100:700:3\n"     # the first 60-byte block ends here
            "1:2:1:2:1:200:400:1\n"
            "2:1:1:1:1:1000:42000002:7\n")
        folds = []
        real_fold = reconstruct._fold

        def counting_fold(*args):
            folds.append(args)
            return real_fold(*args)

        monkeypatch.setattr(reconstruct, "_fold", counting_fold)
        expected = folded(str(path), path.stat().st_size + 1, monkeypatch)
        assert len(folds) == 1
        got = folded(str(path), 60, monkeypatch)
        assert len(folds) == 3  # the streamed fold, then the refold
        assert got == expected
        assert expected["timeline"] == [
            [[0, 100, 700], [100, 700, 1000], [1, 3, 0]],
            [[0, 200, 400, 600, 900], [200, 400, 600, 900, 1000],
             [0, 1, 0, 2, 0]]]
