"""Tests for the toolchain telemetry layer (spans/counters/exporters)."""

import json

import pytest

from repro import telemetry
from repro.telemetry.core import _NULL_SPAN, Telemetry


@pytest.fixture(autouse=True)
def _disabled_after():
    """Leave the process-wide registry disabled after every test."""

    yield
    telemetry.configure(enabled=False)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        t = Telemetry(enabled=True)
        with t.span("outer") as outer:
            with t.span("inner"):
                pass
        assert [s.name for s in t.spans] == ["inner", "outer"]
        inner, outer_rec = t.spans
        assert inner.parent == outer.id
        assert inner.depth == 1
        assert outer_rec.parent == -1
        assert outer_rec.depth == 0
        # the parent's interval covers the child's
        assert outer_rec.start_ns <= inner.start_ns
        assert outer_rec.end_ns >= inner.end_ns

    def test_span_args_annotations(self):
        t = Telemetry(enabled=True)
        with t.span("phase", kernel="gemm") as sp:
            sp.set(threads=8)
        assert t.spans[0].args == {"kernel": "gemm", "threads": 8}

    def test_phase_totals_aggregate_roots_only(self):
        t = Telemetry(enabled=True)
        for _ in range(3):
            with t.span("frontend"):
                with t.span("frontend.lexer"):
                    pass
        totals = t.phase_totals_ms()
        assert set(totals) == {"frontend"}
        assert totals["frontend"] >= 0

    def test_traced_decorator(self):
        t = Telemetry(enabled=True)

        @t.traced("work", category="test")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert [s.name for s in t.spans] == ["work"]
        assert t.spans[0].category == "test"


# ----------------------------------------------------------------------
# counters / gauges
# ----------------------------------------------------------------------
class TestCounters:
    def test_counter_accumulates(self):
        t = Telemetry(enabled=True)
        t.add("events", 3)
        t.add("events", 4)
        t.add("other")
        assert t.counters == {"events": 7.0, "other": 1.0}

    def test_gauges(self):
        t = Telemetry(enabled=True)
        t.set_gauge("fmax", 140.0)
        t.set_gauge("fmax", 120.0)
        t.max_gauge("peak", 5)
        t.max_gauge("peak", 3)
        assert t.gauges == {"fmax": 120.0, "peak": 5.0}


# ----------------------------------------------------------------------
# disabled-mode no-op path
# ----------------------------------------------------------------------
class TestDisabled:
    def test_disabled_records_nothing(self):
        t = Telemetry(enabled=False)
        with t.span("x"):
            t.add("c", 5)
            t.set_gauge("g", 1)
            t.max_gauge("m", 1)
        assert t.spans == []
        assert t.counters == {}
        assert t.gauges == {}

    def test_disabled_span_is_shared_noop(self):
        t = Telemetry(enabled=False)
        assert t.span("a") is _NULL_SPAN
        assert t.span("b") is t.span("c")
        # and the global helpers take the same path
        assert telemetry.span("d") is _NULL_SPAN

    def test_global_registry_disabled_by_default(self):
        assert not telemetry.telemetry_enabled()
        telemetry.add("never", 1)
        assert "never" not in telemetry.get_telemetry().counters

    def test_traced_decorator_passthrough_when_disabled(self):
        t = Telemetry(enabled=False)

        @t.traced()
        def work():
            return 42

        assert work() == 42
        assert t.spans == []


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _session_with_data() -> Telemetry:
    t = Telemetry(enabled=True)
    with t.span("frontend", category="frontend"):
        with t.span("frontend.lexer", category="frontend"):
            pass
    with t.span("hls", category="hls"):
        pass
    t.add("hls.loops.pipelined", 2)
    t.set_gauge("hls.fmax_mhz", 140.0)
    return t


class TestExporters:
    def test_summary_contains_tree_and_counters(self):
        text = telemetry.render_summary(_session_with_data())
        assert "frontend" in text
        assert "  frontend.lexer" in text  # indented under its parent
        assert "hls.loops.pipelined" in text
        assert "hls.fmax_mhz" in text

    def test_jsonl_roundtrip(self, tmp_path):
        t = _session_with_data()
        path = str(tmp_path / "m.jsonl")
        telemetry.write_jsonl(t, path)
        records = telemetry.read_jsonl(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 3
        assert "counter" in kinds and "gauge" in kinds
        # spans are ordered by start time
        ts = [r["ts_us"] for r in records if r["kind"] == "span"]
        assert ts == sorted(ts)
        summary = telemetry.summarize_records(records)
        assert "frontend" in summary
        assert "hls" in summary

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            telemetry.read_jsonl(str(path))
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            telemetry.read_jsonl(str(path))

    def test_chrome_trace_valid_and_ordered(self, tmp_path):
        t = _session_with_data()
        path = str(tmp_path / "trace.json")
        telemetry.write_chrome_trace(t, path)
        with open(path) as handle:
            payload = json.load(handle)  # golden: must be valid JSON
        events = payload["traceEvents"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts), "ts fields must be monotonically ordered"
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "frontend", "frontend.lexer", "hls"}
        assert all(e["dur"] >= 0 for e in complete)
        counter_tracks = [e for e in events if e["ph"] == "C"]
        assert counter_tracks and counter_tracks[0]["args"]["value"] == 2


# ----------------------------------------------------------------------
# end-to-end: the whole pipeline reports through the registry
# ----------------------------------------------------------------------
VADD = """
void vadd(float* a, float* b, float* c, int n) {
  #pragma omp target parallel map(to:a[0:n], b[0:n]) map(from:c[0:n]) \\
      num_threads(2)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      c[i] = a[i] + b[i];
    }
  }
}
"""


class TestPipelineInstrumentation:
    def test_all_phases_report(self, tmp_path):
        import numpy as np

        from repro import Program
        from repro.paraver import write_trace

        session = telemetry.configure(enabled=True)
        program = Program(VADD)
        n = 16
        a = np.ones(n, dtype=np.float32)
        b = np.ones(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        outcome = program.run(a=a, b=b, c=c, n=n)
        write_trace(outcome.sim.trace, str(tmp_path / "t"))

        phases = session.phase_totals_ms()
        assert {"frontend", "hls", "sim", "paraver"} <= set(phases)
        assert all(ms > 0 for ms in phases.values())
        counters = session.counters
        assert counters["sim.events_fired"] > 0
        assert counters["paraver.records"] > 0
        assert counters["frontend.tokens"] > 0
        assert counters["hls.loops.scheduled"] >= 1

    def test_trace_reader_reports(self, tmp_path, monkeypatch):
        import numpy as np

        from repro import Program
        from repro.paraver import parser, reconstruct_run, write_trace

        program = Program(VADD)
        n = 64
        outcome = program.run(a=np.ones(n, dtype=np.float32),
                              b=np.ones(n, dtype=np.float32),
                              c=np.zeros(n, dtype=np.float32), n=n)
        files = write_trace(outcome.sim.trace, str(tmp_path / "t"))
        with open(files.prv, "rb") as handle:
            header, body = handle.readline(), handle.read()
        records = sum(not line.startswith(b"c:")
                      for line in body.splitlines())
        monkeypatch.setattr(parser, "BLOCK_BYTES", 100)

        session = telemetry.get_telemetry()
        assert not session.enabled  # off by default
        reconstruct_run(files.prv)
        assert session.spans == [] and session.counters == {}
        with session.capture(enabled=True):
            reconstruct_run(files.prv)  # the .pcf holds the period
            spans = [span.name for span in session.spans]
            counters = dict(session.counters)
        assert spans == ["paraver.reconstruct"]
        assert counters == {
            "paraver.read.bytes": len(header) + len(body),
            "paraver.read.blocks": -(-len(body) // 100),
            "paraver.read.records": records}

    def test_telemetry_does_not_perturb_simulation(self):
        import numpy as np

        from repro import Program

        def run_once():
            program = Program(VADD)
            n = 32
            args = dict(a=np.ones(n, dtype=np.float32),
                        b=np.ones(n, dtype=np.float32),
                        c=np.zeros(n, dtype=np.float32), n=n)
            return program.run(**args).sim.cycles

        telemetry.configure(enabled=False)
        baseline = run_once()
        telemetry.configure(enabled=True)
        instrumented = run_once()
        telemetry.configure(enabled=False)
        assert instrumented == baseline
