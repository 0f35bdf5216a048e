"""Tests for the report model and its text/JSON/HTML exporters."""

import json

import numpy as np
import pytest

from repro.paraver import write_trace
from repro.profiling import ThreadState
from repro.report import (
    PlatformPeaks, build_report, comparison_rows, render_comparison_text,
    render_html, render_report_text, report_from_prv, report_to_dict,
    reports_to_json, write_html, write_json,
)

from .test_paraver import make_trace


class _FakeResult:
    """Minimal SimResult duck for report building."""

    def __init__(self, trace, clock_mhz=100.0, stalls=None):
        self.trace = trace
        self.clock_mhz = clock_mhz
        self.stalls = stalls or [0] * trace.num_threads
        self.cycles = trace.end_cycle

    def _rate(self, *kinds):
        total = sum(float(series.sum()) for kind, series
                    in self.trace.events.items() if kind in kinds)
        seconds = self.cycles / (self.clock_mhz * 1e6)
        return total / 1e9 / seconds if seconds else 0.0

    def bandwidth_gbs(self):
        from repro.profiling import EventKind
        return self._rate(EventKind.MEM_READ_BYTES,
                          EventKind.MEM_WRITE_BYTES)

    @property
    def gflops(self):
        from repro.profiling import EventKind
        return self._rate(EventKind.FLOPS)


@pytest.fixture
def report():
    return build_report(_FakeResult(make_trace()), label="unit")


class TestModel:
    def test_hierarchy_is_multiplicative(self, report):
        eff = report.efficiency
        assert eff.parallel == pytest.approx(
            eff.balance * eff.sync * eff.transfer)

    def test_efficiencies_in_range(self, report):
        for value in report.efficiency.as_dict().values():
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_parallel_equals_useful_share(self, report):
        trace = make_trace()
        totals = trace.state_durations()
        useful = totals[ThreadState.RUNNING] + totals[ThreadState.CRITICAL]
        expected = useful / (trace.end_cycle * trace.num_threads)
        assert report.efficiency.parallel == pytest.approx(expected)

    def test_state_fractions_sum_to_one(self, report):
        assert sum(report.state_fractions.values()) == pytest.approx(1.0)

    def test_peak_fractions(self):
        rep = build_report(_FakeResult(make_trace()),
                           peaks=PlatformPeaks(bandwidth_gbs=10.0,
                                               gflops=5.0))
        assert rep.bandwidth_peak_fraction == pytest.approx(
            rep.bandwidth_gbs / 10.0)
        assert rep.gflops_peak_fraction == pytest.approx(rep.gflops / 5.0)

    def test_no_gflops_peak_by_default(self, report):
        assert report.gflops_peak_fraction is None
        assert report.bandwidth_peak_fraction is not None

    def test_missing_counters_noted(self):
        from repro.profiling import EventKind
        trace = make_trace()
        trace.events.pop(EventKind.FLOPS)
        rep = build_report(_FakeResult(trace))
        assert rep.missing_counters == ["flops"]
        assert rep.phases is None
        assert rep.gflops_series.size == 0

    def test_comparison_rows_speedup(self):
        fast = make_trace(end=500)
        slow = make_trace(end=1000)
        rows = comparison_rows([build_report(_FakeResult(slow), "slow"),
                                build_report(_FakeResult(fast), "fast")])
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert rows[1]["speedup"] == pytest.approx(2.0)

    def test_report_from_prv(self, tmp_path):
        trace = make_trace()
        files = write_trace(trace, str(tmp_path / "t"), clock_mhz=100.0)
        rep = report_from_prv(files.prv)
        assert rep.label == "t"
        assert rep.source == files.prv
        assert rep.clock_mhz == pytest.approx(100.0)
        assert rep.thread_names == ["HW thread 0", "HW thread 1"]


class TestTextExporter:
    def test_report_text_sections(self, report):
        text = render_report_text(report)
        for needle in ("trace report: unit", "efficiency hierarchy",
                       "state attribution", "primary bottleneck"):
            assert needle in text

    def test_comparison_table(self, report):
        other = build_report(_FakeResult(make_trace(end=500)), label="b")
        text = render_comparison_text([report, other])
        assert "speedup" in text
        assert "unit" in text and "b" in text
        assert "2.00x" in text

    def test_empty_comparison(self):
        assert "no traces" in render_comparison_text([])


class TestJsonExporter:
    def test_round_trips_through_json(self, report):
        payload = json.loads(reports_to_json([report]))
        assert payload["schema"] == "repro.report/1"
        entry = payload["reports"][0]
        assert entry["label"] == "unit"
        assert entry["efficiency"]["parallel"] == pytest.approx(
            report.efficiency.parallel)
        assert entry["state_fractions"]["running"] > 0
        assert len(entry["bandwidth"]["series_gbs"]) == \
            report.bandwidth_series.size

    def test_comparison_included_for_multiple(self, report):
        other = build_report(_FakeResult(make_trace(end=500)), label="b")
        payload = json.loads(reports_to_json([report, other]))
        assert len(payload["comparison"]) == 2

    def test_write_json(self, report, tmp_path):
        path = tmp_path / "r.json"
        write_json([report], str(path))
        assert json.loads(path.read_text())["reports"]


class TestHtmlExporter:
    def test_self_contained(self, report):
        html = render_html([report])
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html
        assert html.startswith("<!DOCTYPE html>")

    def test_svg_panels_present(self, report):
        html = render_html([report])
        assert html.count("<svg") == 3  # gantt + bandwidth + gflops
        assert "Per-thread state timeline" in html
        assert "platform peak" in html

    def test_gantt_has_one_row_per_thread(self, report):
        html = render_html([report])
        # each thread gets a neutral track rect
        assert html.count("var(--state-idle)") >= report.num_threads

    def test_tooltips_carry_state_names(self, report):
        html = render_html([report])
        assert "<title>" in html
        assert "Critical" in html and "Spinning" in html

    def test_comparison_table_for_multiple(self, report):
        other = build_report(_FakeResult(make_trace(end=500)), label="b")
        html = render_html([report, other])
        assert "Comparison (baseline" in html
        assert html.count('<section class="run"') == 2

    def test_escapes_labels(self):
        rep = build_report(_FakeResult(make_trace()),
                           label="<script>alert(1)</script>")
        html = render_html([rep])
        assert "<script>" not in html
        assert "&lt;script&gt;" in html

    def test_write_html(self, report, tmp_path):
        path = tmp_path / "r.html"
        write_html([report], str(path), title="T")
        content = path.read_text()
        assert "<title>T</title>" in content
