"""Cycle accounting: stall-cause attribution end to end.

Covers the invariant (``useful + Σ causes == cycles`` per thread, exact
integer math) on every GEMM version and π, bit-identical attribution
across the scalar reference and the vectorized fast path, zero
perturbation with the feature off, lossless Paraver round-trips, the
report/serialize plumbing and the ``repro why`` CLI.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.apps import run_gemm, run_pi
from repro.apps.gemm import GEMM_VERSIONS
from repro.cli import main
from repro.core import SimConfig
from repro.core.program import Program
from repro.paraver import reconstruct_run, write_trace
from repro.paraver.format import ATTR_EVENT_BASE
from repro.profiling.attribution import (
    N_SLOTS, REGION_SYNC, AttributionTable, Cause,
)

MODES = ("reference", "auto")
DIM = 16
THREADS = 4
PI_STEPS = 3200


@functools.lru_cache(maxsize=None)
def gemm(version: str, mode: str = "auto", attribution: bool = True):
    cfg = SimConfig(thread_start_interval=50, exec_mode=mode,
                    attribution=attribution)
    return run_gemm(version, dim=DIM, num_threads=THREADS, sim_config=cfg)


@functools.lru_cache(maxsize=None)
def pi(mode: str = "auto", attribution: bool = True):
    cfg = SimConfig(exec_mode=mode, attribution=attribution)
    return run_pi(PI_STEPS, num_threads=THREADS, sim_config=cfg)


def dram_lost(totals: dict) -> int:
    return (totals[Cause.DRAM_LATENCY] + totals[Cause.DRAM_ARBITRATION]
            + totals[Cause.DRAM_ROW_MISS])


class TestInvariant:
    """useful + Σ causes == end_cycle, exactly, for every thread."""

    @pytest.mark.parametrize("version", sorted(GEMM_VERSIONS))
    @pytest.mark.parametrize("mode", MODES)
    def test_gemm_all_versions_all_modes(self, version, mode):
        run = gemm(version, mode)
        table = run.result.attribution
        assert table is not None
        assert table.check(run.cycles) == []
        assert run.correct

    @pytest.mark.parametrize("mode", MODES)
    def test_pi(self, mode):
        run = pi(mode)
        table = run.result.attribution
        assert table is not None
        assert table.check(run.cycles) == []

    def test_lost_plus_useful_covers_wall_clock(self):
        run = gemm("naive")
        totals = run.result.attribution.cause_totals()
        assert sum(totals.values()) == run.cycles * THREADS


class TestDifferential:
    """Vectorized fast path must reproduce the reference bit for bit."""

    @pytest.mark.parametrize("version", sorted(GEMM_VERSIONS))
    def test_tables_identical_across_modes(self, version):
        ref = gemm(version, "reference")
        other = gemm(version, "auto")
        assert other.cycles == ref.cycles
        assert other.result.attribution == ref.result.attribution

    def test_pi_tables_identical_across_modes(self):
        ref = pi("reference")
        other = pi("auto")
        assert other.cycles == ref.cycles
        assert other.result.attribution == ref.result.attribution

    @pytest.mark.parametrize("version", sorted(GEMM_VERSIONS))
    def test_prv_bytes_identical_across_modes(self, version, tmp_path):
        blobs = []
        for mode in MODES:
            run = gemm(version, mode)
            files = write_trace(run.result.trace,
                                str(tmp_path / f"{version}_{mode}"))
            blobs.append(open(files.prv, "rb").read())
        assert blobs[0] == blobs[1]

    def test_pi_prv_bytes_identical_across_modes(self, tmp_path):
        blobs = []
        for mode in MODES:
            files = write_trace(pi(mode).result.trace,
                                str(tmp_path / f"pi_{mode}"))
            blobs.append(open(files.prv, "rb").read())
        assert blobs[0] == blobs[1]


# a barrier after per-thread empty loops of 0, 300, 600 and 900 trips: the
# early threads wait at the barrier for the last one
PHASES_SRC = """
void phases(float* a, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n]) map(tofrom:out[0:n]) \\
      num_threads(4)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) { out[i] = a[i] * 2.0f; }
    for (int w = 0; w < 300 * t; ++w) { }
    #pragma omp barrier
    for (int i = t; i < n; i += nt) { out[i] = out[i] + a[(i + 1) % n]; }
  }
}
"""


@functools.lru_cache(maxsize=None)
def phases(mode: str):
    out = np.zeros(64, dtype=np.float32)
    program = Program(PHASES_SRC, sim_config=SimConfig(exec_mode=mode,
                                                       attribution=True))
    sim = program.run(a=np.arange(64, dtype=np.float32), out=out, n=64).sim
    return sim, out


class TestBarrierAndEmptyLoop:
    """SYNC_WAIT at ``#pragma omp barrier``; a pipelined empty loop."""

    @pytest.mark.parametrize("mode", MODES)
    def test_invariant(self, mode):
        sim, _out = phases(mode)
        table = sim.attribution
        assert table.check(sim.cycles) == []
        waits = [table.cells.get((REGION_SYNC, tid), [0] * N_SLOTS)[Cause.SYNC_WAIT]
                 for tid in range(THREADS)]
        assert all(wait > 0 for wait in waits[:-1])
        empty = next(key for key, label in table.regions.items()
                     if label.startswith("for w "))
        # the empty body issues one trip per II, then drains
        for tid in range(1, THREADS):
            cell = table.cells[(empty, tid)]
            assert cell[Cause.USEFUL] > 0 and cell[Cause.DRAIN] > 0
        assert (empty, 0) not in table.cells

    def test_reference_equals_auto(self):
        ref, ref_out = phases("reference")
        fast, fast_out = phases("auto")
        assert fast.cycles == ref.cycles
        assert list(fast.attribution.cells.items()) == \
            list(ref.attribution.cells.items())
        assert np.array_equal(fast_out, ref_out)


class TestZeroCostWhenOff:
    @pytest.mark.parametrize("version", ("naive", "blocked"))
    def test_cycles_unchanged(self, version):
        assert gemm(version, "auto", True).cycles == \
            gemm(version, "auto", False).cycles

    def test_off_trace_has_no_attr_records(self, tmp_path):
        run = gemm("naive", "auto", False)
        assert run.result.attribution is None
        files = write_trace(run.result.trace, str(tmp_path / "off"))
        for line in open(files.prv):
            if line.startswith("2:"):
                assert int(line.split(":")[6]) < ATTR_EVENT_BASE


class TestDominantCauses:
    """The attribution must tell the paper's optimization story."""

    def test_naive_is_dram_bound(self):
        totals = gemm("naive").result.attribution.cause_totals()
        lost = sum(v for c, v in totals.items() if c is not Cause.USEFUL)
        assert dram_lost(totals) > 0.5 * lost

    def test_optimized_shift_to_ii_and_ports(self):
        for version in ("blocked", "double_buffered"):
            totals = gemm(version).result.attribution.cause_totals()
            ii_port = (totals[Cause.II_LIMIT]
                       + totals[Cause.LOCAL_PORT_CONFLICT])
            assert ii_port > dram_lost(totals), version


class TestRoundTrip:
    def test_lossless_through_prv(self, tmp_path):
        run = gemm("naive")
        files = write_trace(run.result.trace, str(tmp_path / "rt"))
        rec = reconstruct_run(files.prv)
        assert rec.unknown_event_types == {}
        table = rec.result.attribution
        assert isinstance(table, AttributionTable)
        assert table == run.result.attribution
        assert table.check(rec.result.cycles) == []

    def test_region_labels_survive(self, tmp_path):
        run = gemm("naive")
        files = write_trace(run.result.trace, str(tmp_path / "rt"))
        rec = reconstruct_run(files.prv)
        labels = set(rec.result.attribution.regions.values())
        assert "(launch)" in labels
        assert any("pipelined" in label for label in labels)


class TestReportLayer:
    def test_summary_in_report_and_json(self):
        from repro.report import build_report
        from repro.report.serialize import report_to_dict

        report = build_report(gemm("naive").result, label="naive")
        summary = report.attribution
        assert summary is not None
        assert summary.invariant_ok
        assert summary.lost_cycles > 0
        data = report_to_dict(report)["attribution"]
        assert data["invariant_ok"] is True
        assert sum(data["causes"].values()) == data["total_thread_cycles"]

    def test_attribution_round_trips_through_report_dict(self):
        import json

        from repro.report import build_report
        from repro.report.model import AttributionSummary
        from repro.report.serialize import (
            attribution_from_dict, report_to_dict,
        )

        run = gemm("naive")
        table = run.result.attribution
        summary = AttributionSummary.from_table(table, run.cycles)
        data = report_to_dict(build_report(run.result))["attribution"]
        assert attribution_from_dict(data) == summary
        assert attribution_from_dict(json.loads(json.dumps(data))) == summary
        # a broken invariant keeps its violation tuples
        broken = AttributionSummary.from_table(table, run.cycles + 1)
        assert broken.violations
        report = build_report(run.result)
        report.attribution = broken
        data = json.loads(json.dumps(report_to_dict(report)["attribution"]))
        assert attribution_from_dict(data) == broken

    def test_no_attribution_serializes_none(self):
        from repro.report import build_report
        from repro.report.serialize import report_to_dict

        report = build_report(gemm("naive", "auto", False).result)
        assert report.attribution is None
        assert report_to_dict(report)["attribution"] is None

    def test_render_why_text(self):
        from repro.report.model import AttributionSummary
        from repro.report.text import render_why_text

        run = gemm("naive")
        summary = AttributionSummary.from_table(run.result.attribution,
                                                run.cycles)
        text = render_why_text(summary, run.cycles, label="naive")
        assert "why is naive slow?" in text
        assert "holds exactly" in text
        assert "dram" in text

    def test_diagnose_uses_measured_causes(self):
        from repro.analysis import diagnose

        diag = diagnose(gemm("naive").result)
        assert any("cycle accounting" in f for f in diag.findings)
        assert any(k.startswith("attr_") for k in diag.metrics)

    def test_html_panel(self, tmp_path):
        from repro.report import build_report, write_html

        path = str(tmp_path / "r.html")
        write_html([build_report(gemm("naive").result, label="naive")], path)
        html = open(path).read()
        assert "Cycle accounting" in html
        assert "dram_arbitration" in html


class TestWhyCli:
    @pytest.fixture()
    def attr_prv(self, tmp_path):
        run = gemm("naive")
        return write_trace(run.result.trace, str(tmp_path / "naive")).prv

    def test_why_on_trace(self, attr_prv, capsys):
        assert main(["why", attr_prv, "--check"]) == 0
        out = capsys.readouterr().out
        assert "why is naive slow?" in out
        assert "holds exactly" in out

    def test_why_top_truncates(self, attr_prv, capsys):
        assert main(["why", attr_prv, "--top", "1"]) == 0
        assert "more region(s)" in capsys.readouterr().out

    def test_why_rejects_plain_trace(self, tmp_path):
        run = gemm("naive", "auto", False)
        files = write_trace(run.result.trace, str(tmp_path / "plain"))
        with pytest.raises(SystemExit, match="--attribution"):
            main(["why", files.prv])

    def test_why_on_report_json(self, tmp_path, capsys):
        from repro.report import build_report
        from repro.report.serialize import write_json

        path = str(tmp_path / "r.json")
        write_json([build_report(gemm("naive").result, label="naive")], path)
        assert main(["why", path, "--check"]) == 0
        assert "why is naive slow?" in capsys.readouterr().out

    def test_why_rejects_sweep_json(self, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"schema": "repro.sweep/1", "jobs": []}))
        with pytest.raises(SystemExit, match="sweep"):
            main(["why", str(path)])

    def test_run_summary_includes_why(self, tmp_path, capsys):
        from .conftest import make_vector_add_source

        src = tmp_path / "vadd.c"
        src.write_text(make_vector_add_source())
        assert main(["run", str(src), "--arg", "N=64",
                     "--attribution"]) == 0
        assert "slow?" in capsys.readouterr().out


class TestSatelliteRegressions:
    def test_stall_fraction_zero_duration_trace(self):
        from repro.profiling.recorder import RunTrace
        from repro.report import build_report

        class FakeResult:
            trace = RunTrace(num_threads=0, end_cycle=0,
                             sampling_period=100, timeline=[], events={})
            clock_mhz = 100.0
            stalls = ()
            gflops = 0.0

            @staticmethod
            def bandwidth_gbs() -> float:
                return 0.0

        report = build_report(FakeResult(), label="empty")
        assert report.stall_fraction == 0.0

    def test_job_breakdown_no_jobs_line(self):
        from repro.telemetry.merge import render_job_breakdown

        text = render_job_breakdown([])
        assert "(no jobs)" in text
        assert text.endswith("\n")
