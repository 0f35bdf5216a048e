"""Tests for the automatic bottleneck classifier."""

import numpy as np
import pytest

from repro.analysis import Bottleneck, diagnose
from repro.apps import run_gemm, run_pi
from repro.core import SimConfig
from repro.paraver import phase_overlap
from repro.profiling import (
    EventKind, ProfilingConfig, ProfilingRecorder, ThreadState,
)


class _StubResult:
    """Just enough of SimResult for diagnose() on a hand-built trace."""

    clock_mhz = 100.0
    gflops = 0.0

    def __init__(self, trace, stalls=None, bandwidth=0.0):
        self.trace = trace
        self.stalls = stalls or [0] * trace.num_threads
        self.bandwidth = bandwidth

    def bandwidth_gbs(self):
        return self.bandwidth


def _trace_with_spans(spans, end=1000, events=True):
    """Trace whose thread i is RUNNING exactly over spans[i] (or never,
    when spans[i] is None)."""

    kinds = tuple(EventKind) if events else \
        (EventKind.STALLS, EventKind.MEM_WRITE_BYTES, EventKind.INTOPS)
    recorder = ProfilingRecorder(
        ProfilingConfig(sampling_period=100, events=kinds), len(spans))
    for thread, span in enumerate(spans):
        if span is None:
            continue
        recorder.set_state(span[0], thread, ThreadState.RUNNING)
        recorder.set_state(span[1], thread, ThreadState.IDLE)
    return recorder.finalize(end)


class TestDiagnose:
    def test_synchronization_detected(self):
        """A lock-hammering kernel must classify as synchronization-bound."""

        from repro.core import Program
        source = """
        void f(float* out, int n) {
          #pragma omp target parallel map(tofrom:out[0:1]) num_threads(8)
          {
            for (int i = 0; i < n; ++i) {
              #pragma omp critical
              { out[0] += 1.0f; }
            }
          }
        }
        """
        out = np.zeros(1, dtype=np.float32)
        program = Program(source,
                          sim_config=SimConfig(thread_start_interval=5))
        outcome = program.run(out=out, n=32)
        diag = diagnose(outcome.sim)
        assert diag.primary is Bottleneck.SYNCHRONIZATION
        assert diag.metrics["sync_fraction"] > 0.1

    def test_memory_latency_detected(self):
        run = run_gemm("no_critical", dim=32)
        diag = diagnose(run.result)
        assert diag.primary is Bottleneck.MEMORY_LATENCY
        assert "latency bound" in diag.findings[0]

    def test_load_imbalance_detected(self):
        config = SimConfig(thread_start_interval=20000)
        pi = run_pi(6400, sim_config=config)
        diag = diagnose(pi.result)
        assert diag.primary is Bottleneck.LOAD_IMBALANCE

    def test_compute_bound_pi(self):
        config = SimConfig(thread_start_interval=100)
        pi = run_pi(64000, sim_config=config)
        diag = diagnose(pi.result)
        assert diag.primary is Bottleneck.COMPUTE_BOUND

    def test_metrics_populated(self):
        run = run_gemm("naive", dim=16, block_size=8)
        diag = diagnose(run.result)
        for key in ("sync_fraction", "stall_fraction", "load_balance",
                    "bandwidth_gbs", "gflops"):
            assert key in diag.metrics

    def test_str_rendering(self):
        run = run_gemm("naive", dim=16)
        diag = diagnose(run.result)
        text = str(diag)
        assert "primary bottleneck" in text


def _busy_trace(spin=0, deposits=(), threads=2, end=1000):
    """Every thread RUNNING over [0, end); thread 0 spins for the first
    ``spin`` cycles.  ``deposits`` are ``(start, end, thread, kind,
    amount)`` counter deposits (windows of 100 cycles)."""

    recorder = ProfilingRecorder(ProfilingConfig(sampling_period=100),
                                 threads)
    for thread in range(threads):
        recorder.set_state(0, thread, ThreadState.RUNNING)
    if spin:
        recorder.set_state(0, 0, ThreadState.SPINNING)
        recorder.set_state(spin, 0, ThreadState.RUNNING)
    for start, stop, thread, kind, amount in deposits:
        recorder.add_many(start, stop, thread, ((kind, amount),))
    return recorder.finalize(end)


class TestVerdicts:
    """One hand-built trace per Bottleneck verdict."""

    def test_synchronization(self):
        diag = diagnose(_StubResult(_busy_trace(spin=300)))
        assert diag.primary is Bottleneck.SYNCHRONIZATION
        assert diag.metrics["sync_fraction"] == pytest.approx(0.15)
        assert diag.metrics["spin_fraction"] == pytest.approx(0.15)

    def test_load_imbalance(self):
        trace = _trace_with_spans([(0, 1000), (0, 400)])
        diag = diagnose(_StubResult(trace))
        assert diag.primary is Bottleneck.LOAD_IMBALANCE
        assert diag.metrics["load_balance"] == pytest.approx(0.7)

    def test_memory_latency(self):
        diag = diagnose(_StubResult(_busy_trace(), stalls=[300, 300],
                                    bandwidth=10.0),
                        peak_bandwidth_gbs=76.8)
        assert diag.primary is Bottleneck.MEMORY_LATENCY
        assert diag.metrics["stall_fraction"] == pytest.approx(0.3)

    def test_memory_bandwidth(self):
        diag = diagnose(_StubResult(_busy_trace(), stalls=[300, 300],
                                    bandwidth=50.0),
                        peak_bandwidth_gbs=76.8)
        assert diag.primary is Bottleneck.MEMORY_BANDWIDTH
        assert "bandwidth bound" in diag.findings[-1]

    def test_phased_execution(self):
        loads = (0, 500, 0, EventKind.MEM_READ_BYTES, 5000)
        compute = (500, 1000, 1, EventKind.FLOPS, 5000)
        diag = diagnose(_StubResult(_busy_trace(deposits=(loads, compute))))
        assert diag.primary is Bottleneck.PHASED_EXECUTION
        assert diag.metrics["phase_overlap"] == 0.0

    def test_compute_bound(self):
        loads = (0, 1000, 0, EventKind.MEM_READ_BYTES, 5000)
        compute = (0, 1000, 1, EventKind.FLOPS, 5000)
        diag = diagnose(_StubResult(_busy_trace(deposits=(loads, compute))))
        assert diag.primary is Bottleneck.COMPUTE_BOUND
        assert diag.metrics["phase_overlap"] == 1.0


class TestOnePass:
    def test_build_report_measures_each_figure_once(self, monkeypatch):
        """One build_report call reads the state totals and classifies
        the phases once; its diagnosis reuses those numbers."""

        import repro.paraver.analysis as paraver_analysis
        import repro.report.model as model
        from repro.profiling import RunTrace

        result = run_gemm("naive", dim=16).result
        calls = {"state_totals": 0, "phase_overlap": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RunTrace, "state_totals", counted(
            "state_totals", RunTrace.state_totals))
        phases = counted("phase_overlap", paraver_analysis.phase_overlap)
        monkeypatch.setattr(paraver_analysis, "phase_overlap", phases)
        monkeypatch.setattr(model, "phase_overlap", phases)
        report = model.build_report(result)
        assert calls == {"state_totals": 1, "phase_overlap": 1}
        assert report.diagnosis.metrics["load_balance"] == \
            report.efficiency.balance
        assert report.diagnosis.metrics["stall_fraction"] == \
            report.stall_fraction


class TestTemporalOverlap:
    """Regression: never-active threads report a (0, 0) activity span
    that used to drag the union window back to cycle 0 and let the
    common/union ratio go negative."""

    def test_inactive_thread_excluded(self):
        trace = _trace_with_spans([(100, 900), (150, 850), None])
        diag = diagnose(_StubResult(trace))
        # only the two active spans count: common (150,850) / union (100,900)
        assert diag.metrics["temporal_overlap"] == pytest.approx(700 / 800)

    def test_disjoint_spans_clamp_to_zero(self):
        trace = _trace_with_spans([(0, 300), (700, 1000)])
        diag = diagnose(_StubResult(trace))
        assert diag.metrics["temporal_overlap"] == 0.0

    def test_all_threads_inactive(self):
        trace = _trace_with_spans([None, None])
        diag = diagnose(_StubResult(trace))
        assert diag.metrics["temporal_overlap"] == 1.0

    def test_overlap_always_in_unit_interval(self):
        for spans in ([(0, 1000)], [(0, 500), (400, 1000), None],
                      [(10, 20), (980, 990)]):
            trace = _trace_with_spans(list(spans))
            overlap = diagnose(_StubResult(trace)).metrics["temporal_overlap"]
            assert 0.0 <= overlap <= 1.0


class TestMissingCounters:
    """Regression: profiling configs that omit MEM_READ_BYTES or FLOPS
    used to raise KeyError inside phase_overlap/diagnose."""

    def test_diagnose_without_mem_and_flops(self):
        trace = _trace_with_spans([(0, 900), (0, 950)], events=False)
        assert EventKind.MEM_READ_BYTES not in trace.events
        assert EventKind.FLOPS not in trace.events
        diag = diagnose(_StubResult(trace))  # must not raise
        assert any("counters not recorded" in f for f in diag.findings)
        assert "mem_read_bytes" in diag.findings[0]
        assert "flops" in diag.findings[0]

    def test_phased_execution_not_claimed_without_counters(self):
        trace = _trace_with_spans([(0, 900), (0, 950)], events=False)
        diag = diagnose(_StubResult(trace))
        assert diag.primary is not Bottleneck.PHASED_EXECUTION

    def test_phase_overlap_needs_both_counters(self):
        trace = _trace_with_spans([(0, 900), (0, 950)], events=False)
        with pytest.raises(KeyError, match="was not recorded"):
            phase_overlap(trace)

    def test_full_counters_have_no_missing_finding(self):
        trace = _trace_with_spans([(0, 900), (0, 950)])
        diag = diagnose(_StubResult(trace))
        assert not any("counters not recorded" in f for f in diag.findings)
