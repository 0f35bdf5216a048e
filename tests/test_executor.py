"""Integration tests for the cycle-level executor."""

import numpy as np
import pytest

from repro.core import SimConfig, Simulation, compile_source
from repro.profiling import EventKind, ProfilingConfig, ThreadState
from repro.hls import HLSOptions

FAST = SimConfig(thread_start_interval=5, launch_overhead=10)


def build(source, defines=None, const_env=None, options=None):
    return compile_source(source, defines=defines, const_env=const_env,
                          options=options)


VADD = """
void vadd(float* a, float* b, float* c, int n) {
  #pragma omp target parallel map(to:a[0:n], b[0:n]) map(from:c[0:n]) \\
      num_threads(4)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      c[i] = a[i] + b[i];
    }
  }
}
"""


class TestBasicExecution:
    def test_vadd_correct(self, rng):
        acc = build(VADD)
        n = 64
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        result = Simulation(acc, FAST).run({"a": a, "b": b, "c": c, "n": n})
        assert np.allclose(c, a + b)
        assert result.cycles > 0

    def test_cycles_scale_with_work(self, rng):
        acc = build(VADD)
        cycles = []
        for n in (32, 128):
            a = rng.random(n, dtype=np.float32)
            b = rng.random(n, dtype=np.float32)
            c = np.zeros(n, dtype=np.float32)
            result = Simulation(acc, FAST).run({"a": a, "b": b, "c": c, "n": n})
            cycles.append(result.cycles)
        assert cycles[1] > cycles[0]

    def test_deterministic(self, rng):
        acc = build(VADD)
        n = 32
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        runs = []
        for _ in range(2):
            c = np.zeros(n, dtype=np.float32)
            runs.append(Simulation(acc, FAST).run(
                {"a": a, "b": b, "c": c, "n": n}).cycles)
        assert runs[0] == runs[1]

    def test_missing_argument_rejected(self):
        acc = build(VADD)
        with pytest.raises(KeyError, match="missing"):
            Simulation(acc, FAST).run({"n": 8})

    def test_buffer_type_checked(self):
        acc = build(VADD)
        with pytest.raises(TypeError, match="numpy"):
            Simulation(acc, FAST).run({"a": [1], "b": [2], "c": [3], "n": 1})

    def test_undersized_buffer_rejected(self, rng):
        acc = build(VADD)
        a = np.zeros(4, dtype=np.float32)
        with pytest.raises(ValueError, match="map clause"):
            Simulation(acc, FAST).run({"a": a, "b": a, "c": a, "n": 100})


class TestStatesAndEvents:
    def test_threads_start_staggered(self, rng):
        acc = build(VADD)
        n = 64
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        config = SimConfig(thread_start_interval=500, launch_overhead=10)
        result = Simulation(acc, config).run({"a": a, "b": b, "c": c, "n": n})
        from repro.paraver import thread_activity_windows
        spans = thread_activity_windows(result.trace)
        starts = spans[:, 0]
        assert all(starts[i + 1] - starts[i] == 500 for i in range(3))

    def test_event_totals_match_work(self, rng):
        acc = build(VADD)
        n = 64
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        result = Simulation(acc, FAST).run({"a": a, "b": b, "c": c, "n": n})
        assert result.total_events(EventKind.FLOPS) == pytest.approx(n, rel=.02)
        read_bytes = result.total_events(EventKind.MEM_READ_BYTES)
        assert read_bytes == pytest.approx(2 * 4 * n, rel=.02)
        write_bytes = result.total_events(EventKind.MEM_WRITE_BYTES)
        assert write_bytes == pytest.approx(4 * n, rel=.02)

    def test_dram_counters(self, rng):
        acc = build(VADD)
        n = 32
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        result = Simulation(acc, FAST).run({"a": a, "b": b, "c": c, "n": n})
        assert result.dram_bytes_read >= 2 * 4 * n
        assert result.dram_requests >= 3 * n

    def test_stalls_recorded_for_memory_bound_loop(self, rng):
        acc = build(VADD)
        n = 128
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        result = Simulation(acc, FAST).run({"a": a, "b": b, "c": c, "n": n})
        assert sum(result.stalls) > 0
        assert result.total_events(EventKind.STALLS) > 0

    def test_profiling_flushes_write_dram(self, rng):
        source = VADD
        on = build(source, options=HLSOptions(
            profiling=ProfilingConfig(sampling_period=256)))
        off = build(source, options=HLSOptions(
            profiling=ProfilingConfig.disabled()))
        n = 256
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        results = {}
        for name, acc in (("on", on), ("off", off)):
            c = np.zeros(n, dtype=np.float32)
            results[name] = Simulation(acc, FAST).run(
                {"a": a, "b": b, "c": c, "n": n})
        # with tracing enabled the DRAM sees additional (flush) writes
        assert results["on"].dram_bytes_written > \
            results["off"].dram_bytes_written
        assert results["on"].trace.flushes > 0


class TestCriticalSections:
    SUM = """
    void total(float* data, float* out, int n) {
      #pragma omp target parallel map(to:data[0:n]) map(tofrom:out[0:1]) \\
          num_threads(4)
      {
        int t = omp_get_thread_num();
        int nt = omp_get_num_threads();
        float s = 0.0f;
        for (int i = t; i < n; i += nt) {
          s += data[i];
        }
        #pragma omp critical
        { out[0] += s; }
      }
    }
    """

    def test_reduction_correct(self, rng):
        acc = build(self.SUM)
        n = 64
        data = rng.random(n, dtype=np.float32)
        out = np.zeros(1, dtype=np.float32)
        Simulation(acc, FAST).run({"data": data, "out": out, "n": n})
        assert out[0] == pytest.approx(data.sum(), rel=1e-4)

    def test_critical_states_recorded(self, rng):
        acc = build(self.SUM)
        n = 64
        data = rng.random(n, dtype=np.float32)
        out = np.zeros(1, dtype=np.float32)
        result = Simulation(acc, FAST).run({"data": data, "out": out, "n": n})
        durations = result.trace.state_durations()
        assert durations[ThreadState.CRITICAL] > 0
        assert durations[ThreadState.SPINNING] > 0


class TestBarriers:
    PINGPONG = """
    void stage(float* buf, float* out, int n) {
      #pragma omp target parallel map(tofrom:buf[0:n]) map(from:out[0:n]) \\
          num_threads(4)
      {
        int t = omp_get_thread_num();
        int nt = omp_get_num_threads();
        for (int i = t; i < n; i += nt) {
          buf[i] = buf[i] * 2.0f;
        }
        #pragma omp barrier
        for (int i = t; i < n; i += nt) {
          int j = n - 1 - i;
          out[i] = buf[j];
        }
      }
    }
    """

    def test_barrier_separates_phases(self, rng):
        acc = build(self.PINGPONG)
        n = 32
        buf = rng.random(n, dtype=np.float32).copy()
        expected = (buf * 2)[::-1].copy()
        out = np.zeros(n, dtype=np.float32)
        Simulation(acc, FAST).run({"buf": buf, "out": out, "n": n})
        assert np.allclose(out, expected)


class TestDataflowOverlap:
    INDEPENDENT = """
    void two(float* a, float* b, int n) {
      #pragma omp target parallel map(from:a[0:n], b[0:n]) num_threads(1)
      {
        for (int i = 0; i < n; ++i) { a[i] = 1.0f; }
        for (int j = 0; j < n; ++j) { b[j] = 2.0f; }
      }
    }
    """

    DEPENDENT = """
    void two(float* a, float* b, int n) {
      #pragma omp target parallel map(tofrom:a[0:n]) map(from:b[0:n]) \\
          num_threads(1)
      {
        for (int i = 0; i < n; ++i) { a[i] = 1.0f; }
        for (int j = 0; j < n; ++j) { b[j] = a[j] + 1.0f; }
      }
    }
    """

    def test_independent_loops_overlap(self):
        n = 64
        runs = {}
        for name, src in (("indep", self.INDEPENDENT), ("dep", self.DEPENDENT)):
            acc = build(src)
            a = np.zeros(n, dtype=np.float32)
            b = np.zeros(n, dtype=np.float32)
            runs[name] = Simulation(acc, FAST).run({"a": a, "b": b, "n": n})
        # dataflow execution runs the two independent store loops
        # concurrently; with a data dependence they serialize
        assert runs["indep"].cycles < runs["dep"].cycles
