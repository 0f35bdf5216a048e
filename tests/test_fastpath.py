"""Differential tests for the vectorized pipelined-loop fast path.

The fast path (:mod:`repro.sim.fastpath`) is a pure performance
optimization: ``exec_mode="auto"`` must produce
**bit-identical** simulated state to the scalar reference interpreter
(``exec_mode="reference"``) — cycles, stalls, DRAM counters, every
profiling event series, and every output buffer.  These tests pin that
contract over the bundled applications plus synthetic kernels — one
deliberately not vectorizable (exercising the scalar fallback), unrolled
per-lane vector accumulators, and a loop without memory accesses — and
assert the ``sim.fastpath.*`` telemetry counters.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.apps import run_gemm, run_pi
from repro.apps.gemm import EXTRA_VERSIONS, GEMM_VERSIONS
from repro.core.program import Program
from repro.sim.config import SimConfig


@pytest.fixture(autouse=True)
def _telemetry_disabled_after():
    """Leave the process-wide telemetry registry disabled after each test."""

    yield
    telemetry.configure(enabled=False)


def _config(mode: str) -> SimConfig:
    return SimConfig(thread_start_interval=50, exec_mode=mode)


def _signature(result):
    """Everything the fast path must reproduce bit-for-bit."""

    return {
        "cycles": result.cycles,
        "stalls": result.stalls,
        "dram_bytes_read": result.dram_bytes_read,
        "dram_bytes_written": result.dram_bytes_written,
        "dram_requests": result.dram_requests,
        "dram_row_misses": result.dram_row_misses,
        "events": {kind.name: series.tolist()
                   for kind, series in result.trace.events.items()},
    }


def _assert_identical(ref, fast):
    assert _signature(ref) == _signature(fast)
    assert set(ref.buffers) == set(fast.buffers)
    for name in ref.buffers:
        assert np.array_equal(ref.buffers[name], fast.buffers[name]), name


# ----------------------------------------------------------------------
# differential: bundled applications, reference vs vectorized
# ----------------------------------------------------------------------
class TestGemmDifferential:
    @pytest.mark.parametrize("version",
                             sorted(GEMM_VERSIONS) + sorted(EXTRA_VERSIONS))
    def test_bit_identical_small(self, version):
        ref = run_gemm(version, dim=16, num_threads=4,
                       sim_config=_config("reference")).result
        fast = run_gemm(version, dim=16, num_threads=4,
                        sim_config=_config("auto")).result
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("mode", ["auto"])
    def test_bit_identical_naive_dim32(self, mode):
        ref = run_gemm("naive", dim=32, num_threads=4,
                       sim_config=_config("reference")).result
        fast = run_gemm("naive", dim=32, num_threads=4,
                        sim_config=_config(mode)).result
        _assert_identical(ref, fast)


class TestPiDifferential:
    def test_bit_identical(self):
        ref = run_pi(8192, num_threads=4,
                     sim_config=_config("reference")).result
        fast = run_pi(8192, num_threads=4,
                      sim_config=_config("auto")).result
        _assert_identical(ref, fast)

    # 8 and 32 trips per thread fit one 32-trip chunk, the rest span
    # several
    @pytest.mark.parametrize("steps, bs_compute", [
        (256, 8), (1024, 8), (6400, 2), (6400, 4), (6400, 16)])
    @pytest.mark.parametrize("attribution", [False, True])
    def test_bit_identical_across_sizes_and_unroll_widths(
            self, steps, bs_compute, attribution):
        runs = [run_pi(steps, num_threads=4, bs_compute=bs_compute,
                       sim_config=_config(mode),
                       attribution=attribution).result
                for mode in ("reference", "auto")]
        _assert_identical(*runs)
        assert runs[0].attribution == runs[1].attribution

    def test_bit_identical_across_issue_epoch_restarts(self):
        # a lone thread issues rec_ii - ii cycles later than the issue
        # bucket's next slot each trip and restarts the bucket's epoch
        # about every 2k trips: 5000-trip chunks cross three restarts
        runs = [run_pi(65536, num_threads=1,
                       sim_config=SimConfig(exec_mode=mode,
                                            loop_chunk=5000)).result
                for mode in ("reference", "auto")]
        _assert_identical(*runs)

    def test_series_loop_runs_in_the_value_kernel(self):
        session = telemetry.configure(enabled=True)
        run_pi(8192, num_threads=4, sim_config=_config("auto"))
        counters = session.counters
        # every trip of the unrolled series loop is batched; only the
        # 8-trip critical lane reduction (a read-modify-write of one
        # final_sum cell) stays scalar, one chunk per thread
        assert counters.get("sim.fastpath.iters_vectorized", 0) == 8192 // 8
        assert counters.get("sim.fastpath.fallbacks", 0) == 4


# ----------------------------------------------------------------------
# telemetry counters
# ----------------------------------------------------------------------
class TestFastpathTelemetry:
    def test_stock_gemm_uses_fast_path_without_fallbacks(self):
        session = telemetry.configure(enabled=True)
        run_gemm("naive", dim=16, num_threads=4, sim_config=_config("auto"))
        counters = session.counters
        # telemetry.add drops zero amounts, so absent means zero
        assert counters.get("sim.fastpath.batches", 0) > 0
        assert counters.get("sim.fastpath.iters_vectorized", 0) > 0
        assert counters.get("sim.fastpath.fallbacks", 0) == 0
        # counter deposits logged by the nest drivers and the executor
        assert counters.get("profiling.deposits", 0) > 0

    def test_reference_mode_never_enters_fast_path(self):
        session = telemetry.configure(enabled=True)
        run_gemm("naive", dim=16, num_threads=4,
                 sim_config=_config("reference"))
        counters = session.counters
        assert counters.get("sim.fastpath.batches", 0) == 0
        assert counters.get("sim.fastpath.iters_vectorized", 0) == 0
        assert counters.get("sim.fastpath.fallbacks", 0) == 0


# ----------------------------------------------------------------------
# synthetic non-vectorizable kernel: the fallback must be taken, and
# the result must still be bit-identical to the reference
# ----------------------------------------------------------------------
# `out[t]` is a loop-invariant single cell read and written every trip —
# a single-cell read-modify-write recurrence the vectorizer refuses.
ACCUM_SRC = """
void accum(float* a, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n]) map(tofrom:out[0:2]) \\
      num_threads(2)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      out[t] = out[t] + a[i];
    }
  }
}
"""


def _run_accum(mode: str):
    prog = Program(ACCUM_SRC, sim_config=SimConfig(exec_mode=mode))
    a = np.arange(64, dtype=np.float32)
    out = np.zeros(2, dtype=np.float32)
    result = prog.run(a=a, out=out, n=64)
    return result.sim, out


class TestForcedFallback:
    def test_bit_identical_via_scalar_fallback(self):
        ref, out_ref = _run_accum("reference")
        fast, out_fast = _run_accum("auto")
        _assert_identical(ref, fast)
        assert np.array_equal(out_ref, out_fast)
        # the kernel really accumulated: thread t sums a[t::2]
        expected = np.array([np.arange(64, dtype=np.float32)[t::2].sum()
                             for t in range(2)])
        assert np.array_equal(out_fast, expected)

    def test_fallback_counter_fires(self):
        session = telemetry.configure(enabled=True)
        _run_accum("auto")
        counters = session.counters
        assert counters.get("sim.fastpath.fallbacks", 0) > 0
        assert counters.get("sim.fastpath.batches", 0) == 0


# ----------------------------------------------------------------------
# unrolled per-lane vector accumulators (the π kernel's shape): one
# `acc[j] += ...` per lane runs in the value kernel; a lane updated twice
# per trip, or an accumulator read back mid-loop, stays scalar
# ----------------------------------------------------------------------
LANES_SRC = """
void lanes(float* a, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n]) map(from:out[0:8]) \\
      num_threads(2)
  {
    int t = omp_get_thread_num();
    float4 acc = {0.0f};
    float tail = 0.0f;
    for (int i = t * 4; i < n; i += 8) {
      #pragma unroll 4
      for (int j = 0; j < 4; j++) {
        BODY
      }
      AFTER
    }
    out[t * 4] = acc[0] + tail;
    out[t * 4 + 1] = acc[1];
    out[t * 4 + 2] = acc[2];
    out[t * 4 + 3] = acc[3];
  }
}
"""

#: name -> (unrolled body, statement after it, runs in the value kernel)
LANE_SHAPES = {
    "per_lane": ("acc[j] += a[i + j] * a[i + j];", "", True),
    "lane_twice": ("acc[j] += a[i + j]; acc[j] += 1.0f;", "", False),
    "read_back": ("acc[j] += a[i + j];", "tail += acc[3];", False),
}


def _run_lanes(name: str, mode: str):
    body, after, _ = LANE_SHAPES[name]
    src = LANES_SRC.replace("BODY", body).replace("AFTER", after)
    a = np.arange(64, dtype=np.float32) / 7
    out = np.zeros(8, dtype=np.float32)
    result = Program(src, sim_config=SimConfig(exec_mode=mode)).run(
        a=a, out=out, n=64)
    return result.sim, out


class TestLaneAccumulators:
    @pytest.mark.parametrize("name", sorted(LANE_SHAPES))
    def test_bit_identical(self, name):
        ref, out_ref = _run_lanes(name, "reference")
        fast, out_fast = _run_lanes(name, "auto")
        _assert_identical(ref, fast)
        assert np.array_equal(out_ref, out_fast)

    def test_per_lane_sums(self):
        _result, out = _run_lanes("per_lane", "auto")
        sq = (np.arange(64, dtype=np.float32) / 7) ** 2
        expected = [sq[t * 4 + j::8].sum() for t in range(2) for j in range(4)]
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    @pytest.mark.parametrize("name", sorted(LANE_SHAPES))
    def test_which_shapes_vectorize(self, name):
        session = telemetry.configure(enabled=True)
        _run_lanes(name, "auto")
        counters = session.counters
        vectorized = LANE_SHAPES[name][2]
        assert (counters.get("sim.fastpath.iters_vectorized", 0) > 0) \
            == vectorized
        assert (counters.get("sim.fastpath.fallbacks", 0) == 0) == vectorized


# ----------------------------------------------------------------------
# a loop without memory accesses whose recurrence spacing equals its II
# (integer accumulator: rec_ii == ii == 1): the driver issues its trips
# in closed form; long chunks must still match the reference exactly
# ----------------------------------------------------------------------
COUNT_SRC = """
void count(int* out, int n) {
  #pragma omp target parallel map(from:out[0:4]) num_threads(4)
  {
    int t = omp_get_thread_num();
    int s = 0;
    for (int i = 0; i < n; i++) { s += i * t + 1; }
    out[t] = s;
  }
}
"""


class TestClosedFormTrips:
    @pytest.mark.parametrize("n, chunk", [(100, 32), (9000, 5000)])
    @pytest.mark.parametrize("attribution", [False, True])
    def test_bit_identical(self, n, chunk, attribution):
        runs = []
        for mode in ("reference", "auto"):
            out = np.zeros(4, dtype=np.int32)
            cfg = SimConfig(exec_mode=mode, loop_chunk=chunk,
                            attribution=attribution)
            result = Program(COUNT_SRC, sim_config=cfg).run(out=out, n=n)
            runs.append((result.sim, out))
        _assert_identical(runs[0][0], runs[1][0])
        assert runs[0][0].attribution == runs[1][0].attribution
        assert runs[1][1].tolist() == [n + t * n * (n - 1) // 2
                                       for t in range(4)]


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
def test_unknown_exec_mode_rejected():
    for mode in ("turbo", "vectorized"):
        with pytest.raises(ValueError, match="exec_mode"):
            run_gemm("naive", dim=16, num_threads=4,
                     sim_config=SimConfig(exec_mode=mode))
