"""Differential tests for the vectorized pipelined-loop fast path.

The fast path (:mod:`repro.sim.fastpath`) is a pure performance
optimization: ``exec_mode="auto"`` must produce
**bit-identical** simulated state to the scalar reference interpreter
(``exec_mode="reference"``) — cycles, stalls, DRAM counters, every
profiling event series, and every output buffer.  These tests pin that
contract over the bundled applications plus a synthetic kernel that is
deliberately not vectorizable (exercising the scalar fallback), and
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
# configuration validation
# ----------------------------------------------------------------------
def test_unknown_exec_mode_rejected():
    for mode in ("turbo", "vectorized"):
        with pytest.raises(ValueError, match="exec_mode"):
            run_gemm("naive", dim=16, num_threads=4,
                     sim_config=SimConfig(exec_mode=mode))
