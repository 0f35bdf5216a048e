"""Differential tests for cross-entry (flattened loop-nest) batching.

The nest fast path flattens a sequential loop (or stack of sequential
loops) around a pipelined inner loop into one mega-batch.  Like the
per-entry fast path it is a pure performance optimization: for every
nest shape — two-level, three-level, uneven trip counts — both
``exec_mode`` settings must produce bit-identical cycles, ``.prv
bytes and :class:`AttributionTable`s, with attribution on and off.
Entry-dependent inner bounds are not flattenable and must leave
``sim.fastpath.nests_flattened`` at zero while still matching the
reference through the per-entry path.  A single-cell read-modify-write
recurrence inside a flattened nest (the kernel from
``tests/test_fastpath.py`` wrapped in an outer sequential loop) must
take the per-entry fallback (``sim.fastpath.nest_fallbacks``) and stay
bit-identical.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.program import Program
from repro.paraver import write_trace
from repro.sim.config import SimConfig

MODES = ["reference", "auto"]


@pytest.fixture(autouse=True)
def _telemetry_disabled_after():
    """Leave the process-wide telemetry registry disabled after each test."""

    yield
    telemetry.configure(enabled=False)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
# sequential x pipelined: per-row dot products, uneven inner trip count
MATVEC_SRC = """
void matvec(float* a, float* b, float* out, int n, int m) {
  #pragma omp target parallel map(to:a[0:n*m], b[0:m]) \\
      map(from:out[0:n]) num_threads(4)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      float s = 0;
      for (int j = 0; j < m; ++j) {
        s += a[i*m+j] * b[j];
      }
      out[i] = s;
    }
  }
}
"""

# sequential x sequential x pipelined, all three trip counts uneven
TRIPLE_SRC = """
void mm(float* a, float* b, float* out, int n, int m, int k) {
  #pragma omp target parallel map(to:a[0:n*k], b[0:k*m]) \\
      map(from:out[0:n*m]) num_threads(4)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      for (int j = 0; j < m; ++j) {
        float s = 0;
        for (int q = 0; q < k; ++q) {
          s += a[i*k+q] * b[q*m+j];
        }
        out[i*m+j] = s;
      }
    }
  }
}
"""

# entry-dependent inner bound (triangular): must NOT flatten
TRIANGULAR_SRC = """
void tri(float* a, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n*n]) map(from:out[0:n]) \\
      num_threads(4)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      float s = 0;
      for (int j = 0; j < i + 1; ++j) {
        s += a[i*n+j];
      }
      out[i] = s;
    }
  }
}
"""

# the single-cell RMW kernel from test_fastpath.py wrapped in an outer
# sequential loop: the nest flattens structurally, but the mega value
# kernel hits the runtime lane-overlap fallback
NEST_RMW_SRC = """
void accum(float* a, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n]) map(tofrom:out[0:2]) \\
      num_threads(2)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int r = 0; r < 4; ++r) {
      for (int i = t; i < n; i += nt) {
        out[t] = out[t] + a[i];
      }
    }
  }
}
"""


def _buffers(src):
    rng = np.random.default_rng(7)
    if src is MATVEC_SRC:
        n, m = 6, 13
        return dict(a=rng.standard_normal(n * m).astype(np.float32),
                    b=rng.standard_normal(m).astype(np.float32),
                    out=np.zeros(n, dtype=np.float32), n=n, m=m)
    if src is TRIPLE_SRC:
        n, m, k = 5, 7, 9
        return dict(a=rng.standard_normal(n * k).astype(np.float32),
                    b=rng.standard_normal(k * m).astype(np.float32),
                    out=np.zeros(n * m, dtype=np.float32), n=n, m=m, k=k)
    if src is TRIANGULAR_SRC:
        n = 9
        return dict(a=rng.standard_normal(n * n).astype(np.float32),
                    out=np.zeros(n, dtype=np.float32), n=n)
    n = 64
    return dict(a=np.arange(n, dtype=np.float32),
                out=np.zeros(2, dtype=np.float32), n=n)


def _run(src, mode, attribution=False):
    cfg = SimConfig(exec_mode=mode, attribution=attribution)
    prog = Program(src, sim_config=cfg)
    buffers = _buffers(src)
    arrays = {name: value.copy() if isinstance(value, np.ndarray) else value
              for name, value in buffers.items()}
    result = prog.run(**arrays)
    outs = {name: value for name, value in arrays.items()
            if isinstance(value, np.ndarray)}
    return result.sim, outs


def _signature(result):
    """Everything the nest fast path must reproduce bit-for-bit."""

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


def _assert_identical(ref, ref_bufs, fast, fast_bufs):
    assert _signature(ref) == _signature(fast)
    assert set(ref_bufs) == set(fast_bufs)
    for name in ref_bufs:
        assert np.array_equal(ref_bufs[name], fast_bufs[name]), name


NEST_SOURCES = {
    "matvec": MATVEC_SRC,
    "triple": TRIPLE_SRC,
    "triangular": TRIANGULAR_SRC,
    "nest_rmw": NEST_RMW_SRC,
}


# ----------------------------------------------------------------------
# differential: every nest shape, all modes, attribution on and off
# ----------------------------------------------------------------------
class TestNestDifferential:
    @pytest.mark.parametrize("name", sorted(NEST_SOURCES))
    @pytest.mark.parametrize("mode", ["auto"])
    @pytest.mark.parametrize("attribution", [False, True])
    def test_bit_identical(self, name, mode, attribution):
        src = NEST_SOURCES[name]
        ref, ref_bufs = _run(src, "reference", attribution)
        fast, fast_bufs = _run(src, mode, attribution)
        _assert_identical(ref, ref_bufs, fast, fast_bufs)
        if attribution:
            assert fast.attribution is not None
            assert fast.attribution == ref.attribution
        else:
            assert fast.attribution is None

    @pytest.mark.parametrize("name", sorted(NEST_SOURCES))
    @pytest.mark.parametrize("attribution", [False, True])
    def test_prv_bytes_identical(self, name, attribution, tmp_path):
        src = NEST_SOURCES[name]
        blobs = []
        for mode in MODES:
            result, _bufs = _run(src, mode, attribution)
            files = write_trace(result.trace,
                                str(tmp_path / f"{name}_{mode}"))
            blobs.append(open(files.prv, "rb").read())
        assert blobs[0] == blobs[1]

    def test_matvec_computes_the_matvec(self):
        _result, bufs = _run(MATVEC_SRC, "auto")
        inputs = _buffers(MATVEC_SRC)
        expected = (inputs["a"].reshape(6, 13) @ inputs["b"]).astype(
            np.float32)
        np.testing.assert_allclose(bufs["out"], expected, rtol=1e-5)


# ----------------------------------------------------------------------
# telemetry: the flatten / no-flatten / fallback decisions
# ----------------------------------------------------------------------
class TestNestTelemetry:
    @pytest.mark.parametrize("name", ["matvec", "triple"])
    def test_flattenable_nests_flatten_cleanly(self, name):
        session = telemetry.configure(enabled=True)
        _run(NEST_SOURCES[name], "auto")
        counters = session.counters
        # telemetry.add drops zero amounts, so absent means zero
        assert counters.get("sim.fastpath.nests_flattened", 0) > 0
        assert counters.get("sim.fastpath.entries_batched", 0) > 0
        assert counters.get("sim.fastpath.nest_fallbacks", 0) == 0
        assert counters.get("sim.fastpath.fallbacks", 0) == 0

    def test_entry_dependent_bounds_do_not_flatten(self):
        session = telemetry.configure(enabled=True)
        _run(TRIANGULAR_SRC, "auto")
        counters = session.counters
        assert counters.get("sim.fastpath.nests_flattened", 0) == 0
        assert counters.get("sim.fastpath.nest_fallbacks", 0) == 0
        # the per-entry fast path still covers the inner loop
        assert counters.get("sim.fastpath.batches", 0) > 0

    def test_reference_mode_never_flattens(self):
        session = telemetry.configure(enabled=True)
        _run(MATVEC_SRC, "reference")
        counters = session.counters
        assert counters.get("sim.fastpath.nests_flattened", 0) == 0
        assert counters.get("sim.fastpath.entries_batched", 0) == 0

    def test_attribution_keeps_flattening(self):
        for name in ("matvec", "triple"):
            session = telemetry.configure(enabled=True)
            _run(NEST_SOURCES[name], "auto", attribution=True)
            counters = session.counters
            assert counters.get("sim.fastpath.nests_flattened", 0) > 0, name
            assert counters.get("sim.fastpath.nest_fallbacks", 0) == 0, name
            assert counters.get("sim.fastpath.fallbacks", 0) == 0, name


class TestNestForcedFallback:
    def test_rmw_nest_falls_back_per_entry(self):
        session = telemetry.configure(enabled=True)
        _result, bufs = _run(NEST_RMW_SRC, "auto")
        counters = session.counters
        # the nest flattens structurally but the mega value kernel hits
        # the single-cell RMW recurrence, so every entry falls back
        assert counters.get("sim.fastpath.nest_fallbacks", 0) > 0
        assert counters.get("sim.fastpath.nests_flattened", 0) == 0
        assert counters.get("sim.fastpath.fallbacks", 0) > 0
        # 4 outer entries, each accumulating a[t::2] into out[t]
        expected = np.array([4 * np.arange(64, dtype=np.float32)[t::2].sum()
                             for t in range(2)])
        assert np.array_equal(bufs["out"], expected)
