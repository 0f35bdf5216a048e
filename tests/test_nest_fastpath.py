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
bit-identical.  With ``SLAB_TRIPS`` patched down to a few trips, the
driver's address slabs straddle every chunk and nest level and must
still tile each dispatch and match the reference bit for bit.
"""

import functools
import tempfile

import numpy as np
import pytest

from repro import telemetry
from repro.apps import run_gemm
from repro.apps.gemm import GEMM_VERSIONS
from repro.core.program import Program
from repro.paraver import write_trace
from repro.sim import fastpath
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


def _buffers(src, n=None, m=None):
    rng = np.random.default_rng(7)
    if src is MATVEC_SRC:
        n, m = n or 6, m or 13
        return dict(a=rng.standard_normal(n * m).astype(np.float32),
                    b=rng.standard_normal(m).astype(np.float32),
                    out=np.zeros(n, dtype=np.float32), n=n, m=m)
    if src is TRIPLE_SRC:
        n, m, k = 5, 7, 9
        return dict(a=rng.standard_normal(n * k).astype(np.float32),
                    b=rng.standard_normal(k * m).astype(np.float32),
                    out=np.zeros(n * m, dtype=np.float32), n=n, m=m, k=k)
    if src is TRIANGULAR_SRC:
        n = n or 9
        return dict(a=rng.standard_normal(n * n).astype(np.float32),
                    out=np.zeros(n, dtype=np.float32), n=n)
    n = 64
    return dict(a=np.arange(n, dtype=np.float32),
                out=np.zeros(2, dtype=np.float32), n=n)


def _run(src, mode, attribution=False, sizes=None):
    cfg = SimConfig(exec_mode=mode, attribution=attribution)
    prog = Program(src, sim_config=cfg)
    buffers = _buffers(src, **(sizes or {}))
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
        "trace_bits": result.trace.trace_bits,
        "flushes": result.trace.flushes,
        "timeline": [[col.tolist() for col in cols]
                     for cols in result.trace.timeline],
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

#: differential cases: name -> (kernel, sizes).  The sized variants put
#: the pipelined loop's trip count at, just past and well past the
#: 32-trip ``loop_chunk`` edge: matvec's reads back up the pipeline
#: window across chunks, and triangular's entries run 1..40 trips
NEST_CASES = {name: (src, None) for name, src in NEST_SOURCES.items()}
NEST_CASES.update({
    "matvec_m32": (MATVEC_SRC, {"m": 32}),
    "matvec_m33": (MATVEC_SRC, {"m": 33}),
    "matvec_m70": (MATVEC_SRC, {"m": 70}),
    "triangular_n40": (TRIANGULAR_SRC, {"n": 40}),
})


# ----------------------------------------------------------------------
# differential: every nest shape, all modes, attribution on and off
# ----------------------------------------------------------------------
class TestNestDifferential:
    @pytest.mark.parametrize("name", sorted(NEST_CASES))
    @pytest.mark.parametrize("mode", ["auto"])
    @pytest.mark.parametrize("attribution", [False, True])
    def test_bit_identical(self, name, mode, attribution):
        src, sizes = NEST_CASES[name]
        ref, ref_bufs = _run(src, "reference", attribution, sizes)
        fast, fast_bufs = _run(src, mode, attribution, sizes)
        _assert_identical(ref, ref_bufs, fast, fast_bufs)
        if attribution:
            assert fast.attribution is not None
            assert fast.attribution == ref.attribution
        else:
            assert fast.attribution is None

    @pytest.mark.parametrize("name", sorted(NEST_CASES))
    @pytest.mark.parametrize("attribution", [False, True])
    def test_prv_bytes_identical(self, name, attribution, tmp_path):
        src, sizes = NEST_CASES[name]
        blobs = []
        for mode in MODES:
            result, _bufs = _run(src, mode, attribution, sizes)
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

    @pytest.mark.parametrize("attribution", [False, True])
    def test_one_driver_per_plan(self, monkeypatch, attribution):
        compiled = []
        real = fastpath._compile_nest_driver

        def counting(*args, **kwargs):
            compiled.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fastpath, "_compile_nest_driver", counting)
        _run(TRIANGULAR_SRC, "auto", attribution, {"n": 40})
        # the inner loop is the only plan; its entries run 1..40 trips,
        # all through the one driver compiled on the first dispatch
        assert len(compiled) == 1

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


# ----------------------------------------------------------------------
# address slabs: tiny slab lengths straddle every chunk and nest level
# ----------------------------------------------------------------------
CHUNK = SimConfig().loop_chunk

#: slab lengths around the chunk edge, plus one that ends slabs mid-entry
SLAB_LENGTHS = [1, CHUNK - 1, CHUNK + 1, 100]

SLAB_CASES = ["gemm_" + version for version in sorted(GEMM_VERSIONS)] + [
    "matvec_m32", "matvec_m33", "matvec_m70", "triangular_n40"]


@functools.lru_cache(maxsize=None)
def _slab_case_ref(name, attribution):
    return _slab_case(name, "reference", attribution)

def _slab_case(name, mode, attribution):
    """(signature, .prv bytes, attribution table) of one slab case."""

    if name.startswith("gemm_"):
        cfg = SimConfig(thread_start_interval=50, exec_mode=mode,
                        attribution=attribution)
        result = run_gemm(name[5:], dim=16, num_threads=4,
                          sim_config=cfg).result
    else:
        src, sizes = NEST_CASES[name]
        result, _bufs = _run(src, mode, attribution, sizes)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_trace(result.trace, f"{tmp}/{name}")
        blob = open(files.prv, "rb").read()
    return _signature(result), blob, result.attribution


class TestAddressSlabs:
    @pytest.mark.parametrize("slab_trips", SLAB_LENGTHS)
    @pytest.mark.parametrize("name", SLAB_CASES)
    @pytest.mark.parametrize("attribution", [False, True])
    def test_tiny_slabs_bit_identical(self, monkeypatch, slab_trips, name,
                                      attribution):
        monkeypatch.setattr(fastpath, "SLAB_TRIPS", slab_trips)
        assert _slab_case(name, "auto", attribution) == \
            _slab_case_ref(name, attribution)

    @pytest.mark.parametrize("slab_trips",
                             [1, CHUNK + 1, 100, fastpath.SLAB_TRIPS])
    @pytest.mark.parametrize("name", ["gemm_naive", "matvec_m70",
                                      "triangular_n40"])
    def test_slabs_tile_every_dispatch(self, monkeypatch, slab_trips, name):
        dispatches = []
        real = fastpath._address_slabs

        def recording(cfg, cols):
            slab = real(cfg, cols)
            calls = []
            dispatches.append((len(cols[0][1]) if cols else 0, calls))

            def wrapped(lo, hi):
                lists = slab(lo, hi)
                calls.append((lo, len(lists[0])))
                return lists

            return wrapped

        monkeypatch.setattr(fastpath, "SLAB_TRIPS", slab_trips)
        monkeypatch.setattr(fastpath, "_address_slabs", recording)
        _slab_case(name, "auto", False)
        assert dispatches
        longest = max(slab_trips, CHUNK)
        for total, calls in dispatches:
            starts = [lo for lo, _n in calls]
            sizes = [n for _lo, n in calls]
            assert all(0 < n <= longest for n in sizes)
            # consecutive, gap-free, and covering every trip once
            assert starts == [sum(sizes[:i]) for i in range(len(sizes))]
            assert sum(sizes) == total
        if slab_trips < CHUNK:
            assert max(len(calls) for _t, calls in dispatches) > 1

    @pytest.mark.parametrize("top, dtype", [
        (2 ** 31 - 1, np.int32), (2 ** 31, np.int64)])
    def test_index_column_narrows_only_when_it_fits(self, top, dtype):
        idx = np.array([0, 5, top], dtype=np.int64)
        col = fastpath._index_column(idx)
        assert col.dtype == dtype
        assert col.tolist() == idx.tolist()
        assert fastpath._index_column(
            np.array([-2 ** 31 - 1], dtype=np.int64)).dtype == np.int64
        assert fastpath._index_column(
            np.empty(0, dtype=np.int64)).dtype == np.int32
