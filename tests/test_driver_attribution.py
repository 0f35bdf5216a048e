"""Cycle accounting through the generated nest driver.

With attribution on, flattened nests and lone pipelined loops (depth-0
nests) run through the codegen'd driver, which must make the same
accounting deposits as the scalar reference.  The stock kernels cover
most deposit kinds; these two cover the rest: a two-level nest whose
trailing segment *reads* external memory (binding-read peel of a
trailing segment), and lone pipelined loops next to a contended
critical section.

A non-empty deposit inside one sampling window is added in the driver
itself, into locals for the window it keeps open; window-crossing and
zero-length deposits go through the recorder.  Small sampling periods
make every kind happen inside the driver, and mid-run row growth; the
larger ones (61 and 509 cycles, both prime) close the open window
mid-chunk, mid-entry and across yields.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.apps import run_gemm
from repro.apps.gemm import GEMM_VERSIONS
from repro.core.program import Program
from repro.hls import HLSOptions
from repro.paraver import write_trace
from repro.profiling import ProfilingConfig, ProfilingRecorder
from repro.profiling.config import ATTRIBUTION_EVENTS
from repro.sim.config import SimConfig

# two sequential levels around a pipelined dot product; the trailing
# segment loads b[i] before storing out[i]
TRAIL_READ_SRC = """
void k(float* a, float* b, float* out, int n, int m) {
  #pragma omp target parallel map(to:a[0:n*m], b[0:n]) \\
      map(tofrom:out[0:n]) num_threads(3)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int r = 0; r < 2; ++r) {
      for (int i = t; i < n; i += nt) {
        float s = 0;
        for (int j = 0; j < m; ++j) {
          s += a[i * m + j] * 2.0f;
        }
        out[i] = s + b[i];
      }
    }
  }
}
"""

# a lone pipelined loop, then a nest whose trailing critical section
# every thread contends for
LONE_AND_CRITICAL_SRC = """
void k(float* a, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n]) map(tofrom:out[0:n]) \\
      num_threads(4)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      out[i] = a[i] * 3.0f + 1.0f;
    }
    for (int i = t; i < n; i += nt) {
      float s = 0;
      for (int j = 0; j < 40; ++j) {
        s += a[(i + j) % n];
      }
      #pragma omp critical
      {
        out[0] = out[0] + s;
      }
    }
  }
}
"""


def _inputs(name):
    rng = np.random.default_rng(3)
    if name == "trail_read":
        n, m = 11, 37
        return dict(a=rng.standard_normal(n * m).astype(np.float32),
                    b=rng.standard_normal(n).astype(np.float32),
                    out=np.zeros(n, dtype=np.float32), n=n, m=m)
    n = 50
    return dict(a=rng.standard_normal(n).astype(np.float32),
                out=np.zeros(n, dtype=np.float32), n=n)


SOURCES = {"trail_read": TRAIL_READ_SRC,
           "lone_and_critical": LONE_AND_CRITICAL_SRC}


@pytest.fixture(autouse=True)
def _telemetry_disabled_after():
    yield
    telemetry.configure(enabled=False)


def _run(name, mode, tmp_path, options=None):
    cfg = SimConfig(exec_mode=mode, attribution=True,
                    thread_start_interval=37)
    args = _inputs(name)
    session = telemetry.configure(enabled=True)
    sim = Program(SOURCES[name], sim_config=cfg,
                  options=options).run(**args).sim
    counters = dict(session.counters)
    files = write_trace(sim.trace, str(tmp_path / f"{name}_{mode}"))
    with open(files.prv, "rb") as handle:
        prv = handle.read()
    return sim, args["out"], prv, counters


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_driver_deposits_match_reference(name, tmp_path):
    ref, ref_out, ref_prv, _ = _run(name, "reference", tmp_path)
    fast, fast_out, fast_prv, counters = _run(name, "auto", tmp_path)
    assert fast.cycles == ref.cycles
    assert fast.stalls == ref.stalls
    assert list(fast.attribution.cells.items()) == list(
        ref.attribution.cells.items())
    assert fast.attribution.check(fast.cycles) == []
    for kind in ATTRIBUTION_EVENTS:
        assert (fast.trace.events[kind].tobytes()
                == ref.trace.events[kind].tobytes()), kind
    assert fast_prv == ref_prv
    assert np.array_equal(fast_out, ref_out)
    # the driver really ran: every nest flattened, nothing fell back
    assert counters.get("sim.fastpath.nests_flattened", 0) > 0
    assert counters.get("sim.fastpath.fallbacks", 0) == 0
    assert counters.get("sim.fastpath.nest_fallbacks", 0) == 0


def _small_windows(period):
    # the hardware counters are off so that a flush every cycle or
    # seven does not swamp the run with trace traffic; the attribution
    # counters are virtual and binned regardless
    return HLSOptions(profiling=ProfilingConfig(sampling_period=period,
                                                events=()))


def _gemm_run(version, mode, tmp_path, options=None, attribution=True,
              loop_chunk=SimConfig().loop_chunk):
    sim = run_gemm(version, dim=16, attribution=attribution, options=options,
                   sim_config=SimConfig(thread_start_interval=50,
                                        exec_mode=mode,
                                        loop_chunk=loop_chunk)).result
    files = write_trace(sim.trace, str(tmp_path / f"{version}_{mode}"))
    with open(files.prv, "rb") as handle:
        return sim, handle.read()


@pytest.mark.parametrize("period", [1, 7, 61, 509])
@pytest.mark.parametrize("name", sorted(SOURCES) + sorted(GEMM_VERSIONS))
def test_small_windows_match_reference(name, period, tmp_path):
    options = _small_windows(period)
    if name in SOURCES:
        (ref, _, ref_prv, _), (fast, _, fast_prv, _) = (
            _run(name, mode, tmp_path, options)
            for mode in ("reference", "auto"))
    else:
        (ref, ref_prv), (fast, fast_prv) = (
            _gemm_run(name, mode, tmp_path, options)
            for mode in ("reference", "auto"))
    assert fast.cycles == ref.cycles
    assert fast.stalls == ref.stalls
    assert list(fast.attribution.cells.items()) == list(
        ref.attribution.cells.items())
    assert fast.attribution.check(fast.cycles) == []
    for kind in ATTRIBUTION_EVENTS:
        assert (fast.trace.events[kind].tobytes()
                == ref.trace.events[kind].tobytes()), kind
    assert fast_prv == ref_prv


@pytest.mark.parametrize("attribution", [False, True])
@pytest.mark.parametrize("chunk", [3, 7])
def test_odd_chunks_match_reference(chunk, attribution, tmp_path):
    """Chunks of an odd number of trips end mid-entry: no_critical's
    16-trip entries read external memory every trip and back up the
    pipeline, so the in-flight window slots must carry over from chunk
    to chunk exactly."""

    (ref, ref_prv), (fast, fast_prv) = (
        _gemm_run("no_critical", mode, tmp_path, _small_windows(61),
                  attribution=attribution, loop_chunk=chunk)
        for mode in ("reference", "auto"))
    assert fast.cycles == ref.cycles
    assert fast.stalls == ref.stalls
    assert fast_prv == ref_prv
    if attribution:
        assert list(fast.attribution.cells.items()) == list(
            ref.attribution.cells.items())
        assert fast.attribution.check(fast.cycles) == []


def test_driver_adds_single_window_deposits_itself(monkeypatch):
    """Naive GEMM's nest entries make their deposits without calling
    the recorder: only window-crossing deposits and the executor's own
    deposits reach ``attr_deposit``, and ``profiling.attr_deposits``
    counts exactly those calls."""

    calls = 0
    deposit = ProfilingRecorder.attr_deposit

    def counted(*args):
        nonlocal calls
        calls += 1
        return deposit(*args)

    monkeypatch.setattr(ProfilingRecorder, "attr_deposit", counted)
    session = telemetry.configure(enabled=True)
    run_gemm("naive", dim=16, num_threads=8, attribution=True)
    entries = session.counters["sim.fastpath.entries_batched"]
    assert entries == 2048
    assert calls < entries // 5
    assert session.counters["profiling.attr_deposits"] == calls
