"""Cycle accounting through the generated nest driver.

With attribution on, flattened nests and lone pipelined loops (depth-0
nests) run through the codegen'd driver, which must make the same
accounting deposits as the scalar reference.  The stock kernels cover
most deposit kinds; these two cover the rest: a two-level nest whose
trailing segment *reads* external memory (binding-read peel of a
trailing segment), and lone pipelined loops next to a contended
critical section.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.program import Program
from repro.paraver import write_trace
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


def _run(name, mode, tmp_path):
    cfg = SimConfig(exec_mode=mode, attribution=True,
                    thread_start_interval=37)
    args = _inputs(name)
    session = telemetry.configure(enabled=True)
    sim = Program(SOURCES[name], sim_config=cfg).run(**args).sim
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
    assert fast.attribution == ref.attribution
    assert fast.attribution.check(fast.cycles) == []
    assert fast_prv == ref_prv
    assert np.array_equal(fast_out, ref_out)
    # the driver really ran: every nest flattened, nothing fell back
    assert counters.get("sim.fastpath.nests_flattened", 0) > 0
    assert counters.get("sim.fastpath.fallbacks", 0) == 0
    assert counters.get("sim.fastpath.nest_fallbacks", 0) == 0
