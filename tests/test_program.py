"""Tests for host+device program execution (repro.core.Program)."""

import numpy as np
import pytest

from repro.core import Program, SimConfig
from repro.frontend.errors import SemaError

FAST = SimConfig(thread_start_interval=5, launch_overhead=10)


SCALE_AND_SUM = """
float scale_sum(float* data, int n, float factor) {
  float total = 0.0f;
  float f2 = factor * 2.0f;
  #pragma omp target parallel map(to:data[0:n], f2) map(tofrom:total) \\
      num_threads(2)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    float s = 0.0f;
    for (int i = t; i < n; i += nt) {
      s += data[i] * f2;
    }
    #pragma omp critical
    { total += s; }
  }
  return total / 2.0f;
}
"""


class TestHostExecution:
    def test_host_pre_and_post_statements(self, rng):
        program = Program(SCALE_AND_SUM, sim_config=FAST)
        data = rng.random(16, dtype=np.float32)
        outcome = program.run(data=data, n=16, factor=3.0)
        expected = float(data.sum()) * 6.0 / 2.0
        assert outcome.value == pytest.approx(expected, rel=1e-4)

    def test_tofrom_scalar_read_back(self, rng):
        program = Program(SCALE_AND_SUM, sim_config=FAST)
        data = rng.random(8, dtype=np.float32)
        outcome = program.run(data=data, n=8, factor=1.0)
        assert outcome.host_env["total"] == pytest.approx(
            2.0 * float(data.sum()), rel=1e-4)

    def test_missing_argument(self):
        program = Program(SCALE_AND_SUM, sim_config=FAST)
        with pytest.raises(TypeError, match="missing argument"):
            program.run(n=8, factor=1.0)

    def test_sim_result_attached(self, rng):
        program = Program(SCALE_AND_SUM, sim_config=FAST)
        data = rng.random(8, dtype=np.float32)
        outcome = program.run(data=data, n=8, factor=1.0)
        assert outcome.sim.cycles > 0
        assert outcome.sim.trace.num_threads == 2

    def test_host_cast_semantics(self):
        source = """
        float f(int n) {
          float inv = 1.0f / (float) n;
          float out = 0.0f;
          #pragma omp target parallel map(to:inv) map(tofrom:out) num_threads(1)
          {
            #pragma omp critical
            { out += inv; }
          }
          return out;
        }
        """
        outcome = Program(source, sim_config=FAST).run(n=4)
        assert outcome.value == pytest.approx(0.25)

    def test_host_ternary_and_unary(self):
        source = """
        float f(int n) {
          float x = n > 2 ? 1.0f : -1.0f;
          float y = -x;
          float out = 0.0f;
          #pragma omp target parallel map(to:y) map(tofrom:out) num_threads(1)
          {
            #pragma omp critical
            { out += y; }
          }
          return out;
        }
        """
        outcome = Program(source, sim_config=FAST).run(n=5)
        assert outcome.value == -1.0

    def test_void_function_returns_none(self, rng):
        source = """
        void f(float* a, int n) {
          #pragma omp target parallel map(tofrom:a[0:n]) num_threads(1)
          {
            for (int i = 0; i < n; ++i) { a[i] = 1.0f; }
          }
        }
        """
        a = np.zeros(4, dtype=np.float32)
        outcome = Program(source, sim_config=FAST).run(a=a, n=4)
        assert outcome.value is None
        assert a.tolist() == [1, 1, 1, 1]

    def test_host_call_rejected(self):
        source = """
        float f(int n) {
          float x = sqrtf(2.0f);
          #pragma omp target parallel map(to:x)
          { float y = x; }
          return x;
        }
        """
        with pytest.raises(SemaError, match="unknown function"):
            Program(source, sim_config=FAST)

    def test_custom_clock(self, rng):
        program = Program(SCALE_AND_SUM, sim_config=FAST)
        data = rng.random(8, dtype=np.float32)
        outcome = program.run(data=data, n=8, factor=1.0, clock_mhz=200.0)
        assert outcome.sim.clock_mhz == 200.0

    def test_name(self):
        assert Program(SCALE_AND_SUM, sim_config=FAST).name == "scale_sum"

    @pytest.mark.parametrize("value", [True, 0, "~/.cache/repro"])
    def test_compile_cache_keyword_accepts_only_off(self, value):
        """There is no compile cache: the keyword remains only so callers
        that pass ``compile_cache=False`` keep working."""

        assert Program(SCALE_AND_SUM, compile_cache=False).name == \
            "scale_sum"
        with pytest.raises(TypeError, match="no compile cache"):
            Program(SCALE_AND_SUM, compile_cache=value)
