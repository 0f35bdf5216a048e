"""Functional-semantics tests: micro-kernels through the whole stack.

Each test compiles a tiny mini-C kernel, simulates it, and checks the
memory contents — exercising the generated Python of
:mod:`repro.sim.interp` for every operation class.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Program, SimConfig

FAST = SimConfig(thread_start_interval=5, launch_overhead=10)


def run_kernel(body: str, n: int = 8, threads: int = 1, extra_params: str = "",
               defines=None, **args):
    source = f"""
    void f(float* out, int n{', ' + extra_params if extra_params else ''}) {{
      #pragma omp target parallel map(from:out[0:n]) num_threads({threads})
      {{
{body}
      }}
    }}
    """
    out = np.zeros(n, dtype=np.float32)
    program = Program(source, defines=defines, sim_config=FAST)
    program.run(out=out, n=n, **args)
    return out


class TestScalarArithmetic:
    def test_add_sub_mul(self):
        out = run_kernel("out[0] = 2.0f + 3.0f;\n"
                         "out[1] = 5.0f - 1.5f;\n"
                         "out[2] = 4.0f * 2.5f;")
        assert out[0] == 5.0 and out[1] == 3.5 and out[2] == 10.0

    def test_float_division(self):
        out = run_kernel("out[0] = 7.0f / 2.0f;")
        assert out[0] == 3.5

    def test_int_division_truncates(self):
        out = run_kernel("int x = 7 / 2;\nout[0] = (float) x;")
        assert out[0] == 3.0

    def test_int_remainder(self):
        out = run_kernel("int x = 7 % 3;\nout[0] = (float) x;")
        assert out[0] == 1.0

    def test_negation(self):
        out = run_kernel("out[0] = -3.5f;")
        assert out[0] == -3.5

    def test_casts(self):
        out = run_kernel("out[0] = (float) 3;\n"
                         "int y = (int) 2.9f;\nout[1] = (float) y;")
        assert out[0] == 3.0 and out[1] == 2.0

    def test_comparisons_and_ternary(self):
        out = run_kernel("out[0] = 3 > 2 ? 1.0f : 0.0f;\n"
                         "out[1] = 3 <= 2 ? 1.0f : 0.0f;\n"
                         "out[2] = 3 == 3 ? 1.0f : 0.0f;\n"
                         "out[3] = 3 != 3 ? 1.0f : 0.0f;")
        assert out.tolist()[:4] == [1.0, 0.0, 1.0, 0.0]

    def test_logical_ops(self):
        out = run_kernel("out[0] = (1 < 2 && 3 < 4) ? 1.0f : 0.0f;\n"
                         "out[1] = (1 > 2 || 3 < 4) ? 1.0f : 0.0f;\n"
                         "out[2] = !(1 < 2) ? 1.0f : 0.0f;")
        assert out.tolist()[:3] == [1.0, 1.0, 0.0]

    def test_shift_ops(self):
        out = run_kernel("int x = 3 << 2;\nint y = 16 >> 3;\n"
                         "out[0] = (float) x;\nout[1] = (float) y;")
        assert out[0] == 12.0 and out[1] == 2.0

    def test_bitwise_int(self):
        out = run_kernel("int x = 12 & 10;\nint y = 12 | 3;\nint z = 12 ^ 10;\n"
                         "out[0] = (float)x;\nout[1] = (float)y;\nout[2] = (float)z;")
        assert out.tolist()[:3] == [8.0, 15.0, 6.0]


class TestVariablesAndLoops:
    def test_accumulation(self):
        out = run_kernel("""
        float s = 0.0f;
        for (int i = 0; i < n; ++i) { s += (float) i; }
        out[0] = s;
        """)
        assert out[0] == sum(range(8))

    def test_loop_step(self):
        out = run_kernel("""
        for (int i = 0; i < n; i += 2) { out[i] = 1.0f; }
        """)
        assert out.tolist() == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_empty_loop(self):
        out = run_kernel("""
        for (int i = 4; i < 2; ++i) { out[0] = 9.0f; }
        out[1] = 1.0f;
        """)
        assert out[0] == 0.0 and out[1] == 1.0

    def test_nested_loops(self):
        out = run_kernel("""
        float s = 0.0f;
        for (int i = 0; i < 4; ++i) {
          for (int j = 0; j < 2; ++j) { s += 1.0f; }
        }
        out[0] = s;
        """)
        assert out[0] == 8.0

    def test_if_else_in_loop(self):
        out = run_kernel("""
        for (int i = 0; i < n; ++i) {
          if (i % 2 == 0) { out[i] = 1.0f; }
          else { out[i] = 2.0f; }
        }
        """)
        assert out.tolist() == [1, 2, 1, 2, 1, 2, 1, 2]

    def test_increment_statement(self):
        out = run_kernel("""
        int count = 0;
        for (int i = 0; i < n; ++i) { count++; }
        out[0] = (float) count;
        """)
        assert out[0] == 8.0


class TestVectors:
    def test_broadcast_and_lane_write(self):
        out = run_kernel("""
        float4 v = {1.5f};
        v[2] = 9.0f;
        out[0] = v[0];
        out[1] = v[2];
        """)
        assert out[0] == 1.5 and out[1] == 9.0

    def test_vector_load_store(self):
        source = """
        void f(float* out, float* src, int n) {
          #pragma omp target parallel map(from:out[0:n]) map(to:src[0:n]) \\
              num_threads(1)
          {
            *((float4*) &out[0]) = *((float4*) &src[4]);
          }
        }
        """
        src = np.arange(8, dtype=np.float32)
        out = np.zeros(8, dtype=np.float32)
        Program(source, sim_config=FAST).run(out=out, src=src, n=8)
        assert out.tolist()[:4] == [4, 5, 6, 7]

    def test_vector_elementwise_math(self):
        out = run_kernel("""
        float4 v = {2.0f};
        float4 w = v * v + v;
        out[0] = w[3];
        """)
        assert out[0] == 6.0


class TestLocalArrays:
    def test_roundtrip(self):
        out = run_kernel("""
        float buf[8];
        for (int i = 0; i < n; ++i) { buf[i] = (float)(i * i); }
        for (int i = 0; i < n; ++i) { out[i] = buf[i]; }
        """)
        assert out.tolist() == [0, 1, 4, 9, 16, 25, 36, 49]

    def test_2d_flattening(self):
        out = run_kernel("""
        float buf[2][4];
        buf[1][3] = 7.0f;
        buf[0][0] = 1.0f;
        out[0] = buf[1][3];
        out[1] = buf[0][0];
        """)
        assert out[0] == 7.0 and out[1] == 1.0

    def test_thread_private(self):
        out = run_kernel("""
        int tid = omp_get_thread_num();
        float buf[4];
        buf[0] = (float) tid;
        out[tid] = buf[0];
        """, threads=4, n=4)
        assert out.tolist() == [0, 1, 2, 3]


class TestThreading:
    def test_thread_ids_cover_range(self):
        out = run_kernel("int t = omp_get_thread_num();\n"
                         "out[t] = (float)(t + 1);", threads=8, n=8)
        assert out.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_num_threads_value(self):
        out = run_kernel("out[omp_get_thread_num()] = "
                         "(float) omp_get_num_threads();", threads=4, n=4)
        assert out.tolist() == [4, 4, 4, 4]

    def test_work_split_by_thread(self):
        out = run_kernel("""
        int t = omp_get_thread_num();
        int nt = omp_get_num_threads();
        for (int i = t; i < n; i += nt) { out[i] = (float) t; }
        """, threads=2, n=8)
        assert out.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 9),
       st.sampled_from(["+", "-", "*"]), st.sampled_from(["+", "-", "*", "/"]))
def test_int_expression_property(a, b, c, op1, op2):
    """Arbitrary int expressions evaluate with C semantics end to end."""

    expr = f"(({a} {op1} {b}) {op2} {c})"
    python_inner = {"+": a + b, "-": a - b, "*": a * b}[op1]
    python_value = {"+": python_inner + c, "-": python_inner - c,
                    "*": python_inner * c,
                    "/": int(python_inner / c)}[op2]
    out = run_kernel(f"int x = {expr};\nout[0] = (float) x;", n=1)
    assert out[0] == float(python_value)
