"""Unit tests for semantic analysis."""

import pytest

from repro.frontend.errors import SemaError
from repro.frontend.parser import parse
from repro.frontend.sema import (
    SymbolKind, analyze_function, eval_const_int, resolve_type_name,
)
from repro.ir.types import FLOAT32, FLOAT64, INT32, VectorType


def analyze(source: str, defines=None):
    unit = parse(source, defines=defines)
    return analyze_function(unit.functions[0])


KERNEL_TMPL = """
void f(float* a, int n) {{
  #pragma omp target parallel map(to:a[0:n]) num_threads(4)
  {{
{body}
  }}
}}
"""


def analyze_body(body: str, defines=None):
    return analyze(KERNEL_TMPL.format(body=body), defines=defines)


class TestResolveTypeName:
    def test_scalars(self):
        assert resolve_type_name("int") == INT32
        assert resolve_type_name("float") == FLOAT32
        assert resolve_type_name("double") == FLOAT64

    def test_vectors(self):
        assert resolve_type_name("float4") == VectorType(FLOAT32, 4)
        assert resolve_type_name("double2") == VectorType(FLOAT64, 2)

    def test_unknown(self):
        with pytest.raises(SemaError, match="unknown type"):
            resolve_type_name("quux")

    def test_absurd_width(self):
        with pytest.raises(SemaError, match="vector width"):
            resolve_type_name("float100")


class TestRegionDiscovery:
    def test_missing_region(self):
        with pytest.raises(SemaError, match="no .*target parallel"):
            analyze("void f() { }")

    def test_two_regions_rejected(self):
        source = """
        void f(int n) {
          #pragma omp target parallel
          { int x = n; }
          #pragma omp target parallel
          { int y = n; }
        }
        """
        with pytest.raises(SemaError, match="one target region"):
            analyze(source)

    def test_region_must_be_compound(self):
        source = """
        void f(int n) {
          #pragma omp target parallel
          int x = n;
        }
        """
        with pytest.raises(SemaError, match="compound"):
            analyze(source)


class TestCaptures:
    def test_captures_in_first_use_order(self):
        source = """
        void f(float* a, float* b, int n) {
          #pragma omp target parallel map(to:b[0:n]) map(from:a[0:n])
          {
            for (int i = 0; i < n; ++i) {
              a[i] = b[i];
            }
          }
        }
        """
        sema = analyze(source)
        # assignment values are analyzed before their targets
        assert [s.name for s in sema.captures] == ["n", "b", "a"]

    def test_host_local_captured(self):
        source = """
        void f(int n) {
          float scale = 2.0f;
          #pragma omp target parallel map(to:scale)
          {
            float x = scale;
          }
        }
        """
        sema = analyze(source)
        assert "scale" in [s.name for s in sema.captures]


class TestScopes:
    def test_redeclaration_rejected(self):
        with pytest.raises(SemaError, match="redeclaration"):
            analyze_body("int x = 0;\nint x = 1;")

    def test_shadowing_in_inner_scope_allowed(self):
        analyze_body("int x = 0;\nfor (int i = 0; i < n; ++i) { int x = 1; }")

    def test_undeclared_identifier(self):
        with pytest.raises(SemaError, match="undeclared identifier"):
            analyze_body("int x = missing;")

    def test_loop_variable_scoped_to_loop(self):
        with pytest.raises(SemaError, match="undeclared"):
            analyze_body("for (int i = 0; i < n; ++i) { }\nint x = i;")


class TestLoops:
    def test_canonical_loop_info(self):
        sema = analyze_body("for (int i = 2; i < n; i += 3) { }")
        loop = sema.region.stmts[0]
        info = loop.loop_info
        assert info.var.kind is SymbolKind.INDUCTION
        assert not info.inclusive
        assert eval_const_int(info.lower) == 2
        assert eval_const_int(info.step) == 3

    def test_le_condition(self):
        sema = analyze_body("for (int i = 0; i <= n; ++i) { }")
        assert sema.region.stmts[0].loop_info.inclusive

    def test_var_plus_step_increment(self):
        sema = analyze_body("for (int i = 0; i < n; i = i + 2) { }")
        assert eval_const_int(sema.region.stmts[0].loop_info.step) == 2

    def test_unroll_attaches(self):
        sema = analyze_body(
            "#pragma unroll 4\nfor (int i = 0; i < n; ++i) { }")
        assert sema.region.stmts[0].loop_info.unroll == 4

    def test_float_induction_rejected(self):
        with pytest.raises(SemaError, match="integer"):
            analyze_body("for (float i = 0; i < n; ++i) { }")

    def test_wrong_condition_shape(self):
        with pytest.raises(SemaError, match="loop condition"):
            analyze_body("for (int i = 0; n > i; ++i) { }")

    def test_decrement_rejected(self):
        with pytest.raises(SemaError, match="loop increment"):
            analyze_body("for (int i = 0; i < n; i -= 1) { }")

    def test_induction_assignment_rejected(self):
        with pytest.raises(SemaError, match="induction"):
            analyze_body("for (int i = 0; i < n; ++i) { i = 3; }")


class TestTypesAndAssignments:
    def test_expression_types(self):
        sema = analyze_body("float x = 1;\nfloat y = x + n;")
        decl = sema.region.stmts[1]
        assert decl.init.type == FLOAT32

    def test_vector_lane_access(self):
        sema = analyze_body("float4 v = {0.0f};\nfloat x = v[1];",
                            defines=None)
        decl = sema.region.stmts[1]
        assert decl.init.type == FLOAT32

    def test_array_dims_must_be_const(self):
        with pytest.raises(SemaError, match="compile-time"):
            analyze_body("float buf[n];")

    def test_array_assign_rejected(self):
        with pytest.raises(SemaError, match="array or pointer"):
            analyze_body("float buf[4];\nfloat c[4];\nbuf = c;")

    def test_pointer_arithmetic_rejected(self):
        with pytest.raises(SemaError, match="pointer arithmetic"):
            analyze_body("float x = a + 1;")

    def test_subscript_must_be_integer(self):
        with pytest.raises(SemaError, match="subscript"):
            analyze_body("float x = a[1.5f];")

    def test_unknown_call_rejected(self):
        with pytest.raises(SemaError, match="unknown function"):
            analyze_body("int x = rand();")

    def test_intrinsics_typed(self):
        sema = analyze_body("int t = omp_get_thread_num();")
        assert sema.region.stmts[0].init.type == INT32

    def test_intrinsic_args_rejected(self):
        with pytest.raises(SemaError, match="takes no arguments"):
            analyze_body("int t = omp_get_thread_num(3);")

    def test_local_pointer_rejected(self):
        with pytest.raises(SemaError, match="local pointer"):
            analyze_body("float* p = a;")

    def test_return_inside_region_rejected(self):
        with pytest.raises(SemaError, match="return inside"):
            analyze_body("return;")

    def test_multidim_index_types(self):
        sema = analyze_body(
            "float buf[4][8];\nfloat x = buf[1][2];")
        decl = sema.region.stmts[1]
        assert decl.init.type == FLOAT32

    def test_partial_index_is_pointerish(self):
        with pytest.raises(SemaError):
            analyze_body("float buf[4][8];\nfloat x = buf[1];")


class TestHostRestrictions:
    def test_for_outside_region_rejected(self):
        source = """
        void f(int n) {
          for (int i = 0; i < n; ++i) { }
          #pragma omp target parallel
          { int x = n; }
        }
        """
        with pytest.raises(SemaError, match="outside the target region"):
            analyze(source)

    def test_host_array_rejected(self):
        source = """
        void f(int n) {
          float buf[4];
          #pragma omp target parallel
          { int x = n; }
        }
        """
        with pytest.raises(SemaError, match="local arrays"):
            analyze(source)


class TestEvalConstInt:
    @pytest.mark.parametrize("body,expected", [
        ("float b[2*3];", 6),
        ("float b[(1+2)*4];", 12),
        ("float b[16/4];", 4),
        ("float b[1<<4];", 16),
    ])
    def test_const_dims(self, body, expected):
        sema = analyze_body(body)
        symbol = [s for s in sema.symbols if s.name == "b"][0]
        assert symbol.dims == [expected]
