"""Unit tests for the HLS IR transformation passes."""

from repro.frontend import compile_to_kernel
from repro.hls.transforms import (
    eliminate_dead_ops, run_pipeline, simplify, static_trip_count,
    unroll_loops,
)
from repro.ir import IRBuilder, Kernel, Opcode, Param, pointer, validate_kernel
from repro.ir.types import FLOAT32


def compile_body(body: str, defines=None):
    source = f"""
    void f(float* a, int n) {{
      #pragma omp target parallel map(tofrom:a[0:n]) num_threads(4)
      {{
{body}
      }}
    }}
    """
    return compile_to_kernel(source, defines=defines)


def loops_of(kernel):
    return [op for op in kernel.walk() if op.opcode is Opcode.FOR]


class TestStaticTripCount:
    def test_constant_bounds(self):
        kernel = compile_body("for (int i = 0; i < 8; ++i) { a[i] = 0.0f; }")
        assert static_trip_count(loops_of(kernel)[0]) == 8

    def test_step(self):
        kernel = compile_body("for (int i = 0; i < 8; i += 3) { a[i] = 0.0f; }")
        assert static_trip_count(loops_of(kernel)[0]) == 3

    def test_runtime_bound(self):
        kernel = compile_body("for (int i = 0; i < n; ++i) { a[i] = 0.0f; }")
        assert static_trip_count(loops_of(kernel)[0]) is None

    def test_empty(self):
        kernel = compile_body("for (int i = 4; i < 4; ++i) { a[i] = 0.0f; }")
        assert static_trip_count(loops_of(kernel)[0]) == 0


class TestUnroll:
    def test_full_unroll_dissolves_loop(self):
        kernel = compile_body(
            "#pragma unroll 4\nfor (int i = 0; i < 4; ++i) { a[i] = 0.0f; }")
        assert unroll_loops(kernel) == 1
        validate_kernel(kernel)
        assert not loops_of(kernel)
        stores = [op for op in kernel.walk() if op.opcode is Opcode.STORE]
        assert len(stores) == 4

    def test_full_unroll_constant_ivs(self):
        kernel = compile_body(
            "#pragma unroll 3\nfor (int i = 0; i < 3; ++i) { a[i] = 0.0f; }")
        unroll_loops(kernel)
        consts = [op.attrs["value"] for op in kernel.walk()
                  if op.opcode is Opcode.CONST]
        assert {0, 1, 2} <= set(consts)

    def test_partial_unroll_replicates(self):
        kernel = compile_body(
            "#pragma unroll 2\nfor (int i = 0; i < n; ++i) { a[i] = 0.0f; }")
        assert unroll_loops(kernel) == 1
        validate_kernel(kernel)
        loop = loops_of(kernel)[0]
        assert loop.attrs.get("unrolled_by") == 2
        stores = [op for op in loop.regions[0].walk()
                  if op.opcode is Opcode.STORE]
        assert len(stores) == 2

    def test_partial_unroll_widens_step(self):
        kernel = compile_body(
            "#pragma unroll 2\nfor (int i = 0; i < n; ++i) { a[i] = 0.0f; }")
        unroll_loops(kernel)
        validate_kernel(kernel)
        loop = loops_of(kernel)[0]
        step = loop.operands[2].producer
        assert step.attrs["value"] == 2

    def test_indivisible_static_trip_keeps_loop(self):
        kernel = compile_body(
            "#pragma unroll 3\nfor (int i = 0; i < 7; i += 2) { a[i] = 0.0f; }")
        unroll_loops(kernel)
        loop = loops_of(kernel)[0]
        assert loop.attrs.get("unroll", 1) == 1
        assert loop.attrs.get("unrolled_by") is None

    def test_accumulators_stay_shared(self):
        kernel = compile_body("""
        float s = 0.0f;
        #pragma unroll 2
        for (int i = 0; i < 4; ++i) { s += a[i]; }
        a[0] = s;
        """)
        unroll_loops(kernel)
        validate_kernel(kernel)
        decls = [op for op in kernel.walk() if op.opcode is Opcode.DECL_VAR]
        assert len(decls) == 1  # the accumulator was not duplicated


class TestSimplify:
    def test_const_folding(self):
        kernel = compile_body("a[2*3 + 1] = 0.0f;")
        simplify(kernel)
        store = [op for op in kernel.walk() if op.opcode is Opcode.STORE][0]
        idx = store.operands[1].producer
        assert idx.opcode is Opcode.CONST and idx.attrs["value"] == 7

    def test_read_var_forwarding(self):
        kernel = compile_body("int x = 5;\na[x] = 0.0f;")
        simplify(kernel)
        eliminate_dead_ops(kernel)
        reads = [op for op in kernel.walk() if op.opcode is Opcode.READ_VAR]
        assert not reads

    def test_forwarding_stops_at_regions(self):
        kernel = compile_body("""
        int x = 0;
        for (int i = 0; i < n; ++i) { x += 1; }
        a[x] = 0.0f;
        """)
        simplify(kernel)
        # the read of x after the loop must NOT be forwarded to 0
        stores = [op for op in kernel.walk() if op.opcode is Opcode.STORE]
        idx_producer = stores[0].operands[1].producer
        assert idx_producer.opcode is Opcode.READ_VAR

    def test_extract_of_insert_forwarding(self):
        kernel = compile_body("""
        float4 v = {0.0f};
        v[1] = 3.0f;
        a[0] = v[1];
        """)
        count = simplify(kernel)
        assert count > 0
        eliminate_dead_ops(kernel)
        extracts = [op for op in kernel.walk() if op.opcode is Opcode.EXTRACT]
        # the final read of lane 1 folds to the inserted value
        assert len(extracts) <= 1

    def test_extract_of_broadcast(self):
        kernel = compile_body("""
        float4 v = {2.5f};
        a[0] = v[3];
        """)
        simplify(kernel)
        eliminate_dead_ops(kernel)
        assert not [op for op in kernel.walk()
                    if op.opcode is Opcode.EXTRACT]

    def test_idempotent(self):
        kernel = compile_body("int x = 5;\na[x] = 0.0f;")
        simplify(kernel)
        assert simplify(kernel) == 0


class TestDCE:
    def test_removes_unused_arith(self):
        kernel = compile_body("int x = n * 2;\na[0] = 0.0f;")
        simplify(kernel)
        # kill the variable write too? no: writes have side effects, but the
        # mul feeding a forwarded read may die once nothing uses it
        before = kernel.count_ops()
        eliminate_dead_ops(kernel)
        assert kernel.count_ops() <= before

    def test_keeps_stores(self):
        kernel = compile_body("a[0] = 1.0f;")
        eliminate_dead_ops(kernel)
        assert [op for op in kernel.walk() if op.opcode is Opcode.STORE]

    def test_removes_unused_loads(self):
        kernel = Kernel("k", [Param("p", pointer(FLOAT32), "to", 4)])
        b = IRBuilder(kernel)
        b.load(kernel.param("p").value, 0)  # result never used
        removed = eliminate_dead_ops(kernel)
        assert removed >= 1  # the load (plus its now-dead index constant)
        assert not [op for op in kernel.walk() if op.opcode is Opcode.LOAD]

    def test_validates_after_pipeline(self):
        kernel = compile_body("""
        float s = 0.0f;
        #pragma unroll 4
        for (int i = 0; i < 4; ++i) { s += a[i]; }
        #pragma omp critical
        { a[0] = s; }
        """)
        stats = run_pipeline(kernel)
        validate_kernel(kernel)
        assert stats["unrolled"] == 1
