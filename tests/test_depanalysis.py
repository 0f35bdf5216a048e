"""Unit tests for memory-access collection and dependence testing."""

from repro.apps.gemm import BLOCKED, DOUBLE_BUFFERED, gemm_defines
from repro.frontend import compile_to_kernel
from repro.hls.depanalysis import (
    collect_accesses, conflicts, may_share_storage,
)
from repro.ir import Opcode


def compile_body(body: str, params: str = "float* a, float* b, int n",
                 clauses: str = "map(tofrom:a[0:n], b[0:n])"):
    source = f"""
    void f({params}) {{
      #pragma omp target parallel {clauses} num_threads(4)
      {{
{body}
      }}
    }}
    """
    return compile_to_kernel(source)


def find_ops(kernel, opcode):
    return [op for op in kernel.walk() if op.opcode is opcode]


def ops_conflict(a, b, amap) -> bool:
    """May regions ``a`` and ``b`` (nested ops included) touch common
    memory with at least one write?"""

    def accesses(op):
        return [acc for inner in op.walk() for acc in amap.get(id(inner), ())]

    return conflicts(accesses(a), accesses(b))


class TestAccessCollection:
    def test_simple_load_store(self):
        kernel = compile_body("a[0] = b[1];")
        amap = collect_accesses(kernel)
        accesses = [a for group in amap.values() for a in group]
        assert len(accesses) == 2
        writes = [acc for acc in accesses if acc.is_write]
        assert len(writes) == 1
        assert writes[0].base_name == "a"
        assert writes[0].index.const == 0

    def test_vector_width_recorded(self):
        kernel = compile_body("float4 v = *((float4*) &a[0]);\n"
                              "a[8] = v[0];")
        amap = collect_accesses(kernel)
        widths = sorted(a.width for group in amap.values() for a in group)
        assert widths == [1, 4]

    def test_affine_through_loop(self):
        kernel = compile_body(
            "for (int i = 0; i < n; ++i) { a[i*2 + 1] = 0.0f; }")
        amap = collect_accesses(kernel)
        store = [a for g in amap.values() for a in g if a.is_write][0]
        assert store.index.const == 1
        assert store.index.terms[0][1] == 2  # coefficient of the iv

    def test_thread_id_symbol(self):
        kernel = compile_body("int t = omp_get_thread_num();\na[t] = 0.0f;")
        amap = collect_accesses(kernel)
        store = [a for g in amap.values() for a in g if a.is_write][0]
        syms = [s.kind for s, _ in store.index.terms]
        assert "tid" in syms

    def test_var_forwarding(self):
        kernel = compile_body("int off = 3;\na[off] = 0.0f;")
        amap = collect_accesses(kernel)
        store = [a for g in amap.values() for a in g if a.is_write][0]
        assert store.index.is_constant and store.index.const == 3


class TestConflicts:
    def test_disjoint_constants(self):
        kernel = compile_body("a[0] = 1.0f;\na[10] = 2.0f;")
        amap = collect_accesses(kernel)
        stores = find_ops(kernel, Opcode.STORE)
        assert not ops_conflict(stores[0], stores[1], amap)

    def test_same_address_conflicts(self):
        kernel = compile_body("a[5] = 1.0f;\na[5] = 2.0f;")
        amap = collect_accesses(kernel)
        stores = find_ops(kernel, Opcode.STORE)
        assert ops_conflict(stores[0], stores[1], amap)

    def test_different_buffers_never_conflict(self):
        kernel = compile_body("a[0] = 1.0f;\nb[0] = 2.0f;")
        amap = collect_accesses(kernel)
        stores = find_ops(kernel, Opcode.STORE)
        assert not ops_conflict(stores[0], stores[1], amap)

    def test_read_read_never_conflicts(self):
        kernel = compile_body("float x = a[0];\nfloat y = a[0];\n"
                              "b[0] = x + y;")
        amap = collect_accesses(kernel)
        loads = find_ops(kernel, Opcode.LOAD)
        assert not ops_conflict(loads[0], loads[1], amap)
        # but they do share storage (port-group test)
        assert may_share_storage(list(amap[id(loads[0])]),
                                 list(amap[id(loads[1])]))

    def test_vector_window_overlap(self):
        kernel = compile_body(
            "float buf[16];\n"
            "*((float4*) &buf[0]) = *((float4*) &a[0]);\n"
            "float x = buf[3];\n"
            "b[0] = x;")
        amap = collect_accesses(kernel)
        stores = [op for op in find_ops(kernel, Opcode.STORE)
                  if amap[id(op)][0].base_name == "buf"]
        loads = [op for op in find_ops(kernel, Opcode.LOAD)
                 if amap[id(op)][0].base_name == "buf"]
        assert ops_conflict(stores[0], loads[0], amap)

    def test_vector_window_disjoint(self):
        kernel = compile_body(
            "float buf[16];\n"
            "*((float4*) &buf[0]) = *((float4*) &a[0]);\n"
            "float x = buf[4];\n"
            "b[0] = x;")
        amap = collect_accesses(kernel)
        stores = [op for op in find_ops(kernel, Opcode.STORE)
                  if amap[id(op)][0].base_name == "buf"]
        loads = [op for op in find_ops(kernel, Opcode.LOAD)
                 if amap[id(op)][0].base_name == "buf"]
        assert not ops_conflict(stores[0], loads[0], amap)

    def test_unknown_indices_conservative(self):
        kernel = compile_body("a[n*n] = 1.0f;\nfloat x = a[n+1];\nb[0] = x;")
        amap = collect_accesses(kernel)
        store = find_ops(kernel, Opcode.STORE)[0]
        load = [op for op in find_ops(kernel, Opcode.LOAD)
                if amap[id(op)][0].base_name == "a"][0]
        assert ops_conflict(store, load, amap)


class TestDoubleBufferDisambiguation:
    """The paper-critical case: ping-pong halves are provably disjoint."""

    def _k_body_ifs(self, source, version):
        kernel = compile_to_kernel(source, defines=gemm_defines(version))
        amap = collect_accesses(kernel)
        i_loop = [op for op in kernel.body.ops if op.opcode is Opcode.FOR][0]
        j_loop = [op for op in i_loop.regions[0].ops
                  if op.opcode is Opcode.FOR][0]
        k_loop = [op for op in j_loop.regions[0].ops
                  if op.opcode is Opcode.FOR][1]
        return kernel, amap, k_loop

    def test_double_buffer_phases_independent(self):
        _, amap, k_loop = self._k_body_ifs(DOUBLE_BUFFERED, "double_buffered")
        ifs = [op for op in k_loop.regions[0].ops if op.opcode is Opcode.IF]
        assert len(ifs) == 2
        assert not ops_conflict(ifs[0], ifs[1], amap)

    def test_double_buffer_load_self_conflicts(self):
        _, amap, k_loop = self._k_body_ifs(DOUBLE_BUFFERED, "double_buffered")
        ifs = [op for op in k_loop.regions[0].ops if op.opcode is Opcode.IF]
        assert ops_conflict(ifs[0], ifs[0], amap)

    def test_blocked_phases_conflict(self):
        _, amap, k_loop = self._k_body_ifs(BLOCKED, "blocked")
        nests = [op for op in k_loop.regions[0].ops
                 if op.opcode is Opcode.FOR]
        assert ops_conflict(nests[0], nests[1], amap)
