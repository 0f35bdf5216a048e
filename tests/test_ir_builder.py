"""Unit tests for the IR builder and core graph structures."""

import pytest

from repro.ir import (
    BOOL, FLOAT32, INT32, IRBuilder, Kernel, Opcode, Param,
    array, pointer, print_kernel, validate_kernel, vector,
)
from repro.ir.types import VectorType


def make_kernel(threads: int = 4) -> tuple[Kernel, IRBuilder]:
    kernel = Kernel("k", [Param("a", pointer(FLOAT32), "to", "N"),
                          Param("n", INT32)], num_threads=threads)
    return kernel, IRBuilder(kernel)


class TestConstants:
    def test_int_const(self):
        _, b = make_kernel()
        v = b.const(7)
        assert v.type == INT32
        assert v.producer.attrs["value"] == 7

    def test_float_const(self):
        _, b = make_kernel()
        v = b.const(2.5)
        assert v.type == FLOAT32

    def test_typed_const(self):
        _, b = make_kernel()
        v = b.const(1, FLOAT32)
        assert v.type == FLOAT32

    def test_intrinsics(self):
        _, b = make_kernel()
        assert b.thread_id().type == INT32
        assert b.num_threads().type == INT32


class TestArithmetic:
    def test_add_same_type(self):
        _, b = make_kernel()
        v = b.add(b.const(1), b.const(2))
        assert v.type == INT32
        assert v.producer.opcode is Opcode.ADD

    def test_implicit_int_to_float(self):
        _, b = make_kernel()
        v = b.mul(b.const(1), b.const(2.0))
        assert v.type == FLOAT32
        # a cast must have been inserted for the int operand
        assert v.producer.operands[0].producer.opcode is Opcode.CAST

    def test_comparison_produces_bool(self):
        _, b = make_kernel()
        v = b.lt(b.const(1), b.const(2))
        assert v.type == BOOL

    def test_vector_broadcast_on_scalar_mix(self):
        _, b = make_kernel()
        vec = b.broadcast(b.const(1.0), 4)
        out = b.add(vec, b.const(2.0))
        assert isinstance(out.type, VectorType)
        assert out.type.lanes == 4

    def test_vector_comparison_rejected(self):
        _, b = make_kernel()
        vec = b.broadcast(b.const(1.0), 4)
        with pytest.raises(TypeError):
            b.lt(vec, vec)

    def test_select(self):
        _, b = make_kernel()
        cond = b.lt(b.const(1), b.const(2))
        v = b.select(cond, b.const(1.0), b.const(2))
        assert v.type == FLOAT32


class TestVectors:
    def test_broadcast_extract(self):
        _, b = make_kernel()
        vec = b.broadcast(b.const(3.0), 8)
        lane = b.extract(vec, 2)
        assert lane.type == FLOAT32

    def test_insert_keeps_type(self):
        _, b = make_kernel()
        vec = b.broadcast(b.const(0.0), 4)
        out = b.insert(vec, 1, b.const(5.0))
        assert out.type == vec.type

    def test_extract_requires_vector(self):
        _, b = make_kernel()
        with pytest.raises(TypeError):
            b.extract(b.const(1.0), 0)

    def test_broadcast_requires_scalar(self):
        _, b = make_kernel()
        vec = b.broadcast(b.const(1.0), 4)
        with pytest.raises(TypeError):
            b.broadcast(vec, 4)


class TestVarsAndMemory:
    def test_decl_read_write(self):
        kernel, b = make_kernel()
        var = b.decl_var("acc", FLOAT32, init=0.0)
        value = b.read_var(var)
        b.write_var(var, b.add(value, 1.0))
        validate_kernel(kernel)

    def test_write_casts_to_var_type(self):
        kernel, b = make_kernel()
        var = b.decl_var("x", FLOAT32)
        b.write_var(var, b.const(1))  # int -> float cast inserted
        validate_kernel(kernel)

    def test_load_store(self):
        kernel, b = make_kernel()
        a = kernel.param("a").value
        v = b.load(a, 0)
        assert v.type == FLOAT32
        b.store(a, 1, v)
        validate_kernel(kernel)

    def test_vector_load(self):
        kernel, b = make_kernel()
        a = kernel.param("a").value
        v = b.load(a, 0, ty=vector(FLOAT32, 4))
        assert isinstance(v.type, VectorType)

    def test_load_requires_pointer(self):
        _, b = make_kernel()
        with pytest.raises(TypeError):
            b.load(b.const(1), 0)

    def test_alloc_local(self):
        kernel, b = make_kernel()
        ptr = b.alloc_local("buf", array(FLOAT32, 32))
        v = b.load(ptr, 3)
        b.store(ptr, 4, v)
        validate_kernel(kernel)
        assert not b.block.ops[0].is_vlo or True  # alloc is not a VLO


class TestStructured:
    def test_for_range(self):
        kernel, b = make_kernel()
        with b.for_range(0, 10, 1, name="i") as i:
            assert i.type == INT32
            b.add(i, 1)
        validate_kernel(kernel)
        loop = kernel.body.ops[-1]
        assert loop.opcode is Opcode.FOR
        assert loop.defined[0] is i

    def test_nested_loops(self):
        kernel, b = make_kernel()
        with b.for_range(0, 4, name="i") as i:
            with b.for_range(0, 4, name="j") as j:
                b.add(i, j)
        validate_kernel(kernel)
        assert kernel.count_ops(lambda op: op.opcode is Opcode.FOR) == 2

    def test_if_then(self):
        kernel, b = make_kernel()
        cond = b.lt(b.const(1), b.const(2))
        with b.if_then(cond):
            b.const(42)
        validate_kernel(kernel)

    def test_if_then_else(self):
        kernel, b = make_kernel()
        cond = b.lt(b.const(1), b.const(2))
        with b.if_then_else(cond) as (then_b, else_b):
            with b.at(then_b):
                b.const(1)
            with b.at(else_b):
                b.const(2)
        validate_kernel(kernel)
        if_op = kernel.body.ops[-1]
        assert len(if_op.regions) == 2

    def test_critical_allocates_distinct_locks(self):
        kernel, b = make_kernel()
        with b.critical():
            b.const(1)
        with b.critical():
            b.const(2)
        locks = [op.attrs["lock"] for op in kernel.body.ops
                 if op.opcode is Opcode.CRITICAL]
        assert locks == [0, 1]

    def test_barrier(self):
        kernel, b = make_kernel()
        b.barrier()
        validate_kernel(kernel)

    def test_local_load_is_not_vlo(self):
        kernel, b = make_kernel()
        ptr = b.alloc_local("buf", array(FLOAT32, 8))
        b.load(ptr, 0)
        load_op = kernel.body.ops[-1]
        assert load_op.opcode is Opcode.LOAD
        assert not load_op.is_vlo

    def test_external_load_is_vlo(self):
        kernel, b = make_kernel()
        a = kernel.param("a").value
        b.load(a, 0)
        assert kernel.body.ops[-1].is_vlo


class TestKernelHelpers:
    def test_param_lookup(self):
        kernel, _ = make_kernel()
        assert kernel.param("a").name == "a"
        with pytest.raises(KeyError):
            kernel.param("zzz")

    def test_count_and_walk(self):
        kernel, b = make_kernel()
        with b.for_range(0, 4) as i:
            b.add(i, 1)
        total = kernel.count_ops()
        assert total == len(list(kernel.walk()))
        assert kernel.count_ops(lambda op: op.opcode is Opcode.ADD) == 1

    def test_printer_output(self):
        kernel, b = make_kernel()
        with b.for_range(0, 4, name="i") as i:
            b.add(i, 1)
        text = print_kernel(kernel)
        assert "kernel @k" in text
        assert "for" in text
        assert "threads=4" in text
