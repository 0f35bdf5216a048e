"""Unit tests for the IR verifier's error detection."""

import pytest

from repro.ir import (
    FLOAT32, INT32, IRBuilder, IRValidationError, Kernel, Opcode, Operation,
    Param, Value, pointer, validate_kernel,
)
from repro.ir.graph import Block


def empty_kernel(threads: int = 2) -> Kernel:
    return Kernel("k", [Param("p", pointer(FLOAT32), "to", 4)],
                  num_threads=threads)


def test_valid_kernel_passes():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    with b.for_range(0, 4) as i:
        b.add(i, 1)
    validate_kernel(kernel)


def test_zero_threads_rejected():
    kernel = empty_kernel()
    kernel.num_threads = 0
    with pytest.raises(IRValidationError, match="num_threads"):
        validate_kernel(kernel)


def test_use_before_definition():
    kernel = empty_kernel()
    phantom = Value(INT32, name="phantom")
    kernel.body.append(Operation(Opcode.ADD, [phantom, phantom],
                                 Value(INT32)))
    with pytest.raises(IRValidationError, match="before definition"):
        validate_kernel(kernel)


def test_wrong_arity():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    v = b.const(1)
    kernel.body.append(Operation(Opcode.ADD, [v], Value(INT32)))
    with pytest.raises(IRValidationError, match="operands"):
        validate_kernel(kernel)


def test_sibling_block_values_do_not_leak():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    cond = b.lt(b.const(0), b.const(1))
    inner_value = None
    with b.if_then(cond):
        inner_value = b.const(5)
    # use the value defined inside the if from outside: invalid
    kernel.body.append(Operation(Opcode.ADD, [inner_value, inner_value],
                                 Value(INT32)))
    with pytest.raises(IRValidationError, match="before definition"):
        validate_kernel(kernel)


def test_var_handle_misuse():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    var = b.decl_var("x", INT32, init=0)
    kernel.body.append(Operation(Opcode.ADD, [var, var], Value(INT32)))
    with pytest.raises(IRValidationError, match="variable handle"):
        validate_kernel(kernel)


def test_read_var_of_non_handle():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    v = b.const(1)
    kernel.body.append(Operation(Opcode.READ_VAR, [v], Value(INT32)))
    with pytest.raises(IRValidationError, match="not a declared variable"):
        validate_kernel(kernel)


def test_load_base_must_be_pointer():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    v = b.const(1)
    idx = b.const(0)
    kernel.body.append(Operation(Opcode.LOAD, [v, idx], Value(FLOAT32)))
    with pytest.raises(IRValidationError, match="pointer"):
        validate_kernel(kernel)


def test_load_index_must_be_integer():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    p = kernel.param("p").value
    f = b.const(1.0)
    kernel.body.append(Operation(Opcode.LOAD, [p, f], Value(FLOAT32)))
    with pytest.raises(IRValidationError, match="integer"):
        validate_kernel(kernel)


def test_loop_bounds_must_be_integer():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    f = b.const(1.0)
    iv = Value(INT32, name="i")
    op = Operation(Opcode.FOR, [f, f, f], None, {"name": "i"},
                   regions=[Block()])
    op.defined.append(iv)
    kernel.body.append(op)
    with pytest.raises(IRValidationError, match="integer"):
        validate_kernel(kernel)


def test_loop_must_define_induction_variable():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    c = b.const(0)
    op = Operation(Opcode.FOR, [c, c, c], None, {}, regions=[Block()])
    kernel.body.append(op)
    with pytest.raises(IRValidationError, match="induction"):
        validate_kernel(kernel)


def test_if_condition_must_be_bool():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    c = b.const(1)
    op = Operation(Opcode.IF, [c], None, {}, regions=[Block()])
    kernel.body.append(op)
    with pytest.raises(IRValidationError, match="i1"):
        validate_kernel(kernel)


def test_const_requires_value_attr():
    kernel = empty_kernel()
    kernel.body.append(Operation(Opcode.CONST, [], Value(INT32), {}))
    with pytest.raises(IRValidationError, match="value"):
        validate_kernel(kernel)


def test_structured_op_requires_region():
    with pytest.raises(ValueError, match="region"):
        Operation(Opcode.FOR, [], None, {})


def test_negative_unroll_rejected():
    kernel = empty_kernel()
    b = IRBuilder(kernel)
    c = b.const(0)
    iv = Value(INT32)
    op = Operation(Opcode.FOR, [c, c, c], None, {"unroll": 0},
                   regions=[Block()])
    op.defined.append(iv)
    kernel.body.append(op)
    with pytest.raises(IRValidationError, match="unroll"):
        validate_kernel(kernel)
