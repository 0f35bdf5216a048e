"""IR verifier.

Checks structural well-formedness before a kernel enters the HLS flow:

* every operand is defined before use (by an earlier operation in the
  same or an enclosing block, by a structured op's ``defined`` list, or
  by a kernel parameter);
* operand counts and types match the opcode's signature;
* structured opcodes carry the required regions;
* variable handles are only consumed by ``read_var``/``write_var``;
* memory operations have pointer bases and integer indices.

Raises :class:`IRValidationError` with a path to the offending op.
"""

from __future__ import annotations

from .graph import Block, Kernel, Operation
from .ops import Opcode
from .types import BOOL, PointerType, ScalarType, VectorType

__all__ = ["IRValidationError", "validate_kernel"]


class IRValidationError(Exception):
    """A kernel failed IR verification."""


_ARITY = {
    Opcode.CONST: 0,
    Opcode.THREAD_ID: 0,
    Opcode.NUM_THREADS: 0,
    Opcode.ADD: 2, Opcode.SUB: 2, Opcode.MUL: 2, Opcode.DIV: 2, Opcode.REM: 2,
    Opcode.AND: 2, Opcode.OR: 2, Opcode.XOR: 2, Opcode.SHL: 2, Opcode.SHR: 2,
    Opcode.NEG: 1, Opcode.NOT: 1,
    Opcode.EQ: 2, Opcode.NE: 2, Opcode.LT: 2, Opcode.LE: 2,
    Opcode.GT: 2, Opcode.GE: 2,
    Opcode.CAST: 1, Opcode.SELECT: 3,
    Opcode.BROADCAST: 1, Opcode.EXTRACT: 2, Opcode.INSERT: 3,
    Opcode.DECL_VAR: 0, Opcode.READ_VAR: 1, Opcode.WRITE_VAR: 2,
    Opcode.ALLOC_LOCAL: 0, Opcode.LOAD: 2, Opcode.STORE: 3,
    Opcode.PRELOAD: 5,
    Opcode.CRITICAL: 0, Opcode.BARRIER: 0,
    Opcode.FOR: 3, Opcode.IF: 1,
}

_REGION_COUNTS = {Opcode.FOR: (1, 1), Opcode.IF: (1, 2), Opcode.CRITICAL: (1, 1)}


def validate_kernel(kernel: Kernel) -> None:
    """Verify ``kernel``; raise :class:`IRValidationError` on failure."""

    if kernel.num_threads < 1:
        raise IRValidationError(f"{kernel.name}: num_threads must be >= 1")
    defined = {p.value.id for p in kernel.params}
    var_handles: set[int] = set()
    _validate_block(kernel.body, defined, var_handles, path=kernel.name)


def _err(path: str, op: Operation, message: str) -> IRValidationError:
    return IRValidationError(f"{path}: {op.opcode}: {message}")


def _validate_block(block: Block, defined: set[int], var_handles: set[int],
                    path: str) -> None:
    # Copy so sibling blocks cannot see each other's definitions.
    local_defined = set(defined)
    local_vars = set(var_handles)
    for i, op in enumerate(block.ops):
        where = f"{path}/{block.label or 'block'}[{i}]"
        _validate_op(op, local_defined, local_vars, where)
        if op.result is not None:
            local_defined.add(op.result.id)
        for value in op.defined:
            local_defined.add(value.id)
            if op.opcode is Opcode.DECL_VAR:
                local_vars.add(value.id)
        for region in op.regions:
            _validate_block(region, local_defined, local_vars, where)


def _validate_op(op: Operation, defined: set[int], var_handles: set[int],
                 where: str) -> None:
    arity = _ARITY.get(op.opcode)
    if arity is None:
        raise _err(where, op, "unknown opcode")
    if len(op.operands) != arity:
        raise _err(where, op, f"expected {arity} operands, got {len(op.operands)}")

    lo, hi = _REGION_COUNTS.get(op.opcode, (0, 0))
    if not (lo <= len(op.regions) <= hi):
        raise _err(where, op, f"expected {lo}..{hi} regions, got {len(op.regions)}")

    for operand in op.operands:
        if operand.id not in defined:
            raise _err(where, op, f"operand {operand!r} used before definition")

    if op.opcode in (Opcode.READ_VAR, Opcode.WRITE_VAR):
        handle = op.operands[0]
        if handle.id not in var_handles:
            raise _err(where, op, f"{handle!r} is not a declared variable handle")
    else:
        for operand in op.operands:
            if operand.id in var_handles:
                raise _err(where, op,
                           f"variable handle {operand!r} used outside read/write_var")

    if op.opcode in (Opcode.LOAD, Opcode.STORE):
        base, idx = op.operands[0], op.operands[1]
        if not isinstance(base.type, PointerType):
            raise _err(where, op, f"base must be a pointer, got {base.type}")
        if not (isinstance(idx.type, ScalarType) and idx.type.is_integer):
            raise _err(where, op, f"index must be an integer, got {idx.type}")

    if op.opcode is Opcode.PRELOAD:
        dst, src = op.operands[0], op.operands[2]
        for base, what in ((dst, "destination"), (src, "source")):
            if not isinstance(base.type, PointerType):
                raise _err(where, op, f"{what} must be a pointer, got "
                           f"{base.type}")
        if dst.type.space.value != "local":
            raise _err(where, op, "preload destination must be local memory")
        if src.type.space.value != "external":
            raise _err(where, op, "preload source must be external memory")
        for operand in (op.operands[1], op.operands[3], op.operands[4]):
            if not (isinstance(operand.type, ScalarType)
                    and operand.type.is_integer):
                raise _err(where, op, "preload offsets/count must be integers")

    if op.opcode is Opcode.FOR:
        for bound in op.operands:
            if not (isinstance(bound.type, ScalarType) and bound.type.is_integer):
                raise _err(where, op, f"loop bound must be integer, got {bound.type}")
        if not op.defined:
            raise _err(where, op, "loop must define its induction variable")
        if op.attrs.get("unroll", 1) < 1:
            raise _err(where, op, "unroll factor must be >= 1")

    if op.opcode is Opcode.IF and op.operands[0].type != BOOL:
        raise _err(where, op, f"condition must be i1, got {op.operands[0].type}")

    if op.opcode is Opcode.CONST and "value" not in op.attrs:
        raise _err(where, op, "missing 'value' attribute")

    if op.opcode in (Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT,
                     Opcode.GE) and op.result is not None and op.result.type != BOOL:
        raise _err(where, op, "comparison must produce i1")

    if op.opcode is Opcode.BROADCAST and op.result is not None:
        if not isinstance(op.result.type, VectorType):
            raise _err(where, op, "broadcast must produce a vector")
