"""Convenience builder for constructing IR.

Used by the mini-C frontend's lowering pass, and directly usable as an
embedded DSL for writing kernels from Python (the public API exposes it
for users who prefer not to write mini-C source).

The builder maintains an insertion-point stack so structured operations
(loops, conditionals, critical sections) can be built with ``with``
blocks::

    b = IRBuilder(kernel)
    with b.for_range(b.const(0), n, b.const(1), name="i") as i:
        x = b.load(a, i)
        b.store(c, i, b.mul(x, x))
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Union

import numpy as np

from .graph import Block, Kernel, Operation, Value
from .ops import Opcode
from .types import (
    BOOL,
    FLOAT32,
    INT32,
    ArrayType,
    MemorySpace,
    PointerType,
    ScalarType,
    Type,
    VectorType,
    common_arith_type,
)

__all__ = ["IRBuilder"]

Numeric = Union[int, float, "np.integer", "np.floating"]

_CMP_OPS = {Opcode.EQ, Opcode.NE, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE}


class IRBuilder:
    """Builds IR operations into a :class:`~repro.ir.graph.Kernel`."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._blocks: list[Block] = [kernel.body]
        self._lock_ids = 0

    # ------------------------------------------------------------------
    # insertion points
    # ------------------------------------------------------------------
    @property
    def block(self) -> Block:
        """The current insertion block."""

        return self._blocks[-1]

    def emit(self, op: Operation) -> Operation:
        self.block.append(op)
        return op

    # ------------------------------------------------------------------
    # constants and intrinsics
    # ------------------------------------------------------------------
    def const(self, value: Numeric, ty: Optional[Type] = None) -> Value:
        """Emit a compile-time constant.

        When ``ty`` is omitted it is inferred: Python ints become ``i32``
        and floats become ``f32`` (the paper's kernels are single
        precision, §V-D).
        """

        if ty is None:
            ty = FLOAT32 if isinstance(value, (float, np.floating)) else INT32
        result = Value(ty)
        self.emit(Operation(Opcode.CONST, [], result, {"value": value}))
        return result

    def thread_id(self) -> Value:
        """``omp_get_thread_num()`` — the hardware thread's index."""

        result = Value(INT32, name="tid")
        self.emit(Operation(Opcode.THREAD_ID, [], result))
        return result

    def num_threads(self) -> Value:
        """``omp_get_num_threads()`` — number of hardware threads."""

        result = Value(INT32, name="nthreads")
        self.emit(Operation(Opcode.NUM_THREADS, [], result))
        return result

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _as_value(self, v: Union[Value, Numeric], like: Optional[Type] = None) -> Value:
        if isinstance(v, Value):
            return v
        ty = None
        if like is not None and isinstance(like, ScalarType):
            ty = like
        return self.const(v, ty)

    def cast(self, v: Value, ty: Type) -> Value:
        """Convert ``v`` to ``ty`` (no-op if already that type)."""

        if v.type == ty:
            return v
        if isinstance(ty, VectorType) and not isinstance(v.type, VectorType):
            scalar = self.cast(v, ty.elem)
            return self.broadcast(scalar, ty.lanes)
        result = Value(ty)
        self.emit(Operation(Opcode.CAST, [v], result))
        return result

    def binary(self, opcode: Opcode, a: Union[Value, Numeric],
               b: Union[Value, Numeric]) -> Value:
        """Emit a binary operation with C-style implicit conversions."""

        av = self._as_value(a)
        bv = self._as_value(b, like=av.type)
        common = common_arith_type(av.type, bv.type)
        av, bv = self.cast(av, common), self.cast(bv, common)
        if opcode in _CMP_OPS:
            if isinstance(common, VectorType):
                raise TypeError("vector comparisons are not supported")
            rty: Type = BOOL
        else:
            rty = common
        result = Value(rty)
        self.emit(Operation(opcode, [av, bv], result))
        return result

    def add(self, a, b) -> Value:
        return self.binary(Opcode.ADD, a, b)

    def sub(self, a, b) -> Value:
        return self.binary(Opcode.SUB, a, b)

    def mul(self, a, b) -> Value:
        return self.binary(Opcode.MUL, a, b)

    def div(self, a, b) -> Value:
        return self.binary(Opcode.DIV, a, b)

    def rem(self, a, b) -> Value:
        return self.binary(Opcode.REM, a, b)

    def neg(self, a: Value) -> Value:
        result = Value(a.type)
        self.emit(Operation(Opcode.NEG, [a], result))
        return result

    def eq(self, a, b) -> Value:
        return self.binary(Opcode.EQ, a, b)

    def ne(self, a, b) -> Value:
        return self.binary(Opcode.NE, a, b)

    def lt(self, a, b) -> Value:
        return self.binary(Opcode.LT, a, b)

    def le(self, a, b) -> Value:
        return self.binary(Opcode.LE, a, b)

    def gt(self, a, b) -> Value:
        return self.binary(Opcode.GT, a, b)

    def ge(self, a, b) -> Value:
        return self.binary(Opcode.GE, a, b)

    def logical_and(self, a: Value, b: Value) -> Value:
        return self.binary(Opcode.AND, a, b)

    def logical_or(self, a: Value, b: Value) -> Value:
        return self.binary(Opcode.OR, a, b)

    def logical_not(self, a: Value) -> Value:
        result = Value(BOOL)
        self.emit(Operation(Opcode.NOT, [self.cast(a, BOOL)], result))
        return result

    def select(self, cond: Value, a: Value, b: Value) -> Value:
        """C ternary ``cond ? a : b``."""

        common = common_arith_type(a.type, b.type)
        a, b = self.cast(a, common), self.cast(b, common)
        result = Value(common)
        self.emit(Operation(Opcode.SELECT, [cond, a, b], result))
        return result

    # ------------------------------------------------------------------
    # vectors
    # ------------------------------------------------------------------
    def broadcast(self, scalar: Value, lanes: int) -> Value:
        if not isinstance(scalar.type, ScalarType):
            raise TypeError(f"broadcast needs a scalar, got {scalar.type}")
        result = Value(VectorType(scalar.type, lanes))
        self.emit(Operation(Opcode.BROADCAST, [scalar], result))
        return result

    def extract(self, vec: Value, lane: Union[Value, int]) -> Value:
        if not isinstance(vec.type, VectorType):
            raise TypeError(f"extract needs a vector, got {vec.type}")
        lane_v = self._as_value(lane)
        result = Value(vec.type.elem)
        self.emit(Operation(Opcode.EXTRACT, [vec, lane_v], result))
        return result

    def insert(self, vec: Value, lane: Union[Value, int], scalar: Value) -> Value:
        if not isinstance(vec.type, VectorType):
            raise TypeError(f"insert needs a vector, got {vec.type}")
        lane_v = self._as_value(lane)
        result = Value(vec.type)
        self.emit(Operation(Opcode.INSERT, [vec, lane_v,
                                            self.cast(scalar, vec.type.elem)], result))
        return result

    # ------------------------------------------------------------------
    # mutable registers
    # ------------------------------------------------------------------
    def decl_var(self, name: str, ty: Type,
                 init: Optional[Union[Value, Numeric]] = None) -> Value:
        """Declare a mutable register (a C local variable)."""

        handle = Value(ty, name=name)
        op = Operation(Opcode.DECL_VAR, [], None, {"var": handle, "name": name})
        op.defined.append(handle)
        self.emit(op)
        if init is not None:
            self.write_var(handle, self._as_value(init, like=ty))
        return handle

    def read_var(self, var: Value) -> Value:
        result = Value(var.type)
        self.emit(Operation(Opcode.READ_VAR, [var], result, {"var": var}))
        return result

    def write_var(self, var: Value, value: Union[Value, Numeric]) -> None:
        value_v = self.cast(self._as_value(value, like=var.type), var.type)
        self.emit(Operation(Opcode.WRITE_VAR, [var, value_v], None, {"var": var}))

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def alloc_local(self, name: str, ty: ArrayType) -> Value:
        """Declare a local array, mapped onto BRAM by the HLS."""

        ptr = Value(PointerType(ty.elem, MemorySpace.LOCAL), name=name)
        op = Operation(Opcode.ALLOC_LOCAL, [], ptr, {"name": name, "array": ty})
        self.emit(op)
        return ptr

    def load(self, base: Value, index: Union[Value, Numeric],
             ty: Optional[Type] = None) -> Value:
        """Load ``base[index]``.

        ``ty`` may widen the access to a vector type (the paper's
        ``*((VECTOR*) &A[...])`` idiom, Fig. 4): a vector load moves
        ``lanes`` consecutive elements in one request.
        """

        if not isinstance(base.type, PointerType):
            raise TypeError(f"load base must be a pointer, got {base.type}")
        elem = ty if ty is not None else base.type.elem
        idx = self.cast(self._as_value(index), INT32)
        result = Value(elem)
        self.emit(Operation(Opcode.LOAD, [base, idx], result))
        return result

    def store(self, base: Value, index: Union[Value, Numeric], value: Value) -> None:
        """Store ``value`` to ``base[index]`` (vector stores move whole vectors)."""

        if not isinstance(base.type, PointerType):
            raise TypeError(f"store base must be a pointer, got {base.type}")
        idx = self.cast(self._as_value(index), INT32)
        if not isinstance(value.type, VectorType):
            value = self.cast(value, base.type.elem)
        self.emit(Operation(Opcode.STORE, [base, idx, value], None))

    def preload(self, dst: Value, dst_off: Union[Value, Numeric],
                src: Value, src_off: Union[Value, Numeric],
                count: Union[Value, Numeric]) -> None:
        """Preloader DMA: copy ``count`` elements from external ``src``
        (starting at ``src_off``) into local ``dst`` at ``dst_off``."""

        if not (isinstance(dst.type, PointerType)
                and dst.type.space is MemorySpace.LOCAL):
            raise TypeError(f"preload destination must be local, got {dst.type}")
        if not (isinstance(src.type, PointerType)
                and src.type.space is MemorySpace.EXTERNAL):
            raise TypeError(f"preload source must be external, got {src.type}")
        operands = [dst, self.cast(self._as_value(dst_off), INT32),
                    src, self.cast(self._as_value(src_off), INT32),
                    self.cast(self._as_value(count), INT32)]
        self.emit(Operation(Opcode.PRELOAD, operands, None))

    # ------------------------------------------------------------------
    # structured control flow
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def for_range(self, lower: Union[Value, Numeric], upper: Union[Value, Numeric],
                  step: Union[Value, Numeric] = 1, name: str = "i",
                  unroll: int = 1, pipeline: bool = True) -> Iterator[Value]:
        """Build a counted loop; yields the induction variable.

        ``unroll`` mirrors ``#pragma unroll N`` (the body is replicated
        spatially by the HLS; trip count divides by N).  ``pipeline``
        marks the loop body for pipelined initiation.
        """

        lo = self.cast(self._as_value(lower), INT32)
        hi = self.cast(self._as_value(upper), INT32)
        st = self.cast(self._as_value(step), INT32)
        iv = Value(INT32, name=name)
        body = Block(label=f"for.{name}")
        op = Operation(Opcode.FOR, [lo, hi, st], None,
                       {"name": name, "unroll": unroll, "pipeline": pipeline},
                       regions=[body])
        op.defined.append(iv)
        self.emit(op)
        self._blocks.append(body)
        try:
            yield iv
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def if_then(self, cond: Value) -> Iterator[None]:
        then = Block(label="if.then")
        self.emit(Operation(Opcode.IF, [self.cast(cond, BOOL)], None, {},
                            regions=[then]))
        self._blocks.append(then)
        try:
            yield
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def if_then_else(self, cond: Value) -> Iterator[tuple[Block, Block]]:
        """Build an if/else; use :meth:`at` to fill each branch."""

        then, other = Block(label="if.then"), Block(label="if.else")
        self.emit(Operation(Opcode.IF, [self.cast(cond, BOOL)], None, {},
                            regions=[then, other]))
        yield then, other

    @contextlib.contextmanager
    def at(self, block: Block) -> Iterator[None]:
        """Temporarily redirect the insertion point into ``block``."""

        self._blocks.append(block)
        try:
            yield
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def critical(self, lock_id: Optional[int] = None) -> Iterator[None]:
        """OpenMP ``#pragma omp critical`` — serialized via the hardware semaphore."""

        if lock_id is None:
            lock_id = self._lock_ids
            self._lock_ids += 1
        body = Block(label=f"critical.{lock_id}")
        self.emit(Operation(Opcode.CRITICAL, [], None, {"lock": lock_id},
                            regions=[body]))
        self._blocks.append(body)
        try:
            yield
        finally:
            self._blocks.pop()

    def barrier(self) -> None:
        """OpenMP ``barrier`` across the kernel's hardware threads."""

        self.emit(Operation(Opcode.BARRIER, [], None))
