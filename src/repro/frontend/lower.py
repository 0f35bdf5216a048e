"""Lowering from the analyzed AST to the HLS IR.

Consumes a :class:`~repro.frontend.sema.SemaResult` and produces a
:class:`~repro.ir.Kernel`:

* captured outer symbols become kernel parameters.  Pointers keep their
  OpenMP ``map`` clause; scalars mapped ``from``/``tofrom`` become
  one-element external buffers (they live in FPGA DRAM and are written
  back to the host, like the π kernel's ``final_sum``); scalars mapped
  ``to`` or unmapped are passed by value;
* local declarations become registers (``decl_var``) or BRAM arrays
  (``alloc_local``, multi-dimensional arrays are flattened row-major);
* canonical loops become ``for`` regions carrying their unroll factor;
* the ``*((VECTOR*)&A[i])`` idiom becomes a single wide memory access;
* ``#pragma omp critical`` blocks become ``critical`` regions guarded by
  the hardware semaphore's lock ids (unnamed criticals share lock 0,
  matching OpenMP semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .. import telemetry
from ..ir.builder import IRBuilder
from ..ir.graph import Kernel, Param, Value
from ..ir.types import (
    ArrayType, BOOL, INT32, MemorySpace, PointerType, Type, VectorType,
)
from ..ir.validate import validate_kernel
from .ast_nodes import (
    Assign, Binary, Call, Cast, CompoundStmt, DeclStmt, Expr, ExprStmt,
    FloatLiteral, ForStmt, Identifier, IfStmt, Index, IntLiteral,
    ReturnStmt, Stmt, Ternary, Unary,
)
from .errors import ParseError, SemaError, SourceLocation
from .pragmas import OmpBarrier, OmpCritical, eval_int_expr
from .sema import SemaResult, Symbol, SymbolKind

__all__ = ["lower_to_kernel"]

_DEFAULT_NUM_THREADS = 8


# ----------------------------------------------------------------------
# symbol bindings during lowering
# ----------------------------------------------------------------------
@dataclass
class _ByValue:
    value: Value


@dataclass
class _ExternalCell:
    """A scalar that lives in external memory (map(from/tofrom: scalar))."""

    pointer: Value


@dataclass
class _Register:
    handle: Value


@dataclass
class _LocalArray:
    pointer: Value
    dims: list[int]


@dataclass
class _ExternalArray:
    pointer: Value


_Binding = Union[_ByValue, _ExternalCell, _Register, _LocalArray, _ExternalArray]


def lower_to_kernel(sema: SemaResult,
                    const_env: Optional[Mapping[str, int]] = None) -> Kernel:
    """Lower the analyzed target region to a validated kernel.

    ``const_env`` supplies compile-time values for identifiers used in
    synthesis-time clauses — most importantly ``num_threads(expr)``; the
    hardware thread count must be known when the accelerator is built.
    """

    with telemetry.span("frontend.lower", category="frontend"):
        kernel = _Lowerer(sema, const_env or {}).run()
    telemetry.add("frontend.ops_lowered", sum(1 for _ in kernel.walk()))
    return kernel


class _Lowerer:
    def __init__(self, sema: SemaResult, const_env: Mapping[str, int]):
        self.sema = sema
        self.const_env = const_env
        self.kernel = Kernel(sema.function.name)
        self.builder = IRBuilder(self.kernel)
        self.bindings: dict[int, _Binding] = {}  # Symbol identity -> binding
        self.locks: dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self) -> Kernel:
        pragma = self.sema.region_pragma
        if pragma.num_threads is None:
            self.kernel.num_threads = _DEFAULT_NUM_THREADS
        else:
            try:
                self.kernel.num_threads = eval_int_expr(pragma.num_threads,
                                                        self.const_env)
            except ParseError as exc:
                raise SemaError(
                    f"num_threads({pragma.num_threads}) is not resolvable at "
                    "compile time; pass its value via const_env (the hardware "
                    f"thread count is a synthesis-time property): {exc}",
                    self.sema.function.location) from exc
        self.kernel.attrs["source_function"] = self.sema.function.name
        for symbol in self.sema.captures:
            self._bind_capture(symbol, pragma)
        for stmt in self.sema.region.stmts:
            self.lower_stmt(stmt)
        validate_kernel(self.kernel)
        return self.kernel

    def _bind_capture(self, symbol: Symbol, pragma) -> None:
        clause = pragma.clause_for(symbol.name)
        if isinstance(symbol.type, PointerType):
            if clause is None:
                raise SemaError(f"pointer {symbol.name!r} used in the target region "
                                "needs a map clause", symbol.location)
            if clause.length is None:
                raise SemaError(f"map clause for pointer {symbol.name!r} needs an "
                                "array section [lower:length]", symbol.location)
            param = Param(symbol.name, symbol.type, clause.kind, clause.length)
            self.kernel.params.append(param)
            self.bindings[id(symbol)] = _ExternalArray(param.value)
            return
        if clause is not None and clause.kind in ("from", "tofrom"):
            # Scalar written by the accelerator: lives in a one-element
            # external buffer so the host can read it back.
            ptr_ty = PointerType(symbol.type, MemorySpace.EXTERNAL)
            param = Param(symbol.name, ptr_ty, clause.kind, 1,
                          attrs={"scalar_cell": True})
            self.kernel.params.append(param)
            self.bindings[id(symbol)] = _ExternalCell(param.value)
            return
        kind = clause.kind if clause is not None else "to"
        param = Param(symbol.name, symbol.type, kind, None)
        self.kernel.params.append(param)
        self.bindings[id(symbol)] = _ByValue(param.value)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def lower_stmt(self, stmt: Stmt) -> None:
        b = self.builder
        for pragma in stmt.pragmas:
            if isinstance(pragma, OmpBarrier):
                b.barrier()
        critical = next((p for p in stmt.pragmas if isinstance(p, OmpCritical)), None)
        if critical is not None:
            lock_id = self.locks.setdefault(critical.name, len(self.locks))
            with b.critical(lock_id):
                self._lower_stmt_inner(stmt)
            return
        self._lower_stmt_inner(stmt)

    def _lower_stmt_inner(self, stmt: Stmt) -> None:
        b = self.builder
        if isinstance(stmt, CompoundStmt):
            for inner in stmt.stmts:
                self.lower_stmt(inner)
        elif isinstance(stmt, DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ExprStmt):
            self._lower_expr_stmt(stmt.expr)
        elif isinstance(stmt, ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, IfStmt):
            cond = self.lower_expr(stmt.cond)
            if stmt.other is None:
                with b.if_then(cond):
                    self.lower_stmt(stmt.then)
            else:
                with b.if_then_else(cond) as (then_block, else_block):
                    with b.at(then_block):
                        self.lower_stmt(stmt.then)
                    with b.at(else_block):
                        self.lower_stmt(stmt.other)
        elif isinstance(stmt, ReturnStmt):
            raise SemaError("return inside a target region", stmt.location)
        else:
            raise SemaError(f"cannot lower {type(stmt).__name__}", stmt.location)

    def _lower_decl(self, stmt: DeclStmt) -> None:
        symbol = getattr(stmt, "symbol", None)
        if symbol is None:  # array declarations don't set .symbol in sema
            symbol = self._find_symbol(stmt.name, stmt.location)
        b = self.builder
        if symbol.kind is SymbolKind.ARRAY:
            assert symbol.dims is not None
            assert isinstance(symbol.type, PointerType)
            total = 1
            for dim in symbol.dims:
                total *= dim
            ptr = b.alloc_local(stmt.name, ArrayType(symbol.type.elem, total))
            self.bindings[id(symbol)] = _LocalArray(ptr, list(symbol.dims))
            return
        handle = b.decl_var(stmt.name, symbol.type)
        self.bindings[id(symbol)] = _Register(handle)
        if stmt.init is not None:
            value = self.lower_expr(stmt.init)
            value = self._convert(value, symbol.type)
            b.write_var(handle, value)

    def _find_symbol(self, name: str, location: SourceLocation) -> Symbol:
        for symbol in self.sema.symbols:
            if symbol.name == name:
                return symbol
        raise SemaError(f"internal: lost symbol {name!r}", location)

    def _lower_for(self, stmt: ForStmt) -> None:
        info = stmt.loop_info  # type: ignore[attr-defined]
        b = self.builder
        lower = self.lower_expr(info.lower)
        upper = self.lower_expr(info.upper)
        if info.inclusive:
            upper = b.add(upper, 1)
        step = self.lower_expr(info.step)
        with b.for_range(lower, upper, step, name=info.var.name,
                         unroll=info.unroll) as iv:
            self.bindings[id(info.var)] = _ByValue(iv)
            self.lower_stmt(stmt.body)

    def _lower_expr_stmt(self, expr: Expr) -> None:
        if isinstance(expr, Call) and expr.name == "__preload":
            self._lower_preload(expr)
            return
        if isinstance(expr, Assign):
            self._lower_assign(expr)
        elif isinstance(expr, Unary) and expr.op in ("pre++", "post++",
                                                     "pre--", "post--"):
            delta = 1 if "++" in expr.op else -1
            synthetic = Assign(expr.location, "+", expr.operand,
                               IntLiteral(expr.location, delta))
            synthetic.type = expr.type
            synthetic.value.type = INT32
            self._lower_assign(synthetic)
        else:
            self.lower_expr(expr)  # value discarded (e.g. a bare call)

    def _lower_preload(self, expr) -> None:
        """``__preload(dst_array, dst_off, src_ptr, src_off, count)``."""

        b = self.builder
        dst_expr, dst_off, src_expr, src_off, count = expr.args
        dst_binding = self.bindings.get(id(dst_expr.symbol))
        if not isinstance(dst_binding, _LocalArray):
            raise SemaError("__preload destination must be a declared local "
                            "array", expr.location)
        src_value = self._lower_identifier(src_expr)
        b.preload(dst_binding.pointer, self.lower_expr(dst_off),
                  src_value, self.lower_expr(src_off),
                  self.lower_expr(count))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def lower_expr(self, expr: Expr) -> Value:
        b = self.builder
        if isinstance(expr, IntLiteral):
            return b.const(expr.value, INT32)
        if isinstance(expr, FloatLiteral):
            return b.const(expr.value)
        if isinstance(expr, Identifier):
            return self._lower_identifier(expr)
        if isinstance(expr, Binary):
            return self._lower_binary(expr)
        if isinstance(expr, Unary):
            return self._lower_unary(expr)
        if isinstance(expr, Ternary):
            cond = self.lower_expr(expr.cond)
            then = self.lower_expr(expr.then)
            other = self.lower_expr(expr.other)
            return b.select(cond, then, other)
        if isinstance(expr, Call):
            if expr.name == "omp_get_thread_num":
                return b.thread_id()
            if expr.name == "omp_get_num_threads":
                return b.num_threads()
            raise SemaError(f"cannot lower call to {expr.name!r}", expr.location)
        if isinstance(expr, Index):
            return self._lower_index_load(expr)
        if isinstance(expr, Cast):
            operand = self.lower_expr(expr.operand)
            assert expr.type is not None
            return self._convert(operand, expr.type)
        if isinstance(expr, Assign):
            raise SemaError("assignment used as a value is not supported",
                            expr.location)
        raise SemaError(f"cannot lower {type(expr).__name__}", expr.location)

    def _lower_identifier(self, expr: Identifier) -> Value:
        symbol = expr.symbol
        assert isinstance(symbol, Symbol)
        binding = self.bindings.get(id(symbol))
        if binding is None:
            raise SemaError(f"{expr.name!r} used before it has a value",
                            expr.location)
        b = self.builder
        if isinstance(binding, _ByValue):
            return binding.value
        if isinstance(binding, _Register):
            return b.read_var(binding.handle)
        if isinstance(binding, _ExternalCell):
            return b.load(binding.pointer, 0)
        if isinstance(binding, (_LocalArray, _ExternalArray)):
            return binding.pointer
        raise AssertionError(f"unhandled binding {binding}")

    def _lower_binary(self, expr: Binary) -> Value:
        b = self.builder
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        table = {
            "+": b.add, "-": b.sub, "*": b.mul, "/": b.div, "%": b.rem,
            "==": b.eq, "!=": b.ne, "<": b.lt, "<=": b.le, ">": b.gt, ">=": b.ge,
        }
        if expr.op in table:
            return table[expr.op](left, right)
        if expr.op in ("&&", "||"):
            lhs = self._truthy(left)
            rhs = self._truthy(right)
            return b.logical_and(lhs, rhs) if expr.op == "&&" else \
                b.logical_or(lhs, rhs)
        if expr.op in ("&", "|", "^", "<<", ">>"):
            from ..ir.ops import Opcode
            opcode = {"&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
                      "<<": Opcode.SHL, ">>": Opcode.SHR}[expr.op]
            return b.binary(opcode, left, right)
        raise SemaError(f"cannot lower binary operator {expr.op!r}", expr.location)

    def _truthy(self, value: Value) -> Value:
        b = self.builder
        if value.type == BOOL:
            return value
        return b.ne(value, 0)

    def _lower_unary(self, expr: Unary) -> Value:
        b = self.builder
        if expr.op == "-":
            return b.neg(self.lower_expr(expr.operand))
        if expr.op == "!":
            return b.logical_not(self._truthy(self.lower_expr(expr.operand)))
        if expr.op == "*":
            base, index, access_ty = self._lower_address(expr.operand)
            return b.load(base, index, ty=access_ty)
        raise SemaError(f"cannot lower unary operator {expr.op!r} as a value",
                        expr.location)

    # ------------------------------------------------------------------
    # addresses, loads and stores
    # ------------------------------------------------------------------
    def _lower_address(self, expr: Expr) -> tuple[Value, Value, Type]:
        """Lower a pointer-valued expression into (base, element index, type).

        Handles the vector idiom ``(VECTOR*) &A[i]`` (possibly minus the
        cast) as well as plain pointer identifiers (index 0).
        """

        b = self.builder
        if isinstance(expr, Cast):
            base, index, _ = self._lower_address(expr.operand)
            assert isinstance(expr.type, PointerType)
            return base, index, expr.type.elem
        if isinstance(expr, Unary) and expr.op == "&":
            index_expr = expr.operand
            assert isinstance(index_expr, Index)
            base, index, elem = self._lower_element(index_expr)
            return base, index, elem
        if isinstance(expr, Identifier):
            value = self._lower_identifier(expr)
            assert isinstance(value.type, PointerType)
            return value, b.const(0, INT32), value.type.elem
        raise SemaError("unsupported pointer expression", expr.location)

    def _lower_element(self, expr: Index) -> tuple[Value, Value, Type]:
        """Flatten an index chain over a pointer/array into (base, index, elem)."""

        b = self.builder
        chain: list[Expr] = []
        base_expr: Expr = expr
        while isinstance(base_expr, Index):
            chain.append(base_expr.index)
            base_expr = base_expr.base
        chain.reverse()
        if not isinstance(base_expr, Identifier):
            raise SemaError("array accesses must index a named array/pointer",
                            expr.location)
        symbol = base_expr.symbol
        assert isinstance(symbol, Symbol)
        binding = self.bindings.get(id(symbol))
        if isinstance(binding, _ExternalArray):
            if len(chain) != 1:
                raise SemaError("external pointers are one-dimensional; flatten "
                                "the index", expr.location)
            index = self.lower_expr(chain[0])
            assert isinstance(symbol.type, PointerType)
            return binding.pointer, index, symbol.type.elem
        if isinstance(binding, _LocalArray):
            dims = binding.dims
            if len(chain) != len(dims):
                raise SemaError(f"array {symbol.name!r} expects {len(dims)} "
                                f"subscripts, got {len(chain)}", expr.location)
            index = self.lower_expr(chain[0])
            for dim, sub in zip(dims[1:], chain[1:]):
                index = b.add(b.mul(index, dim), self.lower_expr(sub))
            assert isinstance(symbol.type, PointerType)
            return binding.pointer, index, symbol.type.elem
        raise SemaError(f"{symbol.name!r} is not an addressable array",
                        expr.location)

    def _lower_index_load(self, expr: Index) -> Value:
        """Lower an ``Index`` appearing as an rvalue."""

        b = self.builder
        base = expr.base
        # Lane extraction from a vector value: base's type is a vector.
        if base.type is not None and isinstance(base.type, VectorType):
            vec = self.lower_expr(base)
            lane = self.lower_expr(expr.index)
            return b.extract(vec, lane)
        base_v, index, elem = self._lower_element(expr)
        if isinstance(expr.type, PointerType):
            raise SemaError("partial array indexing only supported in subscripts",
                            expr.location)
        value = b.load(base_v, index, ty=elem)
        # An index chain over a vector-element array that ends *past* the
        # array dims is a lane access (e.g. C_local[x][y] with dims [BS]):
        # handled by _lower_element raising on subscript-count mismatch,
        # then the VectorType branch above on the outer Index.
        return value

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def _lower_assign(self, expr: Assign) -> None:
        b = self.builder
        target = expr.target

        def combined(old: Value) -> Value:
            rhs = self.lower_expr(expr.value)
            if expr.op == "":
                return rhs
            table = {"+": b.add, "-": b.sub, "*": b.mul, "/": b.div, "%": b.rem}
            return table[expr.op](old, rhs)

        if isinstance(target, Identifier):
            symbol = target.symbol
            assert isinstance(symbol, Symbol)
            binding = self.bindings.get(id(symbol))
            if isinstance(binding, _Register):
                old = b.read_var(binding.handle) if expr.op else None
                value = combined(old) if expr.op else self.lower_expr(expr.value)
                b.write_var(binding.handle, self._convert(value, symbol.type))
                return
            if isinstance(binding, _ExternalCell):
                old = b.load(binding.pointer, 0) if expr.op else None
                value = combined(old) if expr.op else self.lower_expr(expr.value)
                b.store(binding.pointer, 0, self._convert(value, symbol.type))
                return
            raise SemaError(f"cannot assign to {target.name!r}", expr.location)

        if isinstance(target, Index):
            base = target.base
            if base.type is not None and isinstance(base.type, VectorType):
                self._lower_lane_store(target, combined)
                return
            base_v, index, elem = self._lower_element(target)
            if expr.op:
                old = b.load(base_v, index, ty=elem)
                value = combined(old)
            else:
                value = self.lower_expr(expr.value)
            value = self._convert(value, elem)
            b.store(base_v, index, value)
            return

        if isinstance(target, Unary) and target.op == "*":
            base_v, index, access_ty = self._lower_address(target.operand)
            if expr.op:
                old = b.load(base_v, index, ty=access_ty)
                value = combined(old)
            else:
                value = self.lower_expr(expr.value)
            value = self._convert(value, access_ty)
            b.store(base_v, index, value)
            return

        raise SemaError("unsupported assignment target", expr.location)

    def _lower_lane_store(self, target: Index, combined) -> None:
        """Store to one lane of a vector lvalue (register or array element)."""

        b = self.builder
        base = target.base
        lane = self.lower_expr(target.index)
        if isinstance(base, Identifier):
            symbol = base.symbol
            assert isinstance(symbol, Symbol)
            binding = self.bindings.get(id(symbol))
            if isinstance(binding, _Register):
                vec = b.read_var(binding.handle)
                old = b.extract(vec, lane)
                new_vec = b.insert(vec, lane, combined(old))
                b.write_var(binding.handle, new_vec)
                return
        if isinstance(base, Index):
            base_v, index, elem = self._lower_element(base)
            vec = b.load(base_v, index, ty=elem)
            old = b.extract(vec, lane)
            new_vec = b.insert(vec, lane, combined(old))
            b.store(base_v, index, new_vec)
            return
        raise SemaError("unsupported vector-lane assignment target", target.location)

    # ------------------------------------------------------------------
    def _convert(self, value: Value, ty: Type) -> Value:
        if value.type == ty:
            return value
        if isinstance(ty, VectorType) and isinstance(value.type, VectorType):
            if value.type.lanes != ty.lanes:
                raise SemaError(f"cannot convert {value.type} to {ty}")
            return value if value.type.elem == ty.elem else self.builder.cast(value, ty)
        return self.builder.cast(value, ty)
