"""Semantic analysis for the mini-C dialect.

The analyzer walks a :class:`~repro.frontend.ast_nodes.FunctionDef` and

* builds scoped symbol tables (parameters, host locals, region locals,
  local arrays, loop induction variables);
* resolves every identifier to its :class:`Symbol` and annotates every
  expression with its IR type;
* locates the OpenMP ``target parallel`` region and records which outer
  symbols it *captures* (these become kernel parameters, wired up
  according to the ``map`` clauses);
* canonicalizes ``for`` loops into ``(var, lower, upper, step)`` form —
  the only loop shape the HLS scheduler accepts (§III-B: counted loops,
  possibly with statically-unknown trip counts);
* rejects everything outside the supported dialect with a
  :class:`~repro.frontend.errors.SemaError`.

The result is a :class:`SemaResult` consumed by the lowering pass.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Optional

from .. import telemetry
from ..ir.types import (
    BOOL, FLOAT32, FLOAT64, INT32, INT64, MemorySpace, PointerType,
    ScalarType, Type, VectorType, common_arith_type,
)
from .ast_nodes import (
    Assign, Binary, Call, Cast, CompoundStmt, DeclStmt, Expr, ExprStmt,
    FloatLiteral, ForStmt, FunctionDef, Identifier, IfStmt, Index,
    IntLiteral, ReturnStmt, Stmt, Ternary, Unary,
)
from .errors import SemaError, SourceLocation
from .pragmas import OmpTargetParallel, UnrollPragma

__all__ = ["SymbolKind", "Symbol", "LoopInfo", "SemaResult", "analyze_function",
           "resolve_type_name", "eval_const_int"]

_VECTOR_NAME = re.compile(r"^(float|int|double)(\d+)$")

_SCALAR_TYPES: dict[str, ScalarType] = {
    "int": INT32, "long": INT64, "unsigned": INT32, "char": INT32,
    "float": FLOAT32, "double": FLOAT64,
}

_BUILTIN_FUNCTIONS = {
    "omp_get_thread_num": INT32,
    "omp_get_num_threads": INT32,
}

#: void builtins with their parameter checker
_VOID_BUILTINS = {"__preload"}


def resolve_type_name(name: str, location: Optional[SourceLocation] = None) -> Type:
    """Resolve a dialect type name (``float``, ``float4``, ...) to an IR type."""

    if name in _SCALAR_TYPES:
        return _SCALAR_TYPES[name]
    match = _VECTOR_NAME.match(name)
    if match:
        elem = _SCALAR_TYPES[match.group(1)]
        lanes = int(match.group(2))
        if lanes < 2 or lanes > 64:
            raise SemaError(f"unsupported vector width {lanes}", location)
        return VectorType(elem, lanes)
    raise SemaError(f"unknown type name {name!r}", location)


class SymbolKind(enum.Enum):
    PARAM = "param"           # function parameter
    HOST_LOCAL = "host"       # declared outside the target region
    LOCAL = "local"           # scalar/vector register inside the region
    ARRAY = "array"           # fixed-size local array (BRAM)
    INDUCTION = "induction"   # loop induction variable


@dataclass(eq=False)
class Symbol:
    name: str
    kind: SymbolKind
    type: Type
    location: SourceLocation
    dims: Optional[list[int]] = None  # for ARRAY symbols
    inside_region: bool = False

    @property
    def is_pointer(self) -> bool:
        return isinstance(self.type, PointerType)


@dataclass
class LoopInfo:
    """Canonical form of a counted loop: ``for (var = lower; var <|<= upper; var += step)``."""

    var: Symbol
    lower: Expr
    upper: Expr
    step: Expr
    inclusive: bool
    unroll: int = 1


@dataclass
class SemaResult:
    function: FunctionDef
    region: CompoundStmt
    region_pragma: OmpTargetParallel
    #: symbols defined outside the region but referenced inside it,
    #: in first-use order — these become kernel parameters
    captures: list[Symbol] = field(default_factory=list)
    #: all symbols, for introspection/tests
    symbols: list[Symbol] = field(default_factory=list)


# ----------------------------------------------------------------------
# constant expression evaluation (array dims, unroll trip counts)
# ----------------------------------------------------------------------
def eval_const_int(expr: Expr) -> Optional[int]:
    """Evaluate ``expr`` as a compile-time integer, or return ``None``."""

    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, Unary) and expr.op == "-":
        inner = eval_const_int(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, Binary):
        left = eval_const_int(expr.left)
        right = eval_const_int(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right,
                "%": lambda: left % right,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
            }[expr.op]()
        except (KeyError, ZeroDivisionError):
            return None
    return None


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------
class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.symbols: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> Symbol:
        if symbol.name in self.symbols:
            raise SemaError(f"redeclaration of {symbol.name!r}", symbol.location)
        self.symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


def analyze_function(function: FunctionDef) -> SemaResult:
    """Analyze ``function`` and return the annotated :class:`SemaResult`."""

    with telemetry.span("frontend.sema", category="frontend"):
        result = _Analyzer(function).run()
    telemetry.add("frontend.symbols", len(result.symbols))
    return result


class _Analyzer:
    def __init__(self, function: FunctionDef):
        self.function = function
        self.scope = _Scope()
        self.in_region = False
        self.region: Optional[CompoundStmt] = None
        self.region_pragma: Optional[OmpTargetParallel] = None
        self.captures: list[Symbol] = []
        self.symbols: list[Symbol] = []

    # -- plumbing -------------------------------------------------------
    def push(self) -> None:
        self.scope = _Scope(self.scope)

    def pop(self) -> None:
        assert self.scope.parent is not None
        self.scope = self.scope.parent

    def declare(self, symbol: Symbol) -> Symbol:
        symbol.inside_region = self.in_region
        self.symbols.append(symbol)
        return self.scope.declare(symbol)

    # -- driver ----------------------------------------------------------
    def run(self) -> SemaResult:
        for param in self.function.params:
            base = resolve_type_name(param.type_name, param.location)
            ty: Type = PointerType(base, MemorySpace.EXTERNAL) if param.pointer else base
            self.declare(Symbol(param.name, SymbolKind.PARAM, ty, param.location))
        self.visit_stmt(self.function.body, top_level=True)
        if self.region is None or self.region_pragma is None:
            raise SemaError(
                f"function {self.function.name!r} contains no "
                "'#pragma omp target parallel' region", self.function.location)
        return SemaResult(self.function, self.region, self.region_pragma,
                          self.captures, self.symbols)

    # -- statements --------------------------------------------------------
    def visit_stmt(self, stmt: Stmt, top_level: bool = False) -> None:
        target = next((p for p in stmt.pragmas if isinstance(p, OmpTargetParallel)), None)
        if target is not None:
            self._enter_region(stmt, target)
            return
        if isinstance(stmt, CompoundStmt):
            self.push()
            for inner in stmt.stmts:
                self.visit_stmt(inner)
            self.pop()
        elif isinstance(stmt, DeclStmt):
            self._visit_decl(stmt)
        elif isinstance(stmt, ExprStmt):
            self.visit_expr(stmt.expr, as_stmt=True)
        elif isinstance(stmt, ForStmt):
            self._visit_for(stmt)
        elif isinstance(stmt, IfStmt):
            self._require_region(stmt, "if statements")
            cond = self.visit_expr(stmt.cond)
            _require_scalar(cond, stmt.location, "if condition")
            self.visit_stmt(stmt.then)
            if stmt.other is not None:
                self.visit_stmt(stmt.other)
        elif isinstance(stmt, ReturnStmt):
            if self.in_region:
                raise SemaError("return inside a target region is not supported",
                                stmt.location)
            if stmt.value is not None:
                self.visit_expr(stmt.value)
        else:
            raise SemaError(f"unsupported statement {type(stmt).__name__}",
                            stmt.location)

    def _require_region(self, stmt: Stmt, what: str) -> None:
        if not self.in_region:
            raise SemaError(f"{what} outside the target region are not supported "
                            "(host code is a straight line of declarations)",
                            stmt.location)

    def _enter_region(self, stmt: Stmt, pragma: OmpTargetParallel) -> None:
        if self.region is not None:
            raise SemaError("only one target region per application is supported "
                            "(matching the paper's flow, §III-A)", stmt.location)
        if not isinstance(stmt, CompoundStmt):
            raise SemaError("'omp target parallel' must annotate a compound block",
                            stmt.location)
        self.region = stmt
        self.region_pragma = pragma
        self.in_region = True
        self.push()
        for inner in stmt.stmts:
            self.visit_stmt(inner)
        self.pop()
        self.in_region = False

    def _visit_decl(self, stmt: DeclStmt) -> None:
        base = resolve_type_name(stmt.type_name, stmt.location)
        if stmt.pointer:
            raise SemaError("local pointer declarations are not supported",
                            stmt.location)
        if stmt.array_dims:
            self._require_region(stmt, "local arrays")
            dims: list[int] = []
            for dim_expr in stmt.array_dims:
                value = eval_const_int(dim_expr)
                if value is None or value <= 0:
                    raise SemaError("array dimensions must be positive compile-time "
                                    "constants (arrays map to BRAM)", stmt.location)
                dims.append(value)
            if stmt.init is not None:
                raise SemaError("array initializers are not supported", stmt.location)
            symbol = Symbol(stmt.name, SymbolKind.ARRAY,
                            PointerType(base, MemorySpace.LOCAL), stmt.location,
                            dims=dims)
            self.declare(symbol)
            return
        kind = SymbolKind.LOCAL if self.in_region else SymbolKind.HOST_LOCAL
        symbol = self.declare(Symbol(stmt.name, kind, base, stmt.location))
        if stmt.init is not None:
            init = self.visit_expr(stmt.init)
            _check_convertible(init.type, base, stmt.location)
        stmt.symbol = symbol  # type: ignore[attr-defined]

    def _visit_for(self, stmt: ForStmt) -> None:
        self._require_region(stmt, "for loops")
        self.push()
        # --- induction variable --------------------------------------
        if isinstance(stmt.init, DeclStmt):
            decl = stmt.init
            base = resolve_type_name(decl.type_name, decl.location)
            if not (isinstance(base, ScalarType) and base.is_integer):
                raise SemaError("induction variable must be an integer", decl.location)
            if decl.init is None:
                raise SemaError("induction variable must be initialized", decl.location)
            lower = self.visit_expr(decl.init)
            var = self.declare(Symbol(decl.name, SymbolKind.INDUCTION, INT32,
                                      decl.location))
        elif isinstance(stmt.init, ExprStmt) and isinstance(stmt.init.expr, Assign) \
                and isinstance(stmt.init.expr.target, Identifier) \
                and stmt.init.expr.op == "":
            assign = stmt.init.expr
            lower = self.visit_expr(assign.value)
            existing = self.scope.lookup(assign.target.name)
            if existing is None:
                raise SemaError(f"undeclared loop variable {assign.target.name!r}",
                                stmt.location)
            raise SemaError("reusing an outer variable as loop induction variable "
                            "is not supported; declare it in the loop header",
                            stmt.location)
        else:
            raise SemaError("for-init must declare the induction variable",
                            stmt.location)
        _require_integer(lower, stmt.location, "loop lower bound")

        # --- condition -------------------------------------------------
        cond = stmt.cond
        if not (isinstance(cond, Binary) and cond.op in ("<", "<=")
                and isinstance(cond.left, Identifier) and cond.left.name == var.name):
            raise SemaError("loop condition must be 'var < bound' or 'var <= bound'",
                            stmt.location)
        self.visit_expr(cond.left)
        upper = self.visit_expr(cond.right)
        _require_integer(upper, stmt.location, "loop upper bound")
        cond.type = BOOL

        # --- increment ----------------------------------------------------
        step = self._canonical_step(stmt.inc, var)

        unroll = 1
        for pragma in stmt.pragmas:
            if isinstance(pragma, UnrollPragma):
                unroll = pragma.factor
        stmt.loop_info = LoopInfo(var, lower, upper, step,  # type: ignore[attr-defined]
                                  inclusive=(cond.op == "<="), unroll=unroll)

        self.visit_stmt(stmt.body)
        self.pop()

    def _canonical_step(self, inc: Expr, var: Symbol) -> Expr:
        """Extract the (positive) step expression from the loop increment."""

        if isinstance(inc, Unary) and inc.op in ("pre++", "post++"):
            if not (isinstance(inc.operand, Identifier) and inc.operand.name == var.name):
                raise SemaError("loop increment must update the induction variable",
                                inc.location)
            self.visit_expr(inc.operand)
            one = IntLiteral(inc.location, 1)
            one.type = INT32
            return one
        if isinstance(inc, Assign) and isinstance(inc.target, Identifier) \
                and inc.target.name == var.name:
            self.visit_expr(inc.target)
            if inc.op == "+":
                step = self.visit_expr(inc.value)
                _require_integer(step, inc.location, "loop step")
                return step
            if inc.op == "" and isinstance(inc.value, Binary) and inc.value.op == "+":
                add = inc.value
                if isinstance(add.left, Identifier) and add.left.name == var.name:
                    self.visit_expr(add.left)
                    step = self.visit_expr(add.right)
                    _require_integer(step, inc.location, "loop step")
                    add.type = INT32
                    return step
        raise SemaError("loop increment must be '++var', 'var++', 'var += step' "
                        "or 'var = var + step'", inc.location)

    # -- expressions ----------------------------------------------------------
    def visit_expr(self, expr: Expr, as_stmt: bool = False) -> Expr:
        if isinstance(expr, IntLiteral):
            expr.type = INT32
        elif isinstance(expr, FloatLiteral):
            expr.type = FLOAT32
        elif isinstance(expr, Identifier):
            self._visit_identifier(expr)
        elif isinstance(expr, Unary):
            self._visit_unary(expr, as_stmt)
        elif isinstance(expr, Binary):
            self._visit_binary(expr)
        elif isinstance(expr, Assign):
            if not (as_stmt or self.in_region):
                raise SemaError("assignments must be statements", expr.location)
            self._visit_assign(expr)
        elif isinstance(expr, Ternary):
            cond = self.visit_expr(expr.cond)
            _require_scalar(cond, expr.location, "ternary condition")
            a = self.visit_expr(expr.then)
            b = self.visit_expr(expr.other)
            expr.type = common_arith_type(a.type, b.type)
        elif isinstance(expr, Call):
            self._visit_call(expr)
        elif isinstance(expr, Index):
            self._visit_index(expr)
        elif isinstance(expr, Cast):
            self._visit_cast(expr)
        else:
            raise SemaError(f"unsupported expression {type(expr).__name__}",
                            expr.location)
        assert expr.type is not None, f"sema failed to type {expr}"
        return expr

    def _visit_identifier(self, expr: Identifier) -> None:
        symbol = self.scope.lookup(expr.name)
        if symbol is None:
            raise SemaError(f"use of undeclared identifier {expr.name!r}",
                            expr.location)
        if self.in_region and not symbol.inside_region:
            if symbol not in self.captures:
                self.captures.append(symbol)
        expr.symbol = symbol
        expr.type = symbol.type
        expr.remaining_dims = list(symbol.dims) if symbol.dims else None  # type: ignore[attr-defined]

    def _visit_unary(self, expr: Unary, as_stmt: bool) -> None:
        if expr.op in ("pre++", "post++", "pre--", "post--"):
            if not as_stmt:
                raise SemaError("++/-- are only supported as statements or loop "
                                "increments", expr.location)
            operand = self.visit_expr(expr.operand)
            _require_integer(operand, expr.location, "++/-- operand")
            expr.type = operand.type
            return
        operand = self.visit_expr(expr.operand)
        if expr.op == "-":
            expr.type = operand.type
        elif expr.op in ("!", "~"):
            _require_scalar(operand, expr.location, f"'{expr.op}' operand")
            expr.type = BOOL if expr.op == "!" else operand.type
        elif expr.op == "*":
            if not isinstance(operand.type, PointerType):
                raise SemaError("dereference of a non-pointer", expr.location)
            expr.type = operand.type.elem
        elif expr.op == "&":
            if not isinstance(expr.operand, Index):
                raise SemaError("'&' is only supported on array elements "
                                "(the vector-access idiom)", expr.location)
            space = _pointee_space(expr.operand)
            expr.type = PointerType(operand.type, space)
        else:
            raise SemaError(f"unsupported unary operator {expr.op!r}", expr.location)

    def _visit_binary(self, expr: Binary) -> None:
        left = self.visit_expr(expr.left)
        right = self.visit_expr(expr.right)
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            _require_scalar(left, expr.location, "comparison operand")
            _require_scalar(right, expr.location, "comparison operand")
            expr.type = BOOL
        elif expr.op in ("&&", "||"):
            expr.type = BOOL
        else:
            if isinstance(left.type, PointerType) or isinstance(right.type, PointerType):
                raise SemaError("pointer arithmetic is not supported; index with []",
                                expr.location)
            expr.type = common_arith_type(left.type, right.type)

    def _visit_assign(self, expr: Assign) -> None:
        value = self.visit_expr(expr.value)
        target = expr.target
        if isinstance(target, Identifier):
            self._visit_identifier(target)
            symbol = target.symbol
            assert isinstance(symbol, Symbol)
            if symbol.kind is SymbolKind.INDUCTION:
                raise SemaError("assignment to a loop induction variable is not "
                                "supported", expr.location)
            if symbol.kind is SymbolKind.ARRAY or symbol.is_pointer:
                raise SemaError("cannot assign to an array or pointer; assign to "
                                "an element", expr.location)
            _check_convertible(value.type, target.type, expr.location)
        elif isinstance(target, Index):
            self._visit_index(target)
            if isinstance(target.type, PointerType):
                raise SemaError("cannot assign to a partially-indexed array",
                                expr.location)
        elif isinstance(target, Unary) and target.op == "*":
            self._visit_unary(target, as_stmt=False)
        else:
            raise SemaError("unsupported assignment target", expr.location)
        assert target.type is not None
        expr.type = target.type

    def _visit_call(self, expr: Call) -> None:
        if expr.name == "__preload":
            self._visit_preload(expr)
            return
        if expr.name not in _BUILTIN_FUNCTIONS:
            raise SemaError(f"call to unknown function {expr.name!r} (only OpenMP "
                            "intrinsics are supported inside kernels)", expr.location)
        if expr.args:
            raise SemaError(f"{expr.name} takes no arguments", expr.location)
        if not self.in_region:
            raise SemaError(f"{expr.name} is only meaningful inside the target "
                            "region", expr.location)
        expr.type = _BUILTIN_FUNCTIONS[expr.name]

    def _visit_preload(self, expr: Call) -> None:
        """``__preload(local_array, dst_off, external_ptr, src_off, count)``
        — the preloader DMA of the architecture template (Fig. 1)."""

        from .ast_nodes import Identifier as _Ident
        if not self.in_region:
            raise SemaError("__preload is only meaningful inside the target "
                            "region", expr.location)
        if len(expr.args) != 5:
            raise SemaError("__preload takes (local_array, dst_off, "
                            "external_ptr, src_off, count)", expr.location)
        dst, dst_off, src, src_off, count = expr.args
        if not isinstance(dst, _Ident):
            raise SemaError("__preload destination must name a local array",
                            expr.location)
        self._visit_identifier(dst)
        if not (isinstance(dst.symbol, Symbol)
                and dst.symbol.kind is SymbolKind.ARRAY):
            raise SemaError("__preload destination must be a local array",
                            expr.location)
        if not isinstance(src, _Ident):
            raise SemaError("__preload source must name a mapped pointer",
                            expr.location)
        self._visit_identifier(src)
        if not (isinstance(src.type, PointerType)
                and src.type.space is MemorySpace.EXTERNAL):
            raise SemaError("__preload source must be an external pointer",
                            expr.location)
        for operand, what in ((dst_off, "destination offset"),
                              (src_off, "source offset"), (count, "count")):
            value = self.visit_expr(operand)
            _require_integer(value, expr.location, f"__preload {what}")
        from ..ir.types import VOID
        expr.type = VOID

    def _visit_index(self, expr: Index) -> None:
        base = self.visit_expr(expr.base)
        index = self.visit_expr(expr.index)
        _require_integer(index, expr.location, "subscript")
        remaining = getattr(base, "remaining_dims", None)
        if isinstance(base.type, PointerType):
            if remaining and len(remaining) > 1:
                expr.type = base.type
                expr.remaining_dims = remaining[1:]  # type: ignore[attr-defined]
            else:
                expr.type = base.type.elem
        elif isinstance(base.type, VectorType):
            expr.type = base.type.elem
        else:
            raise SemaError(f"cannot subscript value of type {base.type}",
                            expr.location)

    def _visit_cast(self, expr: Cast) -> None:
        operand = self.visit_expr(expr.operand)
        base = resolve_type_name(expr.type_tokens[0], expr.location)
        if "*" in expr.type_tokens:
            if not isinstance(operand.type, PointerType):
                raise SemaError("pointer casts require a pointer operand",
                                expr.location)
            expr.type = PointerType(base, operand.type.space)
        else:
            if isinstance(operand.type, PointerType):
                raise SemaError("cannot cast a pointer to a scalar", expr.location)
            expr.type = base


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _require_scalar(expr: Expr, location: SourceLocation, what: str) -> None:
    if not isinstance(expr.type, ScalarType):
        raise SemaError(f"{what} must be scalar, got {expr.type}", location)


def _require_integer(expr: Expr, location: SourceLocation, what: str) -> None:
    if not (isinstance(expr.type, ScalarType) and expr.type.is_integer):
        raise SemaError(f"{what} must be an integer, got {expr.type}", location)


def _check_convertible(src: Type, dst: Type, location: SourceLocation) -> None:
    if isinstance(src, PointerType) or isinstance(dst, PointerType):
        if src != dst:
            raise SemaError(f"cannot convert {src} to {dst}", location)
        return
    if isinstance(dst, VectorType) and isinstance(src, VectorType) \
            and dst.lanes != src.lanes:
        raise SemaError(f"cannot convert {src} to {dst} (lane mismatch)", location)


def _pointee_space(index_expr: Index) -> MemorySpace:
    """Memory space of the innermost base of an index chain."""

    base: Expr = index_expr
    while isinstance(base, Index):
        base = base.base
    if isinstance(base.type, PointerType):
        return base.type.space
    return MemorySpace.LOCAL
