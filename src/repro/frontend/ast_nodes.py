"""Abstract syntax tree for the mini-C dialect.

Nodes are plain dataclasses; the semantic analyzer annotates expression
nodes in-place with their resolved :attr:`Expr.type` and binds
identifiers to symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..ir.types import Type
from .errors import SourceLocation

__all__ = [
    "Node", "Expr", "IntLiteral", "FloatLiteral", "Identifier", "Unary",
    "Binary", "Assign", "Ternary", "Call", "Index", "Cast", "Stmt",
    "DeclStmt", "ExprStmt", "ForStmt", "IfStmt", "CompoundStmt",
    "ReturnStmt", "ParamDecl", "FunctionDef", "TranslationUnit",
]


@dataclass
class Node:
    location: SourceLocation


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
@dataclass
class Expr(Node):
    """Base class for expressions; ``type`` is filled in by sema."""

    def __post_init__(self) -> None:
        self.type: Optional[Type] = None
        self.symbol: Any = None  # sema: resolved Symbol for identifiers


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class FloatLiteral(Expr):
    value: float


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class Unary(Expr):
    """Unary operator: ``-``, ``!``, ``~``, ``*`` (deref), ``&`` (addr-of)."""

    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Assign(Expr):
    """Assignment (possibly compound: ``op`` is ``""``, ``"+"``, ``"*"``, ...)."""

    op: str
    target: Expr
    value: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Call(Expr):
    name: str
    args: list[Expr]


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Cast(Expr):
    """C-style cast.  ``type_tokens`` is e.g. ``["float4", "*"]``."""

    type_tokens: list[str]
    operand: Expr


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass
class Stmt(Node):
    def __post_init__(self) -> None:
        self.pragmas: list[Any] = []  # structured pragmas attached by the parser


@dataclass
class DeclStmt(Stmt):
    """A local declaration: ``type_name ['*'] name [dims] [= init]``."""

    type_name: str
    pointer: bool
    name: str
    array_dims: list[Expr]
    init: Optional[Expr]


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class ForStmt(Stmt):
    """Canonical counted loop ``for (init; cond; inc) body``."""

    init: Stmt  # DeclStmt or ExprStmt assigning the induction variable
    cond: Expr
    inc: Expr  # Assign or ++/-- Unary over the induction variable
    body: Stmt


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt]


@dataclass
class CompoundStmt(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr]


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------
@dataclass
class ParamDecl(Node):
    type_name: str
    pointer: bool
    name: str


@dataclass
class FunctionDef(Node):
    return_type: str
    name: str
    params: list[ParamDecl]
    body: CompoundStmt


@dataclass
class TranslationUnit(Node):
    functions: list[FunctionDef]

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")
