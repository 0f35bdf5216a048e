"""Recursive-descent parser for the mini-C dialect.

Produces the AST of :mod:`repro.frontend.ast_nodes`.  Pragmas in the
token stream are parsed structurally (:mod:`repro.frontend.pragmas`)
and attached to the statement that follows them, mirroring how OpenMP
binds pragmas to their associated construct.
"""

from __future__ import annotations

import re
from typing import Optional

from .ast_nodes import (
    Assign, Binary, Call, Cast, CompoundStmt, DeclStmt, Expr, ExprStmt,
    FloatLiteral, ForStmt, FunctionDef, Identifier, IfStmt, Index,
    IntLiteral, ParamDecl, ReturnStmt, Stmt, Ternary, TranslationUnit,
    Unary,
)
from .. import telemetry
from .errors import ParseError
from .lexer import Token, TokenKind, tokenize
from .pragmas import parse_pragma

__all__ = ["parse", "Parser"]

_TYPE_KEYWORDS = frozenset({"void", "int", "float", "double", "unsigned", "long", "char"})
_VECTOR_NAME = re.compile(r"^(float|int|double)(\d+)$")


def parse(source: str, filename: str = "<source>", defines=None) -> TranslationUnit:
    """Tokenize and parse ``source`` into a :class:`TranslationUnit`."""

    tokens = tokenize(source, filename=filename, defines=defines)
    with telemetry.span("frontend.parser", category="frontend"):
        unit = Parser(tokens).parse_translation_unit()
    telemetry.add("frontend.functions", len(unit.functions))
    return unit


def is_type_name(text: str) -> bool:
    """Is ``text`` a scalar or vector type name of the dialect?"""

    return text in _TYPE_KEYWORDS or bool(_VECTOR_NAME.match(text))


_PUNCT, _KEYWORD, _IDENT = TokenKind.PUNCT, TokenKind.KEYWORD, TokenKind.IDENT
_PRAGMA, _EOF = TokenKind.PRAGMA, TokenKind.EOF

#: binary operator -> precedence level; a higher level binds tighter
_BINARY_LEVEL = {
    op: level
    for level, ops in enumerate([
        ["||"], ["&&"], ["|"], ["^"], ["&"],
        ["==", "!="], ["<", "<=", ">", ">="],
        ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
    ])
    for op in ops
}
#: assignment punctuator -> the operator it compounds ("" for plain ``=``)
_ASSIGN_OPS = {"=": "", "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%"}
_PREFIX_OPS = frozenset({"-", "!", "~", "*", "&"})


class Parser:
    """Hand-written recursive-descent parser (no backtracking beyond one token).

    The current token is ``self.tokens[self.pos]``, read into a local
    wherever it is tested more than once; the position never moves past
    the final EOF token.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _next_token(self) -> Token:
        """The token after the current one (EOF at the end)."""

        return self.tokens[min(self.pos + 1, len(self.tokens) - 1)]

    def _at(self, text: str) -> bool:
        """Is the current token the punctuator or keyword ``text``?"""

        token = self.tokens[self.pos]
        return token.text == text and (token.kind is _PUNCT
                                       or token.kind is _KEYWORD)

    def accept(self, text: str) -> bool:
        if self._at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self._at(text):
            token = self.tokens[self.pos]
            raise ParseError(f"expected {text!r}, got {token.text!r}",
                             token.location)
        self.pos += 1

    def expect_ident(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not _IDENT:
            raise ParseError(f"expected identifier, got {token.text!r}",
                             token.location)
        self.pos += 1
        return token

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        location = self.tokens[self.pos].location
        functions: list[FunctionDef] = []
        while True:
            kind = self.tokens[self.pos].kind
            if kind is _EOF:
                return TranslationUnit(location, functions)
            if kind is _PRAGMA:
                # stray file-level pragma: ignore, as C compilers do
                self.pos += 1
                continue
            functions.append(self.parse_function())

    def parse_function(self) -> FunctionDef:
        location = self.tokens[self.pos].location
        return_type = self._parse_type_name()
        name = self.expect_ident().text
        self.expect("(")
        params: list[ParamDecl] = []
        if not self._at(")"):
            while True:
                params.append(self._parse_param())
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.parse_compound()
        return FunctionDef(location, return_type, name, params, body)

    def _parse_type_name(self) -> str:
        self.accept("const")
        self.accept("static")
        self.accept("inline")
        tokens = self.tokens
        token = tokens[self.pos]
        if not (token.kind is _KEYWORD and token.text in _TYPE_KEYWORDS) and \
           not (token.kind is _IDENT and is_type_name(token.text)):
            raise ParseError(f"expected type name, got {token.text!r}",
                             token.location)
        self.pos += 1
        # "unsigned int", "long long" etc. collapse to the first keyword.
        while tokens[self.pos].kind is _KEYWORD \
                and tokens[self.pos].text in _TYPE_KEYWORDS:
            self.pos += 1
        return token.text

    def _parse_param(self) -> ParamDecl:
        location = self.tokens[self.pos].location
        type_name = self._parse_type_name()
        pointer = False
        while self.accept("*"):
            pointer = True
        self.accept("const")
        name = self.expect_ident().text
        return ParamDecl(location, type_name, pointer, name)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_compound(self) -> CompoundStmt:
        location = self.tokens[self.pos].location
        self.expect("{")
        stmts: list[Stmt] = []
        while not self._at("}"):
            token = self.tokens[self.pos]
            if token.kind is _EOF:
                raise ParseError("unexpected end of input inside block",
                                 token.location)
            stmts.append(self.parse_statement())
        self.pos += 1
        return CompoundStmt(location, stmts)

    def parse_statement(self) -> Stmt:
        pragmas = []
        while (token := self.tokens[self.pos]).kind is _PRAGMA:
            self.pos += 1
            parsed = parse_pragma(token.text, token.location)
            if parsed is not None:
                pragmas.append(parsed)
        stmt = self._parse_statement_inner()
        if pragmas:
            stmt.pragmas = pragmas + stmt.pragmas
        return stmt

    def _parse_statement_inner(self) -> Stmt:
        token = self.tokens[self.pos]
        location, text = token.location, token.text
        if token.kind is _PUNCT:
            if text == "{":
                return self.parse_compound()
            if text == ";":
                self.pos += 1
                return CompoundStmt(location, [])
        elif token.kind is _KEYWORD:
            if text == "for":
                return self._parse_for()
            if text == "if":
                return self._parse_if()
            if text == "return":
                self.pos += 1
                value = None if self._at(";") else self.parse_expr()
                self.expect(";")
                return ReturnStmt(location, value)
            if text == "while":
                raise ParseError("while loops are not supported by the HLS "
                                 "dialect (use a counted for loop)", location)
        if self._at_declaration():
            stmt = self._parse_declaration()
            self.expect(";")
            return stmt
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(location, expr)

    def _at_declaration(self) -> bool:
        token = self.tokens[self.pos]
        if token.kind is _KEYWORD:
            return token.text in _TYPE_KEYWORDS
        if token.kind is _IDENT and is_type_name(token.text):
            after = self._next_token()
            return after.kind is _IDENT or after.is_punct("*")
        return False

    def _parse_declaration(self) -> DeclStmt:
        location = self.tokens[self.pos].location
        type_name = self._parse_type_name()
        pointer = False
        while self.accept("*"):
            pointer = True
        name = self.expect_ident().text
        dims: list[Expr] = []
        while self.accept("["):
            dims.append(self.parse_expr())
            self.expect("]")
        init: Optional[Expr] = None
        if self.accept("="):
            if self._at("{"):
                init = self._parse_brace_init()
            else:
                init = self.parse_expr()
        return DeclStmt(location, type_name, pointer, name, dims, init)

    def _parse_brace_init(self) -> Expr:
        """``{0.0f}``-style initializer: only the broadcast form is supported."""

        location = self.tokens[self.pos].location
        self.expect("{")
        value = self.parse_expr()
        if self.accept(","):
            raise ParseError("only single-element brace initializers are supported "
                             "(value is broadcast)", location)
        self.expect("}")
        return value

    def _parse_for(self) -> ForStmt:
        location = self.tokens[self.pos].location
        self.expect("for")
        self.expect("(")
        if self._at_declaration():
            init: Stmt = self._parse_declaration()
            if self._at(","):
                raise ParseError("multiple declarators in for-init are not "
                                 "supported; hoist extra variables out of the "
                                 "loop header", self.tokens[self.pos].location)
        elif self._at(";"):
            raise ParseError("for loop must bind an induction variable", location)
        else:
            init = ExprStmt(self.tokens[self.pos].location, self.parse_expr())
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        inc = self.parse_expr()
        self.expect(")")
        body = self.parse_statement()
        return ForStmt(location, init, cond, inc, body)

    def _parse_if(self) -> IfStmt:
        location = self.tokens[self.pos].location
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_statement()
        other = self.parse_statement() if self.accept("else") else None
        return IfStmt(location, cond, then, other)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        """An assignment expression (right-associative), or a ternary."""

        location = self.tokens[self.pos].location
        target = self._parse_ternary()
        token = self.tokens[self.pos]
        if token.kind is _PUNCT:
            op = _ASSIGN_OPS.get(token.text)
            if op is not None:
                self.pos += 1
                return Assign(location, op, target, self.parse_expr())
        return target

    def _parse_ternary(self) -> Expr:
        location = self.tokens[self.pos].location
        cond = self._parse_binary(0)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            other = self._parse_ternary()
            return Ternary(location, cond, then, other)
        return cond

    def _parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: operators of ``min_level`` and tighter.

        Operators of one level associate to the left; every
        :class:`Binary` carries the location of its left operand.
        """

        tokens = self.tokens
        location = tokens[self.pos].location
        left = self._parse_unary()
        while True:
            token = tokens[self.pos]
            if token.kind is not _PUNCT:
                return left
            level = _BINARY_LEVEL.get(token.text)
            if level is None or level < min_level:
                return left
            self.pos += 1
            left = Binary(location, token.text, left,
                          self._parse_binary(level + 1))

    def _parse_unary(self) -> Expr:
        token = self.tokens[self.pos]
        if token.kind is _PUNCT:
            text = token.text
            if text in _PREFIX_OPS:
                self.pos += 1
                return Unary(token.location, text, self._parse_unary())
            if text == "++" or text == "--":
                self.pos += 1
                return Unary(token.location, "pre" + text, self._parse_unary())
            if text == "(" and self._looks_like_cast():
                return self._parse_cast()
        return self._parse_postfix()

    def _looks_like_cast(self) -> bool:
        token = self._next_token()
        if token.kind is _KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        return token.kind is _IDENT and is_type_name(token.text)

    def _parse_cast(self) -> Expr:
        location = self.tokens[self.pos].location
        self.expect("(")
        type_tokens = [self._parse_type_name()]
        while self.accept("*"):
            type_tokens.append("*")
        self.expect(")")
        operand = self._parse_unary()
        return Cast(location, type_tokens, operand)

    def _parse_postfix(self) -> Expr:
        """A primary expression and the subscripts, calls and ``++``/``--``
        that follow it."""

        tokens = self.tokens
        token = tokens[self.pos]
        kind = token.kind
        if kind is _IDENT:
            self.pos += 1
            expr: Expr = Identifier(token.location, token.text)
        elif kind is TokenKind.INT_LIT:
            self.pos += 1
            expr = IntLiteral(token.location, token.value)
        elif kind is TokenKind.FLOAT_LIT:
            self.pos += 1
            expr = FloatLiteral(token.location, token.value)
        elif kind is _PUNCT and token.text == "(":
            self.pos += 1
            expr = self.parse_expr()
            self.expect(")")
        else:
            raise ParseError(f"unexpected token {token.text!r}", token.location)
        while True:
            token = tokens[self.pos]
            if token.kind is not _PUNCT:
                return expr
            text, location = token.text, token.location
            if text == "[":
                self.pos += 1
                index = self.parse_expr()
                self.expect("]")
                expr = Index(location, expr, index)
            elif text == "(" and isinstance(expr, Identifier):
                self.pos += 1
                args: list[Expr] = []
                if not self._at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = Call(location, expr.name, args)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = Unary(location, "post" + text, expr)
            else:
                return expr
