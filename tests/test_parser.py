"""Unit tests for the mini-C parser."""

import pytest

from repro.frontend.ast_nodes import (
    Assign, Binary, Call, Cast, CompoundStmt, DeclStmt, ExprStmt, FloatLiteral,
    ForStmt, Identifier, IfStmt, Index, ReturnStmt, Ternary, Unary,
)
from repro.frontend.errors import ParseError
from repro.frontend.parser import is_type_name, parse
from repro.frontend.pragmas import OmpCritical, UnrollPragma


def parse_stmts(body: str):
    unit = parse(f"void f(float* a, int n) {{\n{body}\n}}")
    return unit.function("f").body.stmts


def parse_expr(expr: str):
    stmts = parse_stmts(f"{expr};")
    assert isinstance(stmts[0], ExprStmt)
    return stmts[0].expr


class TestTypeNames:
    @pytest.mark.parametrize("name", ["int", "float", "double", "void",
                                      "float4", "float16", "int8"])
    def test_type_names(self, name):
        assert is_type_name(name)

    @pytest.mark.parametrize("name", ["foo", "floats", "f4", "float0x"])
    def test_non_type_names(self, name):
        assert not is_type_name(name)


class TestTopLevel:
    def test_function_signature(self):
        unit = parse("void f(float* a, const int n) { }")
        fn = unit.function("f")
        assert fn.return_type == "void"
        assert [p.name for p in fn.params] == ["a", "n"]
        assert fn.params[0].pointer and not fn.params[1].pointer

    def test_multiple_functions(self):
        unit = parse("void f() { } int g() { return 1; }")
        assert len(unit.functions) == 2
        with pytest.raises(KeyError):
            unit.function("h")

    def test_unsigned_collapses(self):
        unit = parse("void f(unsigned int n) { }")
        assert unit.function("f").params[0].type_name == "unsigned"


class TestStatements:
    def test_declaration(self):
        stmt = parse_stmts("float x = 1.5f;")[0]
        assert isinstance(stmt, DeclStmt)
        assert stmt.name == "x"
        assert isinstance(stmt.init, FloatLiteral)

    def test_array_declaration(self):
        stmt = parse_stmts("float buf[4][8];")[0]
        assert isinstance(stmt, DeclStmt)
        assert len(stmt.array_dims) == 2

    def test_brace_initializer(self):
        stmt = parse_stmts("float4 v = {0.0f};")[0]
        assert isinstance(stmt.init, FloatLiteral)

    def test_multi_element_brace_rejected(self):
        with pytest.raises(ParseError, match="single-element"):
            parse_stmts("float4 v = {1.0f, 2.0f};")

    def test_for_loop(self):
        stmt = parse_stmts("for (int i = 0; i < n; ++i) { }")[0]
        assert isinstance(stmt, ForStmt)
        assert isinstance(stmt.init, DeclStmt)
        assert isinstance(stmt.cond, Binary)

    def test_for_requires_induction(self):
        with pytest.raises(ParseError, match="induction"):
            parse_stmts("for (; n; ++n) { }")

    def test_multi_declarator_for_rejected(self):
        with pytest.raises(ParseError, match="multiple declarators"):
            parse_stmts("for (int i = 0, j = 0; i < n; ++i) { }")

    def test_if_else(self):
        stmt = parse_stmts("if (n) { } else { }")[0]
        assert isinstance(stmt, IfStmt)
        assert stmt.other is not None

    def test_if_without_else(self):
        stmt = parse_stmts("if (n) { }")[0]
        assert stmt.other is None

    def test_return(self):
        stmt = parse_stmts("return n;")[0]
        assert isinstance(stmt, ReturnStmt)
        assert isinstance(stmt.value, Identifier)

    def test_while_rejected(self):
        with pytest.raises(ParseError, match="while"):
            parse_stmts("while (n) { }")

    def test_empty_statement(self):
        stmt = parse_stmts(";")[0]
        assert isinstance(stmt, CompoundStmt) and not stmt.stmts

    def test_unclosed_block(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("void f() { {")


class TestPragmaAttachment:
    def test_critical_attaches_to_block(self):
        stmts = parse_stmts("#pragma omp critical\n{ a[0] = 1.0f; }")
        assert any(isinstance(p, OmpCritical) for p in stmts[0].pragmas)

    def test_unroll_attaches_to_loop(self):
        stmts = parse_stmts("#pragma unroll 4\nfor (int i = 0; i < n; ++i) { }")
        assert UnrollPragma(4) in stmts[0].pragmas


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, Binary) and expr.op == "+"
        assert isinstance(expr.right, Binary) and expr.right.op == "*"

    def test_precedence_compare_over_and(self):
        expr = parse_expr("1 < 2 && 3 < 4")
        assert expr.op == "&&"
        assert expr.left.op == "<"

    def test_left_associativity(self):
        expr = parse_expr("1 - 2 - 3")
        assert expr.op == "-"
        assert isinstance(expr.left, Binary) and expr.left.op == "-"

    def test_parentheses(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_ternary(self):
        expr = parse_expr("n ? 1.0f : 0.0f")
        assert isinstance(expr, Ternary)

    def test_assignment(self):
        expr = parse_expr("n = 3")
        assert isinstance(expr, Assign) and expr.op == ""

    def test_compound_assignment(self):
        expr = parse_expr("n += 3")
        assert isinstance(expr, Assign) and expr.op == "+"

    def test_assignment_right_associative(self):
        expr = parse_expr("n = n + 1")
        assert isinstance(expr, Assign)
        assert isinstance(expr.value, Binary)

    def test_index_chain(self):
        expr = parse_expr("a[1]")
        assert isinstance(expr, Index)

    def test_call(self):
        expr = parse_expr("omp_get_thread_num()")
        assert isinstance(expr, Call) and not expr.args

    def test_cast_scalar(self):
        expr = parse_expr("(float) n")
        assert isinstance(expr, Cast)
        assert expr.type_tokens == ["float"]

    def test_cast_vector_pointer(self):
        expr = parse_expr("*((float4*) &a[0])")
        assert isinstance(expr, Unary) and expr.op == "*"
        cast = expr.operand
        assert isinstance(cast, Cast)
        assert cast.type_tokens == ["float4", "*"]
        assert isinstance(cast.operand, Unary) and cast.operand.op == "&"

    def test_parenthesized_expr_not_cast(self):
        expr = parse_expr("(n) + 1")
        assert isinstance(expr, Binary)

    def test_unary_minus(self):
        expr = parse_expr("-n")
        assert isinstance(expr, Unary) and expr.op == "-"

    def test_prefix_increment(self):
        expr = parse_expr("++n")
        assert isinstance(expr, Unary) and expr.op == "pre++"

    def test_postfix_increment(self):
        expr = parse_expr("n++")
        assert isinstance(expr, Unary) and expr.op == "post++"

    def test_nested_index(self):
        expr = parse_expr("a[n[0]]")
        assert isinstance(expr, Index)
        assert isinstance(expr.index, Index)

    def test_unexpected_token(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse_expr("+")
