"""Unit tests for structured pragma parsing and integer-expression eval."""

import pytest

from repro.frontend.errors import ParseError, SourceLocation
from repro.frontend.pragmas import (
    OmpBarrier, OmpCritical, OmpTargetParallel, UnrollPragma, eval_int_expr,
    parse_pragma,
)

LOC = SourceLocation(1, 1)


class TestTargetParallel:
    def test_basic(self):
        pragma = parse_pragma("omp target parallel num_threads ( 8 )", LOC)
        assert isinstance(pragma, OmpTargetParallel)
        assert eval_int_expr(pragma.num_threads) == 8

    def test_map_clauses(self):
        text = ("omp target parallel map ( to : A [ 0 : N * N ] , B [ 0 : N ] ) "
                "map ( from : C [ 0 : 4 ] )")
        pragma = parse_pragma(text, LOC)
        assert [c.var for c in pragma.maps] == ["A", "B", "C"]
        assert pragma.maps[0].kind == "to"
        assert pragma.maps[2].kind == "from"
        assert pragma.clause_for("B").length.replace(" ", "") == "N"
        assert pragma.clause_for("missing") is None

    def test_scalar_map(self):
        pragma = parse_pragma("omp target parallel map ( tofrom : x )", LOC)
        clause = pragma.maps[0]
        assert clause.length is None
        with pytest.raises(ValueError, match="array section"):
            clause.resolve({})

    def test_map_resolve(self):
        pragma = parse_pragma("omp target parallel map ( to : A [ 2 : N * 3 ] )",
                              LOC)
        lower, length = pragma.maps[0].resolve({"N": 5})
        assert (lower, length) == (2, 15)

    def test_map_resolve_nonpositive_rejected(self):
        pragma = parse_pragma("omp target parallel map ( to : A [ 0 : N ] )", LOC)
        with pytest.raises(ValueError, match="non-positive"):
            pragma.maps[0].resolve({"N": 0})

    def test_bad_map_kind(self):
        with pytest.raises(ParseError, match="map kind"):
            parse_pragma("omp target parallel map ( alloc : A )", LOC)

    def test_unknown_clause(self):
        with pytest.raises(ParseError, match="unsupported clause"):
            parse_pragma("omp target parallel device ( 0 )", LOC)


class TestOtherPragmas:
    def test_critical(self):
        assert parse_pragma("omp critical", LOC) == OmpCritical("")

    def test_named_critical(self):
        assert parse_pragma("omp critical ( mylock )", LOC) == \
            OmpCritical("mylock")

    def test_barrier(self):
        assert isinstance(parse_pragma("omp barrier", LOC), OmpBarrier)

    def test_unroll(self):
        assert parse_pragma("unroll 4", LOC) == UnrollPragma(4)

    def test_unroll_expression(self):
        assert parse_pragma("unroll 2 * 4", LOC) == UnrollPragma(8)

    def test_unroll_zero_rejected(self):
        with pytest.raises(ParseError, match="unroll factor"):
            parse_pragma("unroll 0", LOC)

    def test_unknown_omp_pragma_ignored(self):
        assert parse_pragma("omp simd", LOC) is None

    def test_vendor_pragma_ignored(self):
        assert parse_pragma("HLS pipeline II=1", LOC) is None


class TestEvalIntExpr:
    @pytest.mark.parametrize("text,env,expected", [
        ("3", {}, 3),
        ("1 + 2 * 3", {}, 7),
        ("( 1 + 2 ) * 3", {}, 9),
        ("10 / 3", {}, 3),
        ("10 % 3", {}, 1),
        ("- 4 + 6", {}, 2),
        ("N * N", {"N": 4}, 16),
        ("A + B * 2", {"A": 1, "B": 3}, 7),
    ])
    def test_values(self, text, env, expected):
        assert eval_int_expr(text, env) == expected

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            eval_int_expr("N + 1")

    def test_trailing_junk(self):
        with pytest.raises(ParseError, match="trailing junk"):
            eval_int_expr("1 2")
