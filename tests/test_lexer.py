"""Unit tests for the mini-C lexer and its macro preprocessor."""

import pytest

from repro.frontend.errors import LexError
from repro.frontend.lexer import TokenKind, tokenize


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_idents_and_keywords(self):
        tokens = tokenize("int foo float4")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT
        assert tokens[2].kind is TokenKind.IDENT  # vector names are idents
        assert tokens[-1].kind is TokenKind.EOF

    def test_int_literals(self):
        tokens = tokenize("42 0x1F 0")
        assert [t.value for t in tokens[:-1]] == [42, 31, 0]

    def test_leading_zero_is_octal(self):
        tokens = tokenize("07 010 00 0 0x10")
        assert [t.value for t in tokens[:-1]] == [7, 8, 0, 0, 16]
        assert all(t.kind is TokenKind.INT_LIT for t in tokens[:-1])

    @pytest.mark.parametrize("literal", ["08", "09", "0128"])
    def test_non_octal_digit_after_leading_zero(self, literal):
        with pytest.raises(LexError, match="octal literal") as excinfo:
            tokenize(f"int x =\n  {literal};", filename="k.c")
        assert str(excinfo.value.location) == "k.c:2:3"

    def test_overlong_integer_literal(self):
        with pytest.raises(LexError, match="invalid integer literal"):
            tokenize("1" * 5000)

    def test_float_literals(self):
        tokens = tokenize("1.5 .5 2. 1e3 1.5f 2E-2")
        values = [t.value for t in tokens[:-1]]
        assert values == [1.5, 0.5, 2.0, 1000.0, 1.5, 0.02]
        assert all(t.kind is TokenKind.FLOAT_LIT for t in tokens[:-1])

    def test_int_with_f_suffix_is_float(self):
        tokens = tokenize("4f")
        assert tokens[0].kind is TokenKind.FLOAT_LIT
        assert tokens[0].value == 4.0

    def test_multichar_punctuators(self):
        tokens = tokenize("a += b <= c << d && e")
        assert "+=" in texts(tokens)
        assert "<=" in texts(tokens)
        assert "<<" in texts(tokens)
        assert "&&" in texts(tokens)

    def test_maximal_munch(self):
        tokens = tokenize("a+++b")  # ++ then +
        assert texts(tokens) == ["a", "++", "+", "b"]

    def test_comments_stripped(self):
        tokens = tokenize("a // line comment\nb /* block */ c")
        assert texts(tokens) == ["a", "b", "c"]

    def test_block_comment_spans_lines(self):
        tokens = tokenize("a /* one\n two\n three */ b\nc")
        assert texts(tokens) == ["a", "b", "c"]
        locations = [(t.location.line, t.location.column) for t in tokens]
        assert locations[:3] == [(1, 1), (3, 11), (4, 1)]

    def test_block_comment_ends_at_first_close(self):
        tokens = tokenize("a /* x\n */ b /* y\n */ c")
        assert texts(tokens) == ["a", "b", "c"]
        assert tokens[2].location.line == 3

    def test_block_comment_hides_directives_and_line_comments(self):
        tokens = tokenize("/*\n#define X 1\n// */ X")
        assert texts(tokens) == ["X"]
        assert (tokens[0].location.line, tokens[0].location.column) == (3, 7)

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError, match="unterminated") as excinfo:
            tokenize("a\n  b /* open\n c")
        location = excinfo.value.location
        assert (location.line, location.column) == (2, 5)

    def test_locations(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a @ b")


class TestPreprocessor:
    def test_define_substitution(self):
        tokens = tokenize("#define N 16\nint x = N;")
        assert "16" in texts(tokens)
        assert "N" not in texts(tokens)

    def test_define_chained(self):
        tokens = tokenize("#define A B\n#define B 3\nA")
        assert texts(tokens) == ["3"]

    def test_define_multi_token(self):
        tokens = tokenize("#define EXPR (1 + 2)\nEXPR")
        assert texts(tokens) == ["(", "1", "+", "2", ")"]

    def test_programmatic_defines_override(self):
        tokens = tokenize("#define N 16\nN", defines={"N": 32})
        assert texts(tokens) == ["32"]

    def test_programmatic_define_string(self):
        tokens = tokenize("VECTOR x;", defines={"VECTOR": "float4"})
        assert texts(tokens)[0] == "float4"

    def test_function_like_macro_rejected(self):
        with pytest.raises(LexError, match="function-like"):
            tokenize("#define F(x) x\n")

    def test_include_ignored(self):
        tokens = tokenize('#include <omp.h>\nint a;')
        assert texts(tokens) == ["int", "a", ";"]

    def test_unknown_directive_rejected(self):
        with pytest.raises(LexError, match="unsupported preprocessor"):
            tokenize("#ifdef FOO\n")

    def test_recursive_macro_detected(self):
        with pytest.raises(LexError, match="too deep"):
            tokenize("#define A A\nA")


class TestPragmas:
    def test_pragma_token(self):
        tokens = tokenize("#pragma omp critical\nx")
        assert tokens[0].kind is TokenKind.PRAGMA
        assert "omp critical" in tokens[0].text

    def test_pragma_line_continuation(self):
        source = "#pragma omp target parallel map(to: a) \\\n    num_threads(4)\nx"
        tokens = tokenize(source)
        assert tokens[0].kind is TokenKind.PRAGMA
        assert "num_threads" in tokens[0].text

    def test_macro_expansion_inside_pragma(self):
        tokens = tokenize("#define W 8\n#pragma unroll W\nx")
        assert tokens[0].kind is TokenKind.PRAGMA
        assert "8" in tokens[0].text
        assert "W" not in tokens[0].text.split()
