"""Diagnostic-quality battery: every rejected construct names its problem.

A reproduction meant for adoption needs actionable error messages; this
battery pins the diagnostics for the most likely user mistakes.
"""

import pytest

from repro.frontend import compile_to_kernel
from repro.frontend.errors import FrontendError, LexError, ParseError, SemaError


def compile_kernel_body(body: str):
    return compile_to_kernel(f"""
    void f(float* a, int n) {{
      #pragma omp target parallel map(tofrom:a[0:n]) num_threads(4)
      {{
{body}
      }}
    }}
    """)


REJECTED = [
    # (body, exception fragment)
    ("float x = y;", "undeclared identifier 'y'"),
    ("int x = 0;\nint x = 1;", "redeclaration"),
    ("while (n) { }", "while loops are not supported"),
    ("for (int i = 0; i != n; ++i) { }", "loop condition"),
    ("for (int i = n; i < 0; --i) { }", "loop increment"),
    ("float buf[n];", "compile-time constants"),
    ("float x = a;", "cannot convert"),
    ("float x = foo(1);", "unknown function 'foo'"),
    ("a = a;", "assign to an array or pointer"),
    ("int x = a[1.0f];", "subscript"),
    ("quux x = 0;", "expected"),  # not a type: parses as expression
    ("float256 v = {0.0f};", "vector width"),
    ("return;", "return inside"),
    ("__preload(a, 0, a, 0, 4);", "local array"),
]


@pytest.mark.parametrize("body,fragment", REJECTED,
                         ids=[b.split("\n")[0][:30] for b, _ in REJECTED])
def test_rejected_with_message(body, fragment):
    with pytest.raises(FrontendError) as excinfo:
        compile_kernel_body(body)
    assert fragment.split("'")[0].strip().lower() in str(excinfo.value).lower()


def test_error_carries_location():
    with pytest.raises(SemaError) as excinfo:
        compile_kernel_body("float x = missing;")
    assert excinfo.value.location is not None
    assert excinfo.value.location.line > 1


def test_lexer_error_location():
    with pytest.raises(LexError) as excinfo:
        compile_to_kernel("void f() { int x = `; }")
    assert "unexpected character" in str(excinfo.value)


def test_multiline_header_comment_compiles():
    kernel = compile_to_kernel("""/* a kernel
   with a two-line header comment */
void f(float* a, int n) {
  #pragma omp target parallel map(tofrom:a[0:n]) num_threads(4)
  {
    a[0] = 1.0f;
  }
}
""")
    assert kernel is not None


def test_error_after_multiline_comment_keeps_its_line():
    with pytest.raises(SemaError) as excinfo:
        compile_kernel_body("/* first\n   second */ float x = missing;")
    location = excinfo.value.location
    assert (location.line, location.column) == (6, 24)


def test_unterminated_comment_is_a_lex_error_at_its_opening():
    with pytest.raises(LexError, match="unterminated") as excinfo:
        compile_kernel_body("int x = 0; /* never closed")
    assert (excinfo.value.location.line, excinfo.value.location.column) \
        == (5, 12)


@pytest.mark.parametrize("literal", ["08", "09"])
def test_bad_octal_literal_is_a_lex_error_at_the_literal(literal):
    with pytest.raises(LexError, match=f"octal literal '{literal}'") as excinfo:
        compile_kernel_body(f"int x = {literal};")
    assert (excinfo.value.location.line, excinfo.value.location.column) \
        == (5, 9)


def test_octal_literal_compiles():
    assert compile_kernel_body("int x = 07;") is not None


def test_parse_error_names_token():
    with pytest.raises(ParseError) as excinfo:
        compile_to_kernel("void f( { }")
    assert "expected" in str(excinfo.value)


def test_missing_region_reported():
    with pytest.raises(SemaError, match="target parallel"):
        compile_to_kernel("void f(int n) { int x = n; }")


def test_unmapped_pointer_names_parameter():
    source = """
    void f(float* data, int n) {
      #pragma omp target parallel num_threads(2)
      { float x = data[0]; }
    }
    """
    with pytest.raises(SemaError, match="'data'"):
        compile_to_kernel(source)
