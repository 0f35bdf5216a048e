"""Lexer for the mini-C dialect accepted by the frontend.

The dialect is the subset of C99 (+ OpenMP pragmas) that the paper's
kernels (Figs. 3-5 and 10) are written in: scalar/pointer/array
declarations, ``for``/``if``/ternary control flow, compound assignment,
casts, address-of / dereference (for the ``*((VECTOR*)&A[i])`` vector
idiom), function calls, and ``#pragma`` lines.

Preprocessing is deliberately small:

* ``#define NAME token...`` — object-like macros, expanded at token
  level (supports the paper's ``DTYPE``/``VECTOR``/``BLOCK_SIZE``
  definitions).  Macros can also be supplied programmatically, which the
  application library uses to parameterize matrix sizes.
* ``#pragma ...`` — kept in the token stream as a :data:`TokenKind.PRAGMA`
  token whose text is the remainder of the line; the parser attaches it
  to the following statement.
* ``#include`` lines are ignored (the kernels are self-contained).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .. import telemetry
from .errors import LexError, SourceLocation

__all__ = ["TokenKind", "Token", "tokenize", "KEYWORDS"]


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT_LIT = "int"
    FLOAT_LIT = "float"
    PUNCT = "punct"
    PRAGMA = "pragma"
    EOF = "eof"


KEYWORDS = frozenset({
    "void", "int", "float", "double", "unsigned", "long", "char", "const",
    "for", "if", "else", "while", "return", "break", "continue",
    "static", "inline", "struct", "typedef", "sizeof",
})

# Multi-character punctuators, longest first so maximal munch works.
_PUNCTS = [
    "<<=", ">>=", "...",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "[", "]", "{", "}", ",", ";", "?", ":", ".",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<float>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?|\d+[fF])
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>""" + "|".join(re.escape(p) for p in _PUNCTS) + r""")
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: TokenKind
    text: str
    location: SourceLocation
    value: Optional[Union[int, float]] = None

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r})"


def tokenize(source: str, filename: str = "<source>",
             defines: Optional[Mapping[str, Union[int, float, str]]] = None) -> list[Token]:
    """Tokenize ``source``, expanding ``#define`` macros.

    ``defines`` supplies additional object-like macros (values may be
    numbers or strings of mini-C tokens); they take precedence over
    in-source ``#define`` lines with the same name, so callers can
    override e.g. a matrix dimension.
    """

    with telemetry.span("frontend.lexer", category="frontend"):
        # Physical line continuations (used by multi-line pragmas) join
        # lines; later diagnostics may therefore be off by the number of
        # joined lines.
        source = source.replace("\\\n", " ")
        forced = {name: str(value) for name, value in (defines or {}).items()}
        macros: dict[str, list[Token]] = {}

        tokens: list[Token] = []
        for line_no, line in enumerate(source.split("\n"), start=1):
            stripped = line.lstrip()
            if stripped.startswith("#"):
                _handle_directive(stripped, line_no, filename, macros,
                                  forced, tokens)
                continue
            tokens.extend(_lex_line(line, line_no, filename))

        # Expand macros (iteratively, so macros may reference other macros).
        for name, text in forced.items():
            macros[name] = _lex_line(text, 0, f"<define:{name}>")
        expanded = _expand(tokens, macros)
        expanded = [_expand_pragma(t, macros) for t in expanded]
        eof_loc = SourceLocation(source.count("\n") + 1, 1, filename)
        expanded.append(Token(TokenKind.EOF, "", eof_loc))
        telemetry.add("frontend.tokens", len(expanded))
        return expanded


def _expand_pragma(token: Token, macros: Mapping[str, list["Token"]]) -> Token:
    """Expand macros inside a pragma payload (e.g. ``#pragma unroll BS``)."""

    if token.kind is not TokenKind.PRAGMA:
        return token
    payload_tokens = _expand(_lex_line(token.text, token.location.line,
                                       token.location.filename), macros)
    text = " ".join(t.text for t in payload_tokens)
    return Token(TokenKind.PRAGMA, text, token.location)


def _handle_directive(stripped: str, line_no: int, filename: str,
                      macros: dict[str, list[Token]], forced: Mapping[str, str],
                      tokens: list[Token]) -> None:
    location = SourceLocation(line_no, 1, filename)
    body = stripped[1:].strip()
    if body.startswith("pragma"):
        payload = body[len("pragma"):].strip()
        tokens.append(Token(TokenKind.PRAGMA, payload, location))
    elif body.startswith("define"):
        rest = body[len("define"):].strip()
        match = re.match(r"([A-Za-z_][A-Za-z_0-9]*)(\(?)\s*(.*)", rest)
        if not match:
            raise LexError(f"malformed #define: {stripped!r}", location)
        name, paren, replacement = match.groups()
        if paren:
            raise LexError("function-like macros are not supported", location)
        if name not in forced:
            macros[name] = _lex_line(replacement, line_no, filename)
    elif body.startswith("include"):
        pass  # kernels are self-contained; includes are documentation only
    else:
        raise LexError(f"unsupported preprocessor directive: {stripped!r}", location)


def _lex_line(line: str, line_no: int, filename: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(line):
        match = _TOKEN_RE.match(line, pos)
        location = SourceLocation(line_no, pos + 1, filename)
        if match is None:
            raise LexError(f"unexpected character {line[pos]!r}", location)
        pos = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        text = match.group()
        if match.lastgroup == "float":
            literal = text.rstrip("fF")
            tokens.append(Token(TokenKind.FLOAT_LIT, text, location, float(literal)))
        elif match.lastgroup == "int":
            tokens.append(Token(TokenKind.INT_LIT, text, location, int(text, 0)))
        elif match.lastgroup == "ident":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, location))
        else:
            tokens.append(Token(TokenKind.PUNCT, text, location))
    return tokens


def _expand(tokens: Iterable[Token], macros: Mapping[str, list[Token]],
            depth: int = 0) -> list[Token]:
    if depth > 16:
        raise LexError("macro expansion too deep (recursive #define?)")
    out: list[Token] = []
    changed = False
    for token in tokens:
        if token.kind is TokenKind.IDENT and token.text in macros:
            changed = True
            for rep in macros[token.text]:
                out.append(Token(rep.kind, rep.text, token.location, rep.value))
        else:
            out.append(token)
    if changed:
        return _expand(out, macros, depth + 1)
    return out
