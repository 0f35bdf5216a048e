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
from typing import Mapping, NamedTuple, Optional, Union

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

# The tokens of a source.  Blanks and one-line comments match no named
# group, so they build nothing; a ``/* */`` comment that spans lines is a
# ``block`` (the lexer counts its newlines), and a ``/*`` with no ``*/``
# after it is ``unterminated``; ``bad`` is any other character.
# Identifiers come first as the commonest token, and no other token
# starts like one.
_LINE_PATTERN = r"""
    (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | [ \t\r]+ | //[^\n]* | /\*[^\n]*?\*/
  | (?P<block>/\*[\s\S]*?\*/) | (?P<unterminated>/\*)
  | (?P<float>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?|\d+[fF])
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<punct>""" + "|".join(re.escape(p) for p in _PUNCTS) + r""")
  | (?P<newline>\n)
  | (?P<bad>[\s\S])"""
#: a line-free text: a ``#define`` body, a pragma payload, a define value
_TEXT_RE = re.compile(_LINE_PATTERN, re.VERBOSE)
#: a whole source, where a line whose first non-blank is ``#`` is a directive
_SOURCE_RE = re.compile(r"(?P<directive>^[^\S\n]*\#[^\n]*) |" + _LINE_PATTERN,
                        re.VERBOSE | re.MULTILINE)
_DEFINE_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(\(?)\s*(.*)")

#: how deep macro bodies may nest (a recursive ``#define`` never ends)
_MAX_EXPANSION_DEPTH = 16


class Token(NamedTuple):
    """One lexical token."""

    kind: TokenKind
    text: str
    location: SourceLocation
    value: Optional[Union[int, float]] = None

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

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
        tokens = _lex(_SOURCE_RE, source, 1, filename, macros, forced)
        for name, text in forced.items():
            macros[name] = _lex(_TEXT_RE, text, 0, f"<define:{name}>")
        expand = _Expander(macros).expand
        expanded = expand(tokens)
        # A pragma payload is lexed, and its macros (``#pragma unroll BS``)
        # expanded, only after the code's, so that an error in the code is
        # reported before one in a payload.
        for index, token in enumerate(expanded):
            if token.kind is TokenKind.PRAGMA:
                payload = _lex(_TEXT_RE, token.text, token.location.line,
                               filename)
                expanded[index] = Token(
                    TokenKind.PRAGMA, " ".join(t.text for t in expand(payload)),
                    token.location)
        expanded.append(Token(TokenKind.EOF, "", SourceLocation(
            source.count("\n") + 1, 1, filename)))
        telemetry.add("frontend.tokens", len(expanded))
        return expanded


def _lex(pattern: re.Pattern, text: str, line: int, filename: str,
         macros: Optional[dict[str, list[Token]]] = None,
         forced: Optional[Mapping[str, str]] = None) -> list[Token]:
    """The tokens of ``text``, in one scan.

    ``line`` numbers the first line, and columns count from the start of
    each line.  A whole source (``_SOURCE_RE``) also runs its directives:
    ``#define`` lines fill ``macros`` unless ``forced`` names the macro.
    """

    tokens: list[Token] = []
    new = tuple.__new__  # skips the named tuples' Python-level __new__
    ident, keyword, punct = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
    append = tokens.append
    line_start = 0
    for match in pattern.finditer(text):
        group = match.lastgroup
        if group is None:
            continue
        if group == "ident":
            word = match.group()
            append(new(Token, (keyword if word in KEYWORDS else ident, word,
                               new(SourceLocation, (line, match.start()
                                                    - line_start + 1, filename)),
                               None)))
        elif group == "punct":
            append(new(Token, (punct, match.group(),
                               new(SourceLocation, (line, match.start()
                                                    - line_start + 1, filename)),
                               None)))
        elif group == "newline":
            line += 1
            line_start = match.end()
        else:
            word = match.group()
            location = SourceLocation(line, match.start() - line_start + 1,
                                      filename)
            if group == "int":
                append(Token(TokenKind.INT_LIT, word, location,
                             _int_value(word, location)))
            elif group == "float":
                append(Token(TokenKind.FLOAT_LIT, word, location,
                             float(word.rstrip("fF"))))
            elif group == "directive":
                _directive(word.lstrip(), SourceLocation(line, 1, filename),
                           macros, forced, tokens)
            elif group == "block":
                line += word.count("\n")
                line_start = match.start() + word.rindex("\n") + 1
            elif group == "unterminated":
                raise LexError("unterminated /* comment", location)
            else:
                raise LexError(f"unexpected character {word!r}", location)
    return tokens


def _int_value(text: str, location: SourceLocation) -> int:
    """The value of an integer literal; a leading ``0`` makes it octal, as in C."""

    octal = len(text) > 1 and text[0] == "0" and text[1] not in "xX"
    try:
        return int(text, 8 if octal else 0)
    except ValueError:  # an 8 or 9 in an octal literal, or too many digits
        raise LexError(f"invalid {'octal' if octal else 'integer'} literal "
                       f"{text!r}", location) from None


def _directive(stripped: str, location: SourceLocation,
               macros: dict[str, list[Token]], forced: Mapping[str, str],
               tokens: list[Token]) -> None:
    body = stripped[1:].strip()
    if body.startswith("pragma"):
        tokens.append(Token(TokenKind.PRAGMA, body[len("pragma"):].strip(),
                            location))
    elif body.startswith("define"):
        rest = body[len("define"):].strip()
        match = _DEFINE_RE.match(rest)
        if not match:
            raise LexError(f"malformed #define: {stripped!r}", location)
        name, paren, replacement = match.groups()
        if paren:
            raise LexError("function-like macros are not supported", location)
        if name not in forced:
            macros[name] = _lex(_TEXT_RE, replacement, location.line,
                                location.filename)
    elif body.startswith("include"):
        pass  # kernels are self-contained; includes are documentation only
    else:
        raise LexError(f"unsupported preprocessor directive: {stripped!r}", location)


class _Expander:
    """Object-like macro expansion, each macro's body expanded once.

    A token naming a macro becomes that body, each replacement token
    carrying the name's location; every other token is kept as it is.
    """

    def __init__(self, macros: Mapping[str, list[Token]]):
        self.macros = macros
        #: name -> (fully expanded body, nesting depth)
        self.bodies: dict[str, tuple[list[Token], int]] = {}
        self.active: set[str] = set()

    def expand(self, tokens: list[Token]) -> list[Token]:
        macros = self.macros
        ident = TokenKind.IDENT
        out: list[Token] = []
        done = 0
        for index in [i for i, t in enumerate(tokens)
                      if t.kind is ident and t.text in macros]:
            out += tokens[done:index]
            location = tokens[index].location
            out += [Token(rep.kind, rep.text, location, rep.value)
                    for rep in self._body(tokens[index].text)[0]]
            done = index + 1
        out += tokens[done:]
        return out

    def _body(self, name: str) -> tuple[list[Token], int]:
        known = self.bodies.get(name)
        if known is not None:
            return known
        if name in self.active:
            raise LexError("macro expansion too deep (recursive #define?)")
        self.active.add(name)
        body: list[Token] = []
        depth = 0
        for rep in self.macros[name]:
            if rep.kind is TokenKind.IDENT and rep.text in self.macros:
                inner, inner_depth = self._body(rep.text)
                body.extend(inner)
                depth = max(depth, inner_depth)
            else:
                body.append(rep)
        self.active.discard(name)
        depth += 1
        if depth > _MAX_EXPANSION_DEPTH:
            raise LexError("macro expansion too deep (recursive #define?)")
        self.bodies[name] = (body, depth)
        return body, depth
