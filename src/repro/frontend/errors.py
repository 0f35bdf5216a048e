"""Diagnostic types for the mini-C frontend."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["SourceLocation", "FrontendError", "LexError", "ParseError", "SemaError"]


class SourceLocation(NamedTuple):
    """A position in the input source (1-based line and column).

    A named tuple: the lexer builds one per token, and a tuple is the
    cheapest immutable record Python builds.
    """

    line: int
    column: int
    filename: str = "<source>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class FrontendError(Exception):
    """Base class for all frontend diagnostics."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        self.message = message
        prefix = f"{location}: " if location is not None else ""
        super().__init__(prefix + message)


class LexError(FrontendError):
    """Invalid character or token."""


class ParseError(FrontendError):
    """Syntactically invalid input."""


class SemaError(FrontendError):
    """Semantically invalid input (types, scopes, unsupported constructs)."""
