"""Diagnostics for the PPS-C frontend.

Every front-end failure is reported as a :class:`FrontendError` carrying a
:class:`SourceLocation` so that callers (and tests) can pinpoint the exact
offending token.  The location is rendered GNU-style (``file:line:col``).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ReproError


class SourceLocation(NamedTuple):
    """A position in a PPS-C source buffer: an immutable, hashable tuple
    (the lexer makes one per token).

    Attributes:
        filename: Name used in diagnostics (not necessarily a real file).
        line: 1-based line number.
        column: 1-based column number.
    """

    filename: str = "<pps-c>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


UNKNOWN_LOCATION = SourceLocation("<unknown>", 0, 0)


class FrontendError(ReproError):
    """Base class for all PPS-C front-end diagnostics."""

    def __init__(self, message: str, location: SourceLocation = UNKNOWN_LOCATION):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location

    def __reduce__(self):
        return type(self), (self.message, self.location)


class LexError(FrontendError):
    """An unrecognised or malformed token."""


class ParseError(FrontendError):
    """A syntax error."""


class SemanticError(FrontendError):
    """A name-resolution or type error."""
