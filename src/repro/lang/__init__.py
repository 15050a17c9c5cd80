"""PPS-C frontend: lexer, parser and semantic checks.

The usual entry point is :func:`compile_source`, which lexes, parses, and
semantically validates a PPS-C translation unit.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import (
    FrontendError,
    LexError,
    ParseError,
    SemanticError,
    SourceLocation,
)
from repro.lang.intrinsics import INTRINSICS, Effect, Intrinsic, get_intrinsic, is_intrinsic
from repro.lang.lexer import Lexer, tokenize
from repro.lang.parser import Parser, parse
from repro.lang.sema import SemanticChecker, check


def compile_source(source: str, filename: str = "<pps-c>") -> ast.Program:
    """Lex, parse, and semantically validate a PPS-C translation unit."""
    return check(parse(source, filename))


__all__ = [
    "INTRINSICS",
    "Effect",
    "FrontendError",
    "Intrinsic",
    "LexError",
    "Lexer",
    "ParseError",
    "Parser",
    "SemanticChecker",
    "SemanticError",
    "SourceLocation",
    "ast",
    "check",
    "compile_source",
    "get_intrinsic",
    "is_intrinsic",
    "parse",
    "tokenize",
]
