"""Token definitions for the PPS-C language.

PPS-C is the small C dialect accepted by this reproduction's frontend.  It is
a strict subset of C99 statements and expressions over ``int`` scalars and
fixed-size ``int`` arrays, extended with three top-level declarations from
the auto-partitioning programming model of the paper:

* ``pipe NAME;`` — a unidirectional inter-PPS communication channel,
* ``memory NAME[SIZE];`` / ``readonly memory NAME[SIZE];`` — a shared
  memory region (SRAM/DRAM in the paper's IXP model),
* ``pps NAME { ... }`` — a packet processing stage: a function-like body
  whose outermost infinite loop is the *PPS loop* that the pipelining
  transformation partitions.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.lang.errors import SourceLocation


class TokenKind(enum.Enum):
    """Classification of PPS-C tokens."""

    # Literals and identifiers.
    IDENT = "identifier"
    INT_LIT = "integer literal"

    # Keywords.
    KW_INT = "int"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_FOR = "for"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_RETURN = "return"
    KW_PPS = "pps"
    KW_PIPE = "pipe"
    KW_MEMORY = "memory"
    KW_READONLY = "readonly"
    KW_SWITCH = "switch"
    KW_CASE = "case"
    KW_DEFAULT = "default"
    KW_GOTO = "goto"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    COLON = ":"
    QUESTION = "?"

    # Operators.
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    BAR = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    LSHIFT = "<<"
    RSHIFT = ">>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    AND_AND = "&&"
    OR_OR = "||"
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    AMP_ASSIGN = "&="
    BAR_ASSIGN = "|="
    CARET_ASSIGN = "^="
    LSHIFT_ASSIGN = "<<="
    RSHIFT_ASSIGN = ">>="
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"

    EOF = "end of input"


KEYWORDS = {
    "int": TokenKind.KW_INT,
    "void": TokenKind.KW_VOID,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "do": TokenKind.KW_DO,
    "for": TokenKind.KW_FOR,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "return": TokenKind.KW_RETURN,
    "pps": TokenKind.KW_PPS,
    "pipe": TokenKind.KW_PIPE,
    "memory": TokenKind.KW_MEMORY,
    "readonly": TokenKind.KW_READONLY,
    "switch": TokenKind.KW_SWITCH,
    "case": TokenKind.KW_CASE,
    "default": TokenKind.KW_DEFAULT,
    "goto": TokenKind.KW_GOTO,
}

# Compound assignment lexeme -> underlying binary operator lexeme.
COMPOUND_ASSIGN_OPS = {
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
    "&=": "&",
    "|=": "|",
    "^=": "^",
    "<<=": "<<",
    ">>=": ">>",
}


class Token(NamedTuple):
    """A lexed PPS-C token: an immutable, hashable tuple.

    Attributes:
        kind: The token classification.
        text: The exact source lexeme.
        location: Where the token starts.
        value: Decoded value for integer literals — the 32-bit word the
            literal spells, read as signed — else ``None``.
    """

    kind: TokenKind
    text: str
    location: SourceLocation
    value: int | None = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.location})"
