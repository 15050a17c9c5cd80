"""One-scan lexer for PPS-C.

One compiled pattern (``_TOKEN``) matches a lexeme together with the
trivia in front of it (blanks, ``//`` and ``/* */`` comments), and
``Lexer.tokenize`` takes every match of a source with a single
``findall``: the regular-expression engine, not a Python loop, walks the
characters.  A lexeme is an identifier or keyword, a hexadecimal
(``0x``), octal (leading ``0``) or decimal literal, a character literal or
an operator.  The pattern's last alternative takes one character none of
those accounts for, or nothing at the end of the source, so the matches
tile the source and a lexeme's offset is the sum of the lengths before
it.  Line and column come from a running ``line`` / ``line_start`` pair
that only trivia can move.  The lexical grammar is ASCII: a non-ASCII
character outside a comment or a character literal is an ``unexpected
character`` error, never a digit or a letter.  Diagnostics are
hand-written and run only at the character the pattern could not account
for.

An integer literal's value is the 32-bit word it spells, read as signed
two's complement — ``0xFFFFFFFF`` is -1, as the same bits computed at run
time are — and a literal above ``0xFFFFFFFF`` is an error at that literal.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_SIMPLE_ESCAPES = {
    "n": ord("\n"),
    "t": ord("\t"),
    "r": ord("\r"),
    "0": 0,
    "\\": ord("\\"),
    "'": ord("'"),
    '"': ord('"'),
}

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    ("<<=", TokenKind.LSHIFT_ASSIGN),
    (">>=", TokenKind.RSHIFT_ASSIGN),
    ("<<", TokenKind.LSHIFT),
    (">>", TokenKind.RSHIFT),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.AND_AND),
    ("||", TokenKind.OR_OR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.BAR_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    (":", TokenKind.COLON),
    ("?", TokenKind.QUESTION),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.BAR),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("!", TokenKind.BANG),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
]

# The lexemes whose text alone names their kind.
_KINDS = {**KEYWORDS, **dict(_OPERATORS)}

# Groups: trivia, lexeme, and the one character no lexeme starts at
# (empty at the end of the source).  A literal must not run into a letter,
# digit or underscore (``123abc``, ``09``): the lookahead makes such text
# no lexeme.  ``/*`` never lexes as ``/`` then ``*``: when the trivia did
# not take it, the comment has no end.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*)"
    r"(?:([A-Za-z_][A-Za-z0-9_]*"
    r"|(?:0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)(?![A-Za-z0-9_])"
    r"|'(?:[^\\\n]|\\[ntr0\\'\"])'"
    r"|(?!/\*)(?:" + "|".join(re.escape(text) for text, _ in _OPERATORS)
    + r"))|((?s:.)?))")
_BAD_NUMBER = re.compile(r"(0[xX][0-9a-fA-F]*|[0-9]+)[A-Za-z_]?")


class Lexer:
    """Converts PPS-C source text into a token stream."""

    def __init__(self, source: str, filename: str = "<pps-c>"):
        self._source = source
        self._filename = filename

    def tokenize(self) -> list[Token]:
        """Lex the whole buffer, returning tokens ending with an EOF token."""
        filename = self._filename
        kinds = _KINDS
        ident, int_lit = TokenKind.IDENT, TokenKind.INT_LIT
        # ``tuple.__new__`` is what a NamedTuple's own constructor ends
        # in, without the Python-level call in front of it.
        new = tuple.__new__
        tokens = []
        pos, line, line_start = 0, 1, 0
        for trivia, text, other in _TOKEN.findall(self._source):
            if trivia:
                if "\n" in trivia:
                    line += trivia.count("\n")
                    line_start = pos + trivia.rindex("\n") + 1
                pos += len(trivia)
            location = new(SourceLocation,
                           (filename, line, pos - line_start + 1))
            if not text:
                if other:
                    raise self._diagnose(pos, location)
                break
            kind = kinds.get(text)
            if kind is not None:
                tokens.append(new(Token, (kind, text, location, None)))
            elif text[0] > "9":
                tokens.append(new(Token, (ident, text, location, None)))
            else:
                tokens.append(new(Token, (int_lit, text, location,
                                          _literal_value(text, location))))
            pos += len(text)
        tokens.append(new(Token, (TokenKind.EOF, "", location, None)))
        return tokens

    # ------------------------------------------------------------------

    def _diagnose(self, pos: int, location: SourceLocation) -> LexError:
        """The error for text at ``pos`` that starts no lexeme."""
        source = self._source
        if source[pos] == "'":
            char = source[pos + 1 : pos + 2]
            if char == "\\":
                escape = source[pos + 2 : pos + 3]
                if escape not in _SIMPLE_ESCAPES:
                    return LexError(f"unknown escape \\{escape}", location)
            return LexError("unterminated character literal", location)
        if source.startswith("/*", pos):
            return LexError("unterminated block comment", location)
        number = _BAD_NUMBER.match(source, pos)
        if number is None:
            return LexError(f"unexpected character {source[pos]!r}", location)
        if number.group(1) in ("0x", "0X"):
            return LexError("malformed hexadecimal literal", location)
        return LexError(f"malformed number {number.group()!r}", location)


def _literal_value(text: str, location: SourceLocation) -> int:
    """The signed 32-bit word a character or integer literal spells."""
    if text[0] == "'":
        return _SIMPLE_ESCAPES[text[2]] if text[1] == "\\" else ord(text[1])
    if text[0] != "0":
        # No leading zeros: past ten digits is past 32 bits (and ``int``
        # refuses a long enough decimal string outright).
        value = int(text) if len(text) <= 10 else None
    elif text[1:2] in ("x", "X"):
        value = int(text, 16)
    else:
        value = int(text, 8)
    if value is None or value > 0xFFFFFFFF:
        raise LexError("integer literal wider than 32 bits", location)
    return value - (1 << 32) if value > 0x7FFFFFFF else value


def tokenize(source: str, filename: str = "<pps-c>") -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokenize()
