"""Pattern-driven lexer for PPS-C.

One compiled pattern (``_TOKEN``) names every lexeme the good path can
meet — a run of trivia (blanks, ``//`` and ``/* */`` comments), an
identifier, a hexadecimal (``0x``), octal (leading ``0``) or decimal
literal, an operator — and ``Lexer.tokenize`` is a single
``_TOKEN.match(source, pos)`` loop over it.  Line and column come from a
running ``line`` / ``line_start`` pair that only trivia can move.  The
lexical grammar is ASCII: a non-ASCII character outside a comment is an
``unexpected character`` error, never a digit or a letter.  Character
literals and every diagnostic are rare and stay hand-written: they run
only where the pattern finds no match.
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

_OPERATOR_KINDS = dict(_OPERATORS)
_RADIX = {"hex": 16, "oct": 8, "dec": 10}

# A literal must not run into a letter, digit or underscore (``123abc``,
# ``09``): the lookaheads make such text match nothing, which sends it to
# ``Lexer._diagnose``.  ``/*`` never lexes as ``/`` then ``*``: when the
# trivia alternative did not take it, the comment has no end.
_TOKEN = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<hex>0[xX][0-9a-fA-F]+(?![A-Za-z0-9_]))"
    r"|(?P<oct>0[0-7]*(?![A-Za-z0-9_]))"
    r"|(?P<dec>[1-9][0-9]*(?![A-Za-z0-9_]))"
    r"|(?P<op>(?!/\*)(?:"
    + "|".join(re.escape(text) for text, _ in _OPERATORS) + "))")
_BAD_NUMBER = re.compile(r"(0[xX][0-9a-fA-F]*|[0-9]+)[A-Za-z_]?")


class Lexer:
    """Converts PPS-C source text into a token stream."""

    def __init__(self, source: str, filename: str = "<pps-c>"):
        self._source = source
        self._filename = filename

    def tokenize(self) -> list[Token]:
        """Lex the whole buffer, returning tokens ending with an EOF token."""
        source, filename = self._source, self._filename
        match = _TOKEN.match
        tokens = []
        pos, line, line_start = 0, 1, 0
        while pos < len(source):
            found = match(source, pos)
            if found is None:
                token = self._lex_char(pos, SourceLocation(
                    filename, line, pos - line_start + 1))
                tokens.append(token)
                pos += len(token.text)
                continue
            group = found.lastgroup
            end = found.end()
            if group == "trivia":
                newlines = source.count("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", pos, end) + 1
            else:
                location = SourceLocation(filename, line, pos - line_start + 1)
                text = found.group()
                if group == "ident":
                    token = Token(KEYWORDS.get(text, TokenKind.IDENT), text,
                                  location)
                elif group == "op":
                    token = Token(_OPERATOR_KINDS[text], text, location)
                else:
                    token = Token(TokenKind.INT_LIT, text, location,
                                  value=int(text, _RADIX[group]))
                tokens.append(token)
            pos = end
        tokens.append(Token(TokenKind.EOF, "", SourceLocation(
            filename, line, pos - line_start + 1)))
        return tokens

    # ------------------------------------------------------------------

    def _diagnose(self, pos: int, location: SourceLocation) -> LexError:
        """The error for text at ``pos`` that is no token."""
        if self._source.startswith("/*", pos):
            return LexError("unterminated block comment", location)
        number = _BAD_NUMBER.match(self._source, pos)
        if number is None:
            return LexError(f"unexpected character {self._source[pos]!r}",
                            location)
        if number.group(1) in ("0x", "0X"):
            return LexError("malformed hexadecimal literal", location)
        return LexError(f"malformed number {number.group()!r}", location)

    def _lex_char(self, pos: int, location: SourceLocation) -> Token:
        """The character literal at ``pos``; anything else there is an
        error (the pattern matched nothing)."""
        source = self._source
        if source[pos] != "'":
            raise self._diagnose(pos, location)
        char = source[pos + 1 : pos + 2]
        if not char or char == "\n":
            raise LexError("unterminated character literal", location)
        close = pos + 2
        if char == "\\":
            escape = source[close : close + 1]
            if escape not in _SIMPLE_ESCAPES:
                raise LexError(f"unknown escape \\{escape}", location)
            value = _SIMPLE_ESCAPES[escape]
            close += 1
        else:
            value = ord(char)
        if source[close : close + 1] != "'":
            raise LexError("unterminated character literal", location)
        return Token(TokenKind.INT_LIT, source[pos : close + 1], location,
                     value=value)


def tokenize(source: str, filename: str = "<pps-c>") -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, filename).tokenize()
