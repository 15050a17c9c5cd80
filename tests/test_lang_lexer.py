"""Unit tests for the PPS-C lexer."""

import hashlib
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [token.kind for token in tokenize(source)]


def test_empty_source_yields_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


def test_identifiers_and_keywords():
    tokens = tokenize("int foo while whilex _bar pps")
    assert [t.kind for t in tokens[:-1]] == [
        TokenKind.KW_INT,
        TokenKind.IDENT,
        TokenKind.KW_WHILE,
        TokenKind.IDENT,
        TokenKind.IDENT,
        TokenKind.KW_PPS,
    ]
    assert tokens[1].text == "foo"
    assert tokens[3].text == "whilex"


def test_decimal_hex_octal_literals():
    tokens = tokenize("42 0x1F 0755 0")
    assert [t.value for t in tokens[:-1]] == [42, 31, 493, 0]


def test_char_literals():
    tokens = tokenize(r"'a' '\n' '\\' '\0'")
    assert [t.value for t in tokens[:-1]] == [ord("a"), 10, 92, 0]


def test_malformed_number_rejected():
    with pytest.raises(LexError):
        tokenize("123abc")


def test_malformed_hex_rejected():
    with pytest.raises(LexError):
        tokenize("0x")


def test_maximal_munch_operators():
    assert kinds("<<= << <= <")[:-1] == [
        TokenKind.LSHIFT_ASSIGN,
        TokenKind.LSHIFT,
        TokenKind.LE,
        TokenKind.LT,
    ]
    assert kinds("a+++b")[:-1] == [
        TokenKind.IDENT,
        TokenKind.PLUS_PLUS,
        TokenKind.PLUS,
        TokenKind.IDENT,
    ]


def test_line_and_block_comments_skipped():
    source = """
    a // trailing comment
    /* block
       comment */ b
    """
    tokens = tokenize(source)
    assert [t.text for t in tokens[:-1]] == ["a", "b"]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_unterminated_char_rejected():
    with pytest.raises(LexError):
        tokenize("'a")


def test_unknown_character_rejected():
    with pytest.raises(LexError):
        tokenize("int @")


def test_locations_track_lines_and_columns():
    tokens = tokenize("a\n  b")
    assert tokens[0].location.line == 1
    assert tokens[0].location.column == 1
    assert tokens[1].location.line == 2
    assert tokens[1].location.column == 3


def test_all_operator_lexemes_roundtrip():
    # Every operator in the table lexes to its own kind.
    from repro.lang.lexer import _OPERATORS

    for text, kind in _OPERATORS:
        tokens = tokenize(f" {text} ")
        assert tokens[0].kind is kind, text
        assert tokens[0].text == text


# -- the pattern-driven lexer keeps the hand-written one's tokens (ISSUE 20) ---


def _digest(sources):
    """SHA-256 over everything a token carries, source after source."""
    digest = hashlib.sha256()
    for source in sources:
        digest.update(repr([
            (t.kind.name, t.text, t.location.line, t.location.column, t.value)
            for t in tokenize(source)]).encode())
    return digest.hexdigest()


def _suite_sources():
    from repro.apps.suite import build_app

    return [build_app(name, packets=8).source for name in
            ("rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx")]


def _example_sources():
    examples = pathlib.Path(__file__).resolve().parent.parent / "examples"
    return [path.read_text(encoding="utf-8")
            for path in sorted(examples.glob("*.ppc"))]


def _progen_sources():
    from repro.testing.progen import random_pps_source

    return [random_pps_source(seed) for seed in range(300)]


# Digests computed with the character-at-a-time lexer of the parent commit.
@pytest.mark.parametrize("sources, digest", [
    (_suite_sources,
     "1910a1bfd8ab3fb261a38108a51110f501c047dcbf29bea7b16afb818b525667"),
    (_example_sources,
     "47a5566d2fca6efd4fe8443af05c228bada1c8e6f29832132522d542618dbcfb"),
    (_progen_sources,
     "a0786c993d6b09159ed95ce4d468ce32d9dcef7f3345346edf60bc9f464d324c"),
], ids=["suite", "examples", "progen"])
def test_token_streams_match_the_pinned_digest(sources, digest):
    assert _digest(sources()) == digest


#: Every diagnostic the lexer has: source, message, line:column.  All but
#: the last four rows read the same at the parent commit; those four were
#: a bare ValueError there (``int()`` on what ``str.isdigit`` let in).
LEX_ERRORS = [
    ("/* never", "unterminated block comment", "1:1"),
    ("/*/", "unterminated block comment", "1:1"),
    ("a\n /* x", "unterminated block comment", "2:2"),
    ("'a", "unterminated character literal", "1:1"),
    ("'", "unterminated character literal", "1:1"),
    ("''", "unterminated character literal", "1:1"),
    ("'\n'", "unterminated character literal", "1:1"),
    (r"'\q'", r"unknown escape \q", "1:1"),
    ("'\\", "unknown escape \\", "1:1"),
    ("0x", "malformed hexadecimal literal", "1:1"),
    ("0xZ", "malformed hexadecimal literal", "1:1"),
    ("123abc", "malformed number '123a'", "1:1"),
    ("0x1F_", "malformed number '0x1F_'", "1:1"),
    ("int @", "unexpected character '@'", "1:5"),
    ("09_", "malformed number '09_'", "1:1"),
    ("x = 09;", "malformed number '09'", "1:5"),
    ("²", "unexpected character '²'", "1:1"),
    ("x = ²;", "unexpected character '²'", "1:5"),
]


@pytest.mark.parametrize("source, message, where", LEX_ERRORS)
def test_every_lex_error_names_its_cause_and_place(source, message, where):
    with pytest.raises(LexError) as excinfo:
        tokenize(source, "f.ppc")
    assert excinfo.value.message == message
    assert str(excinfo.value.location) == f"f.ppc:{where}"


@pytest.mark.parametrize("source", ["١٢", "é", "x = café;", "\u00a0"])
def test_the_lexical_grammar_is_ascii(source):
    # str.isdigit / isalpha / isalnum admit these; the grammar does not.
    with pytest.raises(LexError, match="unexpected character"):
        tokenize(source)


def test_non_ascii_text_inside_comments_is_skipped():
    tokens = tokenize("a // naïve — ²\n/* ü\n١٢ */ b")
    assert [(t.text, t.location.line, t.location.column)
            for t in tokens[:-1]] == [("a", 1, 1), ("b", 3, 7)]


def test_token_text_is_the_source_lexeme_for_escapes_too():
    tokens = tokenize(r"'\n' '\\' '\'' 'a' '''")
    assert [t.text for t in tokens[:-1]] == \
        [r"'\n'", r"'\\'", r"'\''", "'a'", "'''"]
    assert [t.value for t in tokens[:-1]] == [10, 92, 39, 97, 39]
    assert [t.location.column for t in tokens] == [1, 6, 11, 16, 20, 23]


_LEXEMES = st.one_of(
    st.sampled_from(["x", "_tmp9", "int", "while", "pps", "whilex"]),
    st.sampled_from(["0", "7", "42", "0755", "0x1F", "0XaB"]),
    st.sampled_from(["'a'", r"'\n'", r"'\\'", "'''", "'/'"]),
    st.sampled_from(["<<=", ">>", "/", "/=", "*", "++", "-", "?", "~"]),
)
_COMMENT_TEXT = st.text(alphabet="ab 1*/'é—", max_size=8).map(
    lambda text: text.replace("*/", "* /"))
# A separator starts with a blank: glued to a "/" token, a comment
# opener would otherwise read as a different comment.
_TRIVIA = st.builds(
    lambda blank, pieces: blank + "".join(pieces),
    st.sampled_from([" ", "\n", "\t", "\r\n"]),
    st.lists(st.one_of(
        st.sampled_from([" ", "\n", "\t", "  \n "]),
        _COMMENT_TEXT.map(lambda text: f"//{text}\n"),
        st.tuples(_COMMENT_TEXT, _COMMENT_TEXT).map(
            lambda pair: f"/*{pair[0]}\n{pair[1]}*/"),
        _COMMENT_TEXT.map(lambda text: f"/*{text}*/"),
    ), max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TRIVIA, _LEXEMES), max_size=12), _TRIVIA)
def test_every_token_is_located_at_its_own_text(pairs, tail):
    source = "".join(trivia + lexeme for trivia, lexeme in pairs) + tail
    lines = source.split("\n")
    tokens = tokenize(source)
    assert [t.text for t in tokens] == [lexeme for _, lexeme in pairs] + [""]
    for token in tokens:
        line, column = token.location.line, token.location.column
        assert lines[line - 1][column - 1:].startswith(token.text), token
    end = tokens[-1].location
    assert (end.line, end.column) == (len(lines), len(lines[-1]) + 1)
