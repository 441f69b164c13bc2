"""Lexer for the C subset used throughout the reproduction.

The lexer turns raw source text into a stream of :class:`Token` objects
carrying kind, text, line and column.  It is deliberately forgiving: any
byte sequence lexes (unknown characters become ``ERROR`` tokens) so that
property-based tests can throw arbitrary input at it, and so that the
lexical baseline scanners (flawfinder/RATS simulacra) can scan code the
parser does not fully support.  :func:`tokenize` is one compiled scan.
"""

from __future__ import annotations

import enum
import re

__all__ = ["TokenKind", "Token", "tokenize", "KEYWORDS"]


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    COMMENT = "comment"
    ERROR = "error"
    EOF = "eof"


#: C keywords recognised by the frontend (C99 subset plus common extensions).
KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
        "bool", "true", "false", "NULL", "size_t", "ssize_t", "uint8_t",
        "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t",
        "int32_t", "int64_t", "wchar_t",
    }
)

# Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}", "#",
]


class Token:
    """A single lexical token.

    Attributes:
        kind: lexical category.
        text: exact source text of the token.
        line: 1-based line number of the first character.
        col: 1-based column number of the first character.

    ``__slots__``, not a frozen dataclass: making tokens is half the
    lexer's cost.  Never mutated; equality and hash use all four fields.
    """

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: TokenKind, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.text, self.line, self.col) == \
            (other.kind, other.text, other.line, other.col)

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.line, self.col))

    def is_keyword(self, *names: str) -> bool:
        """Return True when the token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, *names: str) -> bool:
        """Return True when the token is one of the given punctuators."""
        return self.kind is TokenKind.PUNCT and self.text in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"


# One alternative per token kind, tried in the original per-character
# dispatch order.  ``{alpha}``/``{digit}`` hold the ``str.isalpha``/
# ``str.isdigit`` characters; ``\w`` and ``[^\W_]`` are exactly
# ``str.isalnum`` (plus ``_``), what identifiers and hex digits continue
# with.  A literal ends at its quote, an unescaped newline or the end of
# input; a backslash escapes any next character, newline included.
_TEMPLATE = r"""
 (?P<SPACE>[ \t\r\n\f\v]+)
|(?P<COMMENT>//[^\n]*|/\*.*?(?:\*/|\Z))
|(?P<IDENT>[{alpha}_]\w*)
|(?P<NUMBER>0[xX][^\W_]*
  |(?:[{digit}]+(?:\.[{digit}]*)?|\.[{digit}]+)(?:[eE][+-]?[{digit}]+)?[uUlLfF]*)
|(?P<STRING>"(?:[^"\\\n]+|\\.?)*"?)
|(?P<CHAR>'(?:[^'\\\n]+|\\.?)*'?)
|(?P<PUNCT>{punct})
|(?P<ERROR>.)
"""

_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _pattern(alpha: str = "", digit: str = "") -> re.Pattern[str]:
    """The master pattern, with extra identifier-start and digit
    characters (``re`` caches compiled patterns by their text)."""
    return re.compile(_TEMPLATE.format(
        alpha="A-Za-z" + alpha, digit="0-9" + digit,
        punct="|".join(map(re.escape, _PUNCTUATORS))), re.S | re.X)


_ASCII_PATTERN = _pattern()


def _pattern_for(source: str) -> re.Pattern[str]:
    """The ASCII pattern, or one whose classes also hold the text's
    non-ASCII letters and digits (``str.isalpha``/``isdigit``, which
    ``\\w``/``\\d`` only approximate: ``'²'`` starts a number and
    ``'½'`` is an error token)."""
    if source.isascii():
        return _ASCII_PATTERN
    chars = sorted(set(_NON_ASCII.findall(source)))
    alpha = "".join(c for c in chars if c.isalpha())
    digit = "".join(c for c in chars if c.isdigit())
    return _pattern(alpha, digit) if alpha or digit else _ASCII_PATTERN


_KINDS = {kind.name: kind for kind in TokenKind}


def tokenize(source: str, *, keep_comments: bool = False) -> list[Token]:
    """Tokenize ``source`` into a list ending with an EOF token.

    Any text lexes: a character no token starts with becomes a
    one-character ``ERROR`` token, and unterminated comments and
    literals end at the end of input (literals also at a newline).

    Args:
        source: C source text.
        keep_comments: when False (default) COMMENT tokens are dropped.
    """
    tokens: list[Token] = []
    append = tokens.append
    ident, keyword, comment = (TokenKind.IDENT, TokenKind.KEYWORD,
                               TokenKind.COMMENT)
    line, line_start = 1, 0
    for match in _pattern_for(source).finditer(source):
        name = match.lastgroup
        text = match.group()
        if name == "SPACE":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        start = match.start()
        kind = _KINDS[name]
        if kind is ident and text in KEYWORDS:
            kind = keyword
        if kind is not comment or keep_comments:
            append(Token(kind, text, line, start - line_start + 1))
        if "\n" in text:  # a comment or literal spanning lines
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
