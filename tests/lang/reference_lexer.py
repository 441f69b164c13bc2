"""Reference oracle for the differential lexer tests.

:class:`Lexer` is the frontend's original per-character lexer, kept
verbatim: ``repro.lang.lexer.tokenize`` must yield exactly its token
stream for any input.  :func:`reference_brace_ranges` is the original
per-character brace matcher of Algorithm 1 (lines 15-18), which the
token-derived brace pairs must reproduce.
"""

from __future__ import annotations

from typing import Iterator

from repro.lang.lexer import _PUNCTUATORS, KEYWORDS, Token, TokenKind


def reference_tokenize(source: str, *,
                       keep_comments: bool = False) -> list[Token]:
    """The original ``tokenize``: :class:`Lexer` plus comment filter."""
    toks = list(Lexer(source).tokens())
    if not keep_comments:
        toks = [t for t in toks if t.kind is not TokenKind.COMMENT]
    return toks


class Lexer:
    """Streaming lexer over a source string.

    Comments are produced as ``COMMENT`` tokens so callers interested in
    raw text (e.g. the clone-detection baseline) can see them; the parser
    filters them out.
    """

    def __init__(self, source: str):
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._src[index] if index < len(self._src) else ""

    def _advance(self, count: int = 1) -> str:
        taken = self._src[self._pos : self._pos + count]
        for ch in taken:
            if ch == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
        self._pos += count
        return taken

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, ending with a single EOF."""
        while self._pos < len(self._src):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
                continue
            line, col = self._line, self._col
            if ch == "/" and self._peek(1) == "/":
                yield Token(TokenKind.COMMENT, self._line_comment(), line, col)
            elif ch == "/" and self._peek(1) == "*":
                yield Token(TokenKind.COMMENT, self._block_comment(), line, col)
            elif ch.isalpha() or ch == "_":
                text = self._identifier()
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                yield Token(kind, text, line, col)
            elif ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                yield Token(TokenKind.NUMBER, self._number(), line, col)
            elif ch == '"':
                yield Token(TokenKind.STRING, self._quoted('"'), line, col)
            elif ch == "'":
                yield Token(TokenKind.CHAR, self._quoted("'"), line, col)
            else:
                punct = self._punctuator()
                if punct is not None:
                    yield Token(TokenKind.PUNCT, punct, line, col)
                else:
                    yield Token(TokenKind.ERROR, self._advance(), line, col)
        yield Token(TokenKind.EOF, "", self._line, self._col)

    def _line_comment(self) -> str:
        start = self._pos
        while self._pos < len(self._src) and self._peek() != "\n":
            self._advance()
        return self._src[start : self._pos]

    def _block_comment(self) -> str:
        start = self._pos
        self._advance(2)
        while self._pos < len(self._src):
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance(2)
                break
            self._advance()
        return self._src[start : self._pos]

    def _identifier(self) -> str:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return self._src[start : self._pos]

    def _peek_in(self, chars: str, offset: int = 0) -> bool:
        """Membership test that is False at end of input ('' is a
        substring of everything, so a bare `in` check would loop)."""
        ch = self._peek(offset)
        return bool(ch) and ch in chars

    def _number(self) -> str:
        start = self._pos
        if self._peek() == "0" and self._peek_in("xX", 1):
            self._advance(2)
            while self._peek().isalnum():
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek_in("eE") and (
                self._peek(1).isdigit()
                or (self._peek_in("+-", 1) and self._peek(2).isdigit())
            ):
                self._advance()
                if self._peek_in("+-"):
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        # Integer/float suffixes (u, l, f combinations).
        while self._peek_in("uUlLfF"):
            self._advance()
        return self._src[start : self._pos]

    def _quoted(self, quote: str) -> str:
        start = self._pos
        self._advance()  # opening quote
        while self._pos < len(self._src) and self._peek() != quote:
            if self._peek() == "\\" and self._pos + 1 < len(self._src):
                self._advance(2)
            elif self._peek() == "\n":
                break  # unterminated literal: stop at end of line
            else:
                self._advance()
        if self._peek() == quote:
            self._advance()
        return self._src[start : self._pos]

    def _punctuator(self) -> str | None:
        for punct in _PUNCTUATORS:
            if self._src.startswith(punct, self._pos):
                self._advance(len(punct))
                return punct
        return None


def reference_brace_ranges(source_lines: list[str]) -> list[tuple[int, int]]:
    """Match ``{``/``}`` pairs with a stack (Algorithm 1 lines 15-18).

    Returns (open_line, close_line) pairs, 1-based.  String/char
    literals and comments are skipped so braces inside them don't break
    the match.
    """
    pairs: list[tuple[int, int]] = []
    stack: list[int] = []
    in_block_comment = False
    for line_no, raw in enumerate(source_lines, start=1):
        index = 0
        in_string: str | None = None
        while index < len(raw):
            char = raw[index]
            if in_block_comment:
                if raw.startswith("*/", index):
                    in_block_comment = False
                    index += 2
                    continue
                index += 1
                continue
            if in_string is not None:
                if char == "\\":
                    index += 2
                    continue
                if char == in_string:
                    in_string = None
                index += 1
                continue
            if raw.startswith("//", index):
                break
            if raw.startswith("/*", index):
                in_block_comment = True
                index += 2
                continue
            if char in "\"'":
                in_string = char
            elif char == "{":
                stack.append(line_no)
            elif char == "}" and stack:
                pairs.append((stack.pop(), line_no))
            index += 1
    return pairs
