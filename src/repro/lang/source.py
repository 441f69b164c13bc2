"""Source-text helpers shared by the frontend.

The parser does not implement the C preprocessor; instead preprocessor
lines are blanked out *in place* so every remaining token keeps its
original line number — line numbers are load-bearing for slicing and for
Algorithm 1.  A :class:`SourceFile` lexes its raw text once, for the
parser, function fingerprints and brace matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .lexer import Token, TokenKind, tokenize

__all__ = ["strip_preprocessor", "SourceFile"]


def _directive_lines(lines: list[str]) -> list[bool]:
    """Per line, whether :func:`strip_preprocessor` blanks it."""
    blanked: list[bool] = []
    continued = False
    for raw in lines:
        stripped = raw.strip()
        blanked.append(continued or stripped.startswith("#"))
        continued = blanked[-1] and stripped.endswith("\\")
    return blanked


def strip_preprocessor(source: str) -> str:
    """Blank out preprocessor directives while preserving line numbers.

    Handles line continuations (``\\`` at end of a directive line) by
    blanking every continued line as well.
    """
    lines = source.split("\n")
    return "\n".join("" if blank else raw for raw, blank
                     in zip(lines, _directive_lines(lines)))


@dataclass
class SourceFile:
    """A named piece of C source with line access and its tokens.

    The raw text is lexed once, on first use; the stream lives as long
    as the ``SourceFile`` and is never mutated.
    """

    path: str
    text: str
    lines: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.lines = self.text.split("\n")

    def line(self, number: int) -> str:
        """Return the 1-based source line, or '' when out of range."""
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""

    def snippet(self, start: int, end: int) -> str:
        """Return lines ``start``..``end`` inclusive (1-based)."""
        return "\n".join(self.lines[max(0, start - 1) : end])

    @cached_property
    def _lexed(self) -> list[Token]:
        return tokenize(self.text, keep_comments=True)

    @cached_property
    def tokens(self) -> list[Token]:
        """The raw text's stream, comments dropped: ``tokenize(text)``."""
        return [tok for tok in self._lexed
                if tok.kind is not TokenKind.COMMENT]

    def parser_tokens(self) -> list[Token]:
        """``tokenize(strip_preprocessor(text))`` from the raw stream.

        Blanking a line changes no other line's tokens unless a token
        spanning lines (a block comment, a backslash-continued literal)
        touches it; only then is the stripped text lexed again.
        """
        blanked = _directive_lines(self.lines)
        if not any(blanked):
            return self.tokens
        stream: list[Token] = []
        for tok in self._lexed:
            if "\n" in tok.text:
                first = tok.line - 1
                if any(blanked[first:first + tok.text.count("\n") + 1]):
                    return tokenize(strip_preprocessor(self.text))
            if blanked[tok.line - 1]:
                if tok.kind is TokenKind.EOF:
                    stream.append(Token(TokenKind.EOF, "", tok.line, 1))
                continue
            if tok.kind is not TokenKind.COMMENT:
                stream.append(tok)
        return stream
