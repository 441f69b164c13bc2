"""Differential tests: the compiled-pattern lexer against the original.

``tokenize`` must yield exactly the token stream of the original
per-character :class:`~tests.lang.reference_lexer.Lexer` on any text,
non-ASCII included; brace pairs taken from the token stream must equal
the original per-character brace matcher's; and the parser stream a
:class:`SourceFile` derives from its one raw stream must equal a fresh
lex of the preprocessor-stripped text.

The tier-1 suite runs these at a small budget.  CI runs the module's
own profile, 2,000 examples per test:

    PYTHONPATH=src python -m tests.lang.test_lexer_differential
"""

import re
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import diffscan
from repro.core.fingerprint import function_fingerprints
from repro.core.telemetry import Telemetry
from repro.datasets.manifest import TestCase
from repro.lang import callgraph, source as source_module
from repro.lang.lexer import TokenKind, tokenize
from repro.lang.source import SourceFile, strip_preprocessor
from repro.slicing.path_sensitive import brace_pairs, brace_ranges
from tests.lang.reference_lexer import (reference_brace_ranges,
                                        reference_tokenize)

settings.register_profile("lexer-differential", max_examples=2000,
                          deadline=None)
if __name__ == "__main__":
    settings.load_profile("lexer-differential")

#: pieces that meet at token boundaries in interesting ways: quotes and
#: escapes, comment openers and closers, number prefixes, exponents and
#: suffixes, directives, and non-ASCII letters, digits and numerals
FRAGMENTS = [
    "{", "}", '"', "'", "\\", "\n", "\r", "\t", " ", "/", "*", "/*",
    "*/", "//", "#", "#define X ", "#include <a.h>", ".", "..", "...",
    "0", "1", "0x", "0X1f", "e", "E", "+", "-", "u", "L", "f", "a",
    "_", "int", "while", "->", "<<=", ">>", "=", "!", "&", "|", "@",
    "$", "`", "\x00", "\x0b", "\x0c", "²", "½", "é", "十", "٣", "Ⅻ",
    " ", " ", "😀",
]

fragment_text = st.lists(st.sampled_from(FRAGMENTS),
                         max_size=40).map("".join)
any_text = st.one_of(st.text(max_size=80), fragment_text)


def _fields(tokens):
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


class TestTokenizeMatchesReference:
    @settings(deadline=None)
    @given(any_text)
    @example("²")
    @example("½")
    @example("1e²+x")
    @example('"a\\\n{b" /* c\n*/ d')
    def test_any_text(self, text):
        for keep in (False, True):
            assert _fields(tokenize(text, keep_comments=keep)) == \
                _fields(reference_tokenize(text, keep_comments=keep))

    def test_non_ascii_follows_str_methods(self):
        """``'²'`` is a digit but not a decimal, ``'½'`` is numeric
        but not a digit, ``'十'`` is a letter and numeric: ``\\w`` and
        ``\\d`` would misclassify each."""
        assert re.fullmatch(r"[^\W\d]", "²") and re.fullmatch(r"[^\W\d]", "½")
        kinds = [t.kind for t in tokenize("² ½ 十 x٣")[:-1]]
        assert kinds == [TokenKind.NUMBER, TokenKind.ERROR,
                         TokenKind.IDENT, TokenKind.IDENT]

    def test_word_classes_match_str_methods(self):
        """Identifiers continue with ``\\w`` and hex digits with
        ``[^\\W_]``; both must be exactly ``str.isalnum`` (plus ``_``)
        on every code point."""
        text = "".join(map(chr, range(0x110000)))
        assert re.findall(r"[^\W_]", text) == \
            [c for c in text if c.isalnum()]
        assert re.findall(r"\w", text) == \
            [c for c in text if c.isalnum() or c == "_"]

    def test_tokens_compare_and_hash_by_fields(self):
        first, second = tokenize("a"), tokenize("a")
        assert first == second and first[0] is not second[0]
        assert len({first[0], second[0]}) == 1
        assert first[0] != tokenize(" a")[0]


# -- random programs ------------------------------------------------------------

#: whole lines of a C file, directive and comment shapes included
LINES = [
    "int f(int n) {", "}", "  if (n > 0) {", "  } else {",
    "  x = n + 1;", "  return n;", "int g(void) { return 1; }",
    '  s = "{";', "  c = '{';", "  c = '}';", '  s = "\\"{";',
    "  c = '\\'';", "  // {", "  /* } */", "  /* {", "  } */",
    "#define X {", "#define Y }", "#include <stdio.h>",
    "#define LONG(a) \\", "  (a) + \\", "  1", "#if 0", "#endif",
    "   # pragma once", "", "  ", "\t{", "/* a", "b */",
    "#define C /* open", "close */ int z;", '  s = "a\\',
    '  b";', "  x = 1.5e-3f;", "  y = 0x1Fu;", "  ptr->field++;",
]

programs = st.lists(st.sampled_from(LINES), max_size=30).map("\n".join)


def _continues_a_literal(text: str) -> bool:
    """True when a string/char literal spans lines (backslash-newline).

    The original brace matcher reset its literal state at every line
    end; the token stream knows the literal continues, so braces on a
    continued literal's next line no longer count.  That is the one
    place the two are meant to differ.
    """
    return any("\n" in t.text for t in tokenize(text)
               if t.kind in (TokenKind.STRING, TokenKind.CHAR))


class TestBracePairs:
    @settings(deadline=None)
    @given(programs)
    @example("#define X {\nint f() {\n}\n}")
    @example('char *s = "{";\n{\n}')
    @example("char c = '{';\n{ '}' }")
    @example("// {\n/* { */\n{\n/* }\n} */\n}")
    def test_random_programs(self, text):
        if _continues_a_literal(text):
            return
        lines = text.split("\n")
        expected = reference_brace_ranges(lines)
        assert brace_ranges(lines) == expected
        assert brace_pairs(SourceFile("f.c", text).tokens) == expected

    def test_continued_literal_hides_its_braces(self):
        lines = ['s = "a\\', '{ b";', "{", "}"]
        assert _continues_a_literal("\n".join(lines))
        assert brace_ranges(lines) == [(3, 4)]


class TestParserStream:
    @settings(deadline=None)
    @given(programs)
    @example("#define C /* open\nclose */ int z;")
    @example("/* a\n#define X\nb */ int z;")
    @example('s = "a\\\n#define X\nb";')
    @example("int x;\n#define LAST")
    @example("#define ONLY")
    def test_random_programs(self, text):
        expected = tokenize(strip_preprocessor(text))
        assert _fields(SourceFile("f.c", text).parser_tokens()) == \
            _fields(expected)

    @settings(deadline=None)
    @given(fragment_text)
    def test_any_text(self, text):
        assert _fields(SourceFile("f.c", text).parser_tokens()) == \
            _fields(tokenize(strip_preprocessor(text)))


# -- lex counts -----------------------------------------------------------------

SOURCE = """#include <string.h>
#define N 8
/* helper
   comment */
int helper(int n) {
    return n + 1;
}
int main(void) {
    char buf[N];
    strcpy(buf, "{");
    return helper(2);
}
"""


def _count_lexes(monkeypatch, *modules):
    calls = []

    def counted(text, **kwargs):
        calls.append(text)
        return tokenize(text, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "tokenize", counted)
    return calls


class TestLexOnce:
    def test_analyzed_program_lexes_its_text_once(self, monkeypatch):
        calls = _count_lexes(monkeypatch, source_module)
        program = callgraph.analyze(SOURCE)
        fingerprints = function_fingerprints(program.source.tokens)
        brace_pairs(program.source.tokens)
        assert len(calls) == 1
        assert fingerprints == function_fingerprints(SOURCE)

    def test_fallback_lexes_the_stripped_text(self, monkeypatch):
        calls = _count_lexes(monkeypatch, source_module)
        text = "#define C /* open\nclose */ int z;\n"
        SourceFile("f.c", text).parser_tokens()
        assert calls == [text, strip_preprocessor(text)]

    def test_frontier_lexes_each_version_once(self, monkeypatch):
        from repro.core import fingerprint
        calls = _count_lexes(monkeypatch, source_module, fingerprint)
        edited = SOURCE.replace("n + 1", "n + 2")
        target = TestCase(name="f.c", source=edited, vulnerable=False,
                          vulnerable_lines=frozenset(), cwe="",
                          category="")
        frontier, _ = diffscan._file_frontier(SOURCE, target, 3,
                                              Telemetry())
        assert frontier == ["helper", "main"]
        assert sorted(calls) == sorted([SOURCE, edited])


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
