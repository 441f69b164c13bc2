"""Unit tests for the C lexer."""

from repro.lang.lexer import KEYWORDS, Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "hello"

    def test_keyword_recognised(self):
        (tok,) = tokenize("while")[:-1]
        assert tok.kind is TokenKind.KEYWORD

    def test_underscore_identifier(self):
        (tok,) = tokenize("_my_var2")[:-1]
        assert tok.kind is TokenKind.IDENT

    def test_all_keywords_lex_as_keywords(self):
        for keyword in KEYWORDS:
            (tok,) = tokenize(keyword)[:-1]
            assert tok.kind is TokenKind.KEYWORD, keyword

    def test_decimal_number(self):
        (tok,) = tokenize("12345")[:-1]
        assert tok.kind is TokenKind.NUMBER
        assert tok.text == "12345"

    def test_hex_number(self):
        (tok,) = tokenize("0xDEADbeef")[:-1]
        assert tok.text == "0xDEADbeef"

    def test_float_number(self):
        (tok,) = tokenize("3.25")[:-1]
        assert tok.kind is TokenKind.NUMBER

    def test_float_with_exponent(self):
        (tok,) = tokenize("1.5e-3")[:-1]
        assert tok.text == "1.5e-3"

    def test_number_suffixes(self):
        (tok,) = tokenize("42UL")[:-1]
        assert tok.text == "42UL"

    def test_string_literal(self):
        (tok,) = tokenize('"hi there"')[:-1]
        assert tok.kind is TokenKind.STRING
        assert tok.text == '"hi there"'

    def test_string_with_escapes(self):
        (tok,) = tokenize(r'"a\"b\n"')[:-1]
        assert tok.kind is TokenKind.STRING

    def test_char_literal(self):
        (tok,) = tokenize("'x'")[:-1]
        assert tok.kind is TokenKind.CHAR

    def test_unterminated_string_stops_at_newline(self):
        toks = tokenize('"oops\nint')
        assert toks[0].kind is TokenKind.STRING
        assert any(t.text == "int" for t in toks)


class TestPunctuators:
    def test_maximal_munch_arrow(self):
        assert texts("a->b") == ["a", "->", "b"]

    def test_maximal_munch_shift_assign(self):
        assert texts("a <<= 2") == ["a", "<<=", "2"]

    def test_increment_vs_plus(self):
        assert texts("a++ + b") == ["a", "++", "+", "b"]

    def test_ellipsis(self):
        assert texts("...") == ["..."]

    def test_comparison_operators(self):
        assert texts("a<=b>=c==d!=e") == \
            ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]


class TestComments:
    def test_line_comment_dropped_by_default(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_dropped(self):
        assert texts("a /* x */ b") == ["a", "b"]

    def test_keep_comments_flag(self):
        toks = tokenize("a // hi", keep_comments=True)
        assert any(t.kind is TokenKind.COMMENT for t in toks)

    def test_multiline_block_comment(self):
        assert texts("a /* line1\nline2 */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        toks = tokenize("a /* never ends", keep_comments=True)
        assert toks[0].text == "a"
        assert toks[1].kind is TokenKind.COMMENT


class TestPositions:
    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert [(t.text, t.line) for t in toks[:-1]] == \
            [("a", 1), ("b", 2), ("c", 3)]

    def test_column_numbers(self):
        toks = tokenize("ab cd")
        assert toks[0].col == 1
        assert toks[1].col == 4

    def test_columns_reset_after_newline(self):
        toks = tokenize("aa\nbb")
        assert toks[1].col == 1


class TestErrorTokens:
    def test_unknown_byte_becomes_error_token(self):
        toks = tokenize("a @ b")
        assert toks[1].kind is TokenKind.ERROR

    def test_lexer_never_raises_on_binary_garbage(self):
        tokenize("\x00\xff\x01 int \x7f")


class TestHelpers:
    def test_is_keyword_helper(self):
        tok = Token(TokenKind.KEYWORD, "if", 1, 1)
        assert tok.is_keyword("if", "else")
        assert not tok.is_keyword("while")

    def test_is_punct_helper(self):
        tok = Token(TokenKind.PUNCT, "{", 1, 1)
        assert tok.is_punct("{")
        assert not tok.is_punct("}")
