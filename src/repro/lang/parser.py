"""Cursor parser for the C subset.

The subset covers everything the synthetic corpora and the paper's code
examples need: function definitions, local/global declarations (with
pointers, arrays, initializers), all eight control constructs Algorithm 1
cares about (``if``/``else if``/``else``/``for``/``while``/``do while``/
``switch``/``case``), ``goto``/labels, ``struct`` definitions, and the
full C expression grammar (assignment, ternary, binary/unary operators,
calls, array indexing, ``.``/``->`` member access, casts, ``sizeof``).

The parser is a cursor over the flat token list.  The list is padded
with EOF sentinels, so a lookahead is a plain index, and tokens match
on their text alone: a punctuator's or keyword's text is never the
text of any other kind of token (an identifier spelled like a keyword
lexes as the keyword), so ``text == "("`` is ``is_punct("(")``.
Statements dispatch on their leading keyword.  Binary operators reduce
on an explicit operator stack, and postfix operators and primaries
parse in the frame of the prefix operators, so an expression nests
fewer Python frames per level than a level-per-precedence descent.

Unsupported constructs raise :class:`ParseError` with a location, which
tests assert on.
"""

from __future__ import annotations

from . import ast_nodes as A
from .lexer import Token, TokenKind
from .source import SourceFile

__all__ = ["ParseError", "Parser", "parse"]

_TYPE_KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double",
        "signed", "unsigned", "bool", "size_t", "ssize_t", "wchar_t",
        "uint8_t", "uint16_t", "uint32_t", "uint64_t",
        "int8_t", "int16_t", "int32_t", "int64_t",
    }
)
_QUALIFIERS = frozenset(
    {"static", "const", "extern", "inline", "register", "volatile",
     "auto", "restrict"}
)
_TAGS = frozenset({"struct", "union", "enum"})
_TYPE_STARTS = _TYPE_KEYWORDS | _QUALIFIERS | _TAGS

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
)
_PREFIX_OPS = frozenset({"+", "-", "!", "~", "*", "&", "++", "--"})
_POSTFIX_OPS = frozenset({"(", "[", ".", "->", "++", "--"})
_CONSTANTS = frozenset({"true", "false", "NULL"})

# Binary operator precedence (C), higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

#: deepest lookahead past the cursor (a label's ``x : !:``)
_LOOKAHEAD = 2

_IDENT, _EOF = TokenKind.IDENT, TokenKind.EOF


class ParseError(SyntaxError):
    """Raised when the source uses constructs outside the subset."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} at line {token.line}:{token.col} "
                         f"(near {token.text!r})")
        self.token = token


class Parser:
    """One-pass parser with a typedef symbol table, over a
    preprocessor-stripped stream (``SourceFile.parser_tokens``) that
    ends with its EOF token.

    The cursor only steps past a token it has matched, so it never
    passes EOF and ``_i + _LOOKAHEAD`` stays inside the padding.
    """

    def __init__(self, tokens: list[Token]):
        self._toks = tokens + [tokens[-1]] * _LOOKAHEAD
        self._texts = [tok.text for tok in self._toks]
        self._i = 0
        self._typedefs: set[str] = set()

    # -- token helpers -----------------------------------------------------

    def _next(self) -> Token:
        tok = self._toks[self._i]
        self._i += 1
        return tok

    def _expect_punct(self, text: str) -> Token:
        tok = self._toks[self._i]
        if tok.text != text:
            raise ParseError(f"expected {text!r}", tok)
        self._i += 1
        return tok

    def _expect_ident(self) -> Token:
        tok = self._toks[self._i]
        if tok.kind is not _IDENT:
            raise ParseError("expected identifier", tok)
        self._i += 1
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self._texts[self._i] == text:
            self._i += 1
            return True
        return False

    def _pointer_depth(self) -> int:
        """Consume a run of ``*`` and return its length."""
        start = self._i
        while self._texts[self._i] == "*":
            self._i += 1
        return self._i - start

    # -- type recognition ---------------------------------------------------

    def _is_type_start(self, offset: int = 0) -> bool:
        text = self._texts[self._i + offset]
        return text in _TYPE_STARTS or text in self._typedefs

    def _parse_type_name(self) -> str:
        """Consume a type specifier and return its canonical text."""
        texts = self._texts
        parts: list[str] = []
        while True:
            text = texts[self._i]
            if text in _QUALIFIERS:
                self._i += 1  # qualifiers dropped from canonical name
            elif text in _TYPE_KEYWORDS:
                self._i += 1
                parts.append(text)
            elif text in _TAGS:
                self._i += 1
                if self._toks[self._i].kind is _IDENT:
                    text = f"{text} {texts[self._i]}"
                    self._i += 1
                parts.append(text)
            elif text in self._typedefs and not parts:
                self._i += 1
                parts.append(text)
            else:
                break
        if not parts:
            raise ParseError("expected type name", self._toks[self._i])
        return " ".join(parts)

    # -- top level ----------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        """Parse the whole file."""
        first = self._toks[0]
        unit = A.TranslationUnit(first.line, first.col, functions=[])
        while self._toks[self._i].kind is not _EOF:
            text = self._texts[self._i]
            if text == "typedef":
                self._parse_typedef(unit)
            elif text in _TAGS and self._looks_like_struct_def():
                unit.structs.append(self._parse_struct_def())
            elif text == ";":
                self._i += 1
            elif self._is_type_start():
                self._parse_external_declaration(unit)
            else:
                raise ParseError("unexpected token at file scope",
                                 self._toks[self._i])
        return unit

    def _looks_like_struct_def(self) -> bool:
        # 'struct NAME {' or 'struct {'
        offset = 2 if self._toks[self._i + 1].kind is _IDENT else 1
        return self._texts[self._i + offset] == "{"

    def _parse_struct_def(self) -> A.StructDef:
        start = self._next()  # struct/union/enum keyword
        name = ""
        if self._toks[self._i].kind is _IDENT:
            name = self._next().text
        self._expect_punct("{")
        texts = self._texts
        fields: list[tuple[str, str]] = []
        if start.text == "enum":
            while texts[self._i] != "}":
                ident = self._expect_ident()
                self._typedefs.discard(ident.text)
                fields.append(("int", ident.text))
                if self._accept_punct("="):
                    self._parse_assignment()
                if not self._accept_punct(","):
                    break
        else:
            while texts[self._i] != "}" and \
                    self._toks[self._i].kind is not _EOF:
                type_name = self._parse_type_name()
                while True:
                    depth = self._pointer_depth()
                    field_name = self._expect_ident().text
                    while self._accept_punct("["):
                        if texts[self._i] != "]":
                            self._parse_assignment()
                        self._expect_punct("]")
                    fields.append(("*" * depth + type_name, field_name))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
        self._expect_punct("}")
        # optional declarator names after the body: 'struct X {...} y;'
        while self._toks[self._i].kind is _IDENT or texts[self._i] == "*":
            self._i += 1
        self._accept_punct(";")
        return A.StructDef(start.line, start.col, name=name, fields=fields)

    def _parse_typedef(self, unit: A.TranslationUnit) -> None:
        self._i += 1  # 'typedef'
        if self._texts[self._i] in _TAGS and self._looks_like_struct_def():
            struct = self._parse_struct_def()
            unit.structs.append(struct)
            # The struct parser ate the typedef names after its body;
            # register the struct tag as a typedef instead.
            if struct.name:
                self._typedefs.add(struct.name)
            return
        self._parse_type_name()
        self._pointer_depth()
        self._typedefs.add(self._expect_ident().text)
        self._expect_punct(";")

    def _parse_external_declaration(self, unit: A.TranslationUnit) -> None:
        start = self._toks[self._i]
        type_name = self._parse_type_name()
        depth = self._pointer_depth()
        name_tok = self._expect_ident()
        if self._texts[self._i] == "(":
            fn = self._parse_function_rest(start, type_name, depth,
                                           name_tok)
            if fn is not None:
                unit.functions.append(fn)
        else:
            unit.globals.append(
                self._parse_declarators(start, type_name, depth, name_tok))

    def _parse_function_rest(
        self,
        start: Token,
        return_type: str,
        pointer_depth: int,
        name_tok: Token,
    ) -> A.FunctionDef | None:
        self._expect_punct("(")
        texts = self._texts
        params: list[A.Param] = []
        if texts[self._i] != ")":
            while True:
                text = texts[self._i]
                if text == "..." or \
                        (text == "void" and texts[self._i + 1] == ")"):
                    self._i += 1
                    break
                ptype = self._parse_type_name()
                pdepth = self._pointer_depth()
                tok = self._toks[self._i]
                pname = ""
                if tok.kind is _IDENT:
                    self._i += 1
                    pname = tok.text
                is_array = False
                while self._accept_punct("["):
                    is_array = True
                    if texts[self._i] != "]":
                        self._parse_assignment()
                    self._expect_punct("]")
                params.append(A.Param(ptype, pname, pdepth, is_array,
                                      tok.line))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        if self._accept_punct(";"):
            return None  # prototype only
        body = self._parse_block()
        return A.FunctionDef(
            start.line, start.col,
            return_type="*" * pointer_depth + return_type,
            name=name_tok.text, params=params, body=body)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> A.Block:
        open_tok = self._expect_punct("{")
        stmts: list[A.Stmt] = []
        while self._texts[self._i] != "}":
            if self._toks[self._i].kind is _EOF:
                raise ParseError("unterminated block", self._toks[self._i])
            stmts.append(self._parse_statement())
        close = self._next()
        return A.Block(open_tok.line, open_tok.col, stmts=stmts,
                       end_line=close.line)

    def _parse_statement(self) -> A.Stmt:
        tok = self._toks[self._i]
        text = tok.text
        parse_keyword = _KEYWORD_STATEMENTS.get(text)
        if parse_keyword is not None:
            return parse_keyword(self, tok)
        if text == "{":
            return self._parse_block()
        if text == ";":
            self._i += 1
            return A.Empty(tok.line, tok.col)
        texts = self._texts
        if tok.kind is _IDENT and texts[self._i + 1] == ":" and \
                texts[self._i + 2] != ":":
            self._i += 2
            inner = self._parse_statement()
            return A.Label(tok.line, tok.col, name=text, stmt=inner)
        if self._is_type_start():
            return self._parse_declarators(
                tok, self._parse_type_name(), self._pointer_depth(),
                self._expect_ident())
        expr = self._parse_expression()
        self._expect_punct(";")
        return A.ExprStmt(tok.line, tok.col, expr=expr)

    def _parse_declarators(self, start: Token, type_name: str, depth: int,
                           name_tok: Token) -> A.Decl:
        """Finish a declaration whose type, first pointer depth and
        first name were consumed: sizes, initializers, more names."""
        texts = self._texts
        declarators: list[A.Declarator] = []
        name = name_tok.text
        while True:
            sizes: list[A.Expr | None] = []
            while self._accept_punct("["):
                sizes.append(None if texts[self._i] == "]"
                             else self._parse_assignment())
                self._expect_punct("]")
            init = None
            if self._accept_punct("="):
                init = (self._parse_init_list() if texts[self._i] == "{"
                        else self._parse_assignment())
            declarators.append(
                A.Declarator(name=name, pointer_depth=depth,
                             array_sizes=sizes, init=init))
            if not self._accept_punct(","):
                break
            depth = self._pointer_depth()
            name = self._expect_ident().text
        self._expect_punct(";")
        return A.Decl(start.line, start.col, type_name=type_name,
                      declarators=declarators)

    def _parse_init_list(self) -> A.InitList:
        open_tok = self._expect_punct("{")
        texts = self._texts
        items: list[A.Expr] = []
        while texts[self._i] != "}":
            items.append(self._parse_init_list() if texts[self._i] == "{"
                         else self._parse_assignment())
            if not self._accept_punct(","):
                break
        self._expect_punct("}")
        return A.InitList(open_tok.line, open_tok.col, items=items)

    def _parse_if(self, start: Token, is_elseif: bool = False) -> A.If:
        self._i += 1  # 'if'
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        own_else_line = 0
        if self._texts[self._i] == "else":
            own_else_line = self._next().line
            tok = self._toks[self._i]
            if tok.text == "if":
                otherwise = self._parse_if(tok, True)
            else:
                otherwise = self._parse_statement()
        return A.If(start.line, start.col, cond=cond, then=then,
                    otherwise=otherwise, is_elseif=is_elseif,
                    else_line=own_else_line)

    def _parse_while(self, start: Token) -> A.While:
        self._i += 1  # 'while'
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return A.While(start.line, start.col, cond=cond, body=body)

    def _parse_do_while(self, start: Token) -> A.DoWhile:
        self._i += 1  # 'do'
        body = self._parse_statement()
        while_tok = self._toks[self._i]
        if while_tok.text != "while":
            raise ParseError("expected keyword 'while'", while_tok)
        self._i += 1
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return A.DoWhile(start.line, start.col, body=body, cond=cond,
                         while_line=while_tok.line)

    def _parse_for(self, start: Token) -> A.For:
        self._i += 1  # 'for'
        self._expect_punct("(")
        texts = self._texts
        init: A.Stmt | None = None
        if texts[self._i] == ";":
            self._i += 1
        elif self._is_type_start():
            init = self._parse_declarators(
                self._toks[self._i], self._parse_type_name(),
                self._pointer_depth(), self._expect_ident())
        else:
            expr = self._parse_expression()
            init = A.ExprStmt(expr.line, expr.col, expr=expr)
            self._expect_punct(";")
        cond = None if texts[self._i] == ";" else self._parse_expression()
        self._expect_punct(";")
        step = None if texts[self._i] == ")" else self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return A.For(start.line, start.col, init=init, cond=cond, step=step,
                     body=body)

    def _parse_switch(self, start: Token) -> A.Switch:
        self._i += 1  # 'switch'
        self._expect_punct("(")
        expr = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[A.Case] = []
        current: A.Case | None = None
        while self._texts[self._i] != "}":
            tok = self._toks[self._i]
            if tok.kind is _EOF:
                raise ParseError("unterminated switch", tok)
            if tok.text == "case":
                self._i += 1
                value = self._parse_expression()
                self._expect_punct(":")
                current = A.Case(tok.line, tok.col, value=value)
                cases.append(current)
            elif tok.text == "default":
                self._i += 1
                self._expect_punct(":")
                current = A.Case(tok.line, tok.col, value=None)
                cases.append(current)
            else:
                if current is None:
                    raise ParseError("statement before first case label", tok)
                current.stmts.append(self._parse_statement())
        close = self._next()
        return A.Switch(start.line, start.col, expr=expr, cases=cases,
                        end_line=close.line)

    def _parse_jump(self, start: Token) -> A.Stmt:
        """``break;``, ``continue;``, ``return [expr];``, ``goto L;``."""
        self._i += 1
        keyword = start.text
        if keyword == "return":
            value = None
            if self._texts[self._i] != ";":
                value = self._parse_expression()
            self._expect_punct(";")
            return A.Return(start.line, start.col, value=value)
        if keyword == "goto":
            label = self._expect_ident().text
            self._expect_punct(";")
            return A.Goto(start.line, start.col, label=label)
        self._expect_punct(";")
        jump = A.Break if keyword == "break" else A.Continue
        return jump(start.line, start.col)

    # -- expressions ----------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        while self._texts[self._i] == ",":
            comma = self._next()
            right = self._parse_assignment()
            expr = A.Comma(comma.line, comma.col, left=expr, right=right)
        return expr

    def _parse_assignment(self) -> A.Expr:
        """Assignment, ternary and binary levels in one frame.

        Binary operators reduce on an operator stack, left-associative
        within a precedence level: the tree precedence climbing builds.
        """
        toks = self._toks
        expr = self._parse_unary()
        tok = toks[self._i]
        prec = _BINARY_PRECEDENCE.get(tok.text)
        if prec is not None:
            operands = [expr]
            operators: list[tuple[int, Token]] = []
            while True:
                while operators and operators[-1][0] >= prec:
                    op = operators.pop()[1]
                    right = operands.pop()
                    operands[-1] = A.Binary(op.line, op.col, op=op.text,
                                            left=operands[-1], right=right)
                if not prec:
                    break
                operators.append((prec, tok))
                self._i += 1
                operands.append(self._parse_unary())
                tok = toks[self._i]
                prec = _BINARY_PRECEDENCE.get(tok.text, 0)
            expr = operands[0]
        text = tok.text
        if text == "?":
            self._i += 1
            then = self._parse_assignment()
            self._expect_punct(":")
            otherwise = self._parse_assignment()
            return A.Ternary(tok.line, tok.col, cond=expr, then=then,
                             otherwise=otherwise)
        if text in _ASSIGN_OPS:
            self._i += 1
            value = self._parse_assignment()
            return A.Assign(tok.line, tok.col, op=text, target=expr,
                            value=value)
        return expr

    def _parse_unary(self) -> A.Expr:
        """A prefix, cast or ``sizeof`` operator, or a primary and its
        postfix operators."""
        tok = self._toks[self._i]
        text = tok.text
        if text in _PREFIX_OPS:
            self._i += 1
            operand = self._parse_unary()
            return A.Unary(tok.line, tok.col, op=text, operand=operand,
                           prefix=True)
        if text == "sizeof":
            self._i += 1
            if self._texts[self._i] == "(" and self._is_type_start(1):
                return A.SizeOf(tok.line, tok.col,
                                arg=self._parse_parenthesized_type())
            operand = self._parse_unary()
            return A.SizeOf(tok.line, tok.col, arg=operand)
        if text == "(" and self._is_type_start(1):
            type_name = self._parse_parenthesized_type()
            operand = self._parse_unary()
            return A.Cast(tok.line, tok.col, type_name=type_name,
                          expr=operand)
        return self._parse_postfix(self._parse_primary(tok))

    def _parse_parenthesized_type(self) -> str:
        """``( type-name *... )`` of a cast or ``sizeof``."""
        self._i += 1  # '('
        type_name = self._parse_type_name() + "*" * self._pointer_depth()
        self._expect_punct(")")
        return type_name

    def _parse_primary(self, tok: Token) -> A.Expr:
        kind = tok.kind
        if kind is _IDENT or tok.text in _CONSTANTS:
            self._i += 1
            return A.Ident(tok.line, tok.col, name=tok.text)
        if tok.text == "(":
            self._i += 1
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if kind is TokenKind.NUMBER:
            self._i += 1
            return A.Number(tok.line, tok.col, text=tok.text)
        if kind is TokenKind.STRING:
            self._i += 1
            # Adjacent string literal concatenation.
            text = tok.text
            while self._toks[self._i].kind is TokenKind.STRING:
                text = text[:-1] + self._next().text[1:]
            return A.StringLit(tok.line, tok.col, text=text)
        if kind is TokenKind.CHAR:
            self._i += 1
            return A.CharLit(tok.line, tok.col, text=tok.text)
        raise ParseError("expected expression", tok)

    def _parse_postfix(self, expr: A.Expr) -> A.Expr:
        toks, texts = self._toks, self._texts
        while texts[self._i] in _POSTFIX_OPS:
            tok = toks[self._i]
            text = tok.text
            self._i += 1
            if text == "(":
                args: list[A.Expr] = []
                if texts[self._i] != ")":
                    args.append(self._parse_assignment())
                    while self._accept_punct(","):
                        args.append(self._parse_assignment())
                self._expect_punct(")")
                expr = A.Call(tok.line, tok.col, func=expr, args=args)
            elif text == "[":
                index = self._parse_expression()
                self._expect_punct("]")
                expr = A.Index(tok.line, tok.col, base=expr, index=index)
            elif text == "." or text == "->":
                name = self._expect_ident().text
                expr = A.Member(tok.line, tok.col, base=expr, name=name,
                                arrow=text == "->")
            else:
                expr = A.Unary(tok.line, tok.col, op=text, operand=expr,
                               prefix=False)
        return expr


#: statements that open with a keyword, by that keyword
_KEYWORD_STATEMENTS = {
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "for": Parser._parse_for,
    "switch": Parser._parse_switch,
    "break": Parser._parse_jump,
    "continue": Parser._parse_jump,
    "return": Parser._parse_jump,
    "goto": Parser._parse_jump,
}


def parse(source: str | SourceFile) -> A.TranslationUnit:
    """Parse C source text (or a :class:`SourceFile`, reusing its
    tokens) into a :class:`~repro.lang.ast_nodes.TranslationUnit`."""
    if isinstance(source, str):
        source = SourceFile("<memory>", source)
    return Parser(source.parser_tokens()).parse_translation_unit()
