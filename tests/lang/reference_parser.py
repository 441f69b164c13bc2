"""Reference oracle for the differential parser tests.

:class:`Parser` is the frontend's original recursive-descent parser,
kept verbatim apart from its imports: ``repro.lang.parser.parse`` must
give exactly its AST, or raise a ``ParseError`` with exactly its text
at the same token, for any input.  It raises the frontend's own
:class:`~repro.lang.parser.ParseError`, so the two compare by message.
"""

from __future__ import annotations

from repro.lang import ast_nodes as A
from repro.lang.lexer import Token, TokenKind
from repro.lang.parser import ParseError
from repro.lang.source import SourceFile

__all__ = ["Parser", "reference_parse"]

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

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
)

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


class Parser:
    """One-pass recursive-descent parser with a typedef symbol table,
    over a preprocessor-stripped stream (``SourceFile.parser_tokens``)."""

    def __init__(self, tokens: list[Token]):
        self._toks = tokens
        self._i = 0
        self._typedefs: set[str] = set()
        self._struct_names: set[str] = set()

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._i + offset, len(self._toks) - 1)
        return self._toks[index]

    def _next(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.EOF:
            self._i += 1
        return tok

    def _expect_punct(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}", tok)
        return self._next()

    def _expect_keyword(self, name: str) -> Token:
        tok = self._peek()
        if not tok.is_keyword(name):
            raise ParseError(f"expected keyword {name!r}", tok)
        return self._next()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", tok)
        return self._next()

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    # -- type recognition ---------------------------------------------------

    def _is_type_start(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind is TokenKind.KEYWORD:
            return tok.text in _TYPE_KEYWORDS or tok.text in _QUALIFIERS \
                or tok.text in ("struct", "union", "enum")
        if tok.kind is TokenKind.IDENT:
            return tok.text in self._typedefs
        return False

    def _parse_type_name(self) -> str:
        """Consume a type specifier and return its canonical text."""
        parts: list[str] = []
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.text in _QUALIFIERS:
                self._next()  # qualifiers dropped from canonical name
            elif tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_KEYWORDS:
                parts.append(self._next().text)
            elif tok.is_keyword("struct", "union", "enum"):
                kw = self._next().text
                name = ""
                if self._peek().kind is TokenKind.IDENT:
                    name = self._next().text
                parts.append(f"{kw} {name}".strip())
            elif (tok.kind is TokenKind.IDENT and tok.text in self._typedefs
                  and not parts):
                parts.append(self._next().text)
            else:
                break
        if not parts:
            raise ParseError("expected type name", self._peek())
        return " ".join(parts)

    # -- top level ----------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        """Parse the whole file."""
        first = self._peek()
        unit = A.TranslationUnit(first.line, first.col, functions=[])
        while self._peek().kind is not TokenKind.EOF:
            tok = self._peek()
            if tok.is_keyword("typedef"):
                self._parse_typedef(unit)
            elif tok.is_keyword("struct", "union", "enum") and \
                    self._looks_like_struct_def():
                unit.structs.append(self._parse_struct_def())
            elif tok.is_punct(";"):
                self._next()
            elif self._is_type_start():
                self._parse_external_declaration(unit)
            else:
                raise ParseError("unexpected token at file scope", tok)
        return unit

    def _looks_like_struct_def(self) -> bool:
        # 'struct NAME {' or 'struct {'
        offset = 1
        if self._peek(offset).kind is TokenKind.IDENT:
            offset += 1
        return self._peek(offset).is_punct("{")

    def _parse_struct_def(self) -> A.StructDef:
        start = self._next()  # struct/union/enum keyword
        name = ""
        if self._peek().kind is TokenKind.IDENT:
            name = self._next().text
            self._struct_names.add(name)
        self._expect_punct("{")
        fields: list[tuple[str, str]] = []
        if start.text == "enum":
            while not self._peek().is_punct("}"):
                ident = self._expect_ident()
                self._typedefs.discard(ident.text)
                fields.append(("int", ident.text))
                if self._accept_punct("="):
                    self._parse_assignment()
                if not self._accept_punct(","):
                    break
        else:
            while not self._peek().is_punct("}") and \
                    self._peek().kind is not TokenKind.EOF:
                type_name = self._parse_type_name()
                while True:
                    depth = 0
                    while self._accept_punct("*"):
                        depth += 1
                    field_name = self._expect_ident().text
                    while self._accept_punct("["):
                        if not self._peek().is_punct("]"):
                            self._parse_assignment()
                        self._expect_punct("]")
                    fields.append(("*" * depth + type_name, field_name))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
        self._expect_punct("}")
        # optional declarator names after the body: 'struct X {...} y;'
        while self._peek().kind is TokenKind.IDENT or self._peek().is_punct("*"):
            self._next()
        self._accept_punct(";")
        return A.StructDef(start.line, start.col, name=name, fields=fields)

    def _parse_typedef(self, unit: A.TranslationUnit) -> None:
        self._expect_keyword("typedef")
        if self._peek().is_keyword("struct", "union", "enum") and \
                self._looks_like_struct_def():
            struct = self._parse_struct_def()
            unit.structs.append(struct)
            # The struct parser consumed trailing names; re-scan them is
            # unnecessary — instead typedef names were eaten. Simplest
            # robust approach: register the struct tag as a typedef too.
            if struct.name:
                self._typedefs.add(struct.name)
            return
        self._parse_type_name()
        while self._accept_punct("*"):
            pass
        name = self._expect_ident().text
        self._typedefs.add(name)
        self._expect_punct(";")

    def _parse_external_declaration(self, unit: A.TranslationUnit) -> None:
        start = self._peek()
        type_name = self._parse_type_name()
        pointer_depth = 0
        while self._accept_punct("*"):
            pointer_depth += 1
        name_tok = self._expect_ident()
        if self._peek().is_punct("("):
            fn = self._parse_function_rest(start, type_name, pointer_depth,
                                           name_tok)
            if fn is not None:
                unit.functions.append(fn)
        else:
            unit.globals.append(
                self._parse_global_decl_rest(start, type_name,
                                             pointer_depth, name_tok))

    def _parse_global_decl_rest(self, start: Token, type_name: str,
                                pointer_depth: int,
                                name_tok: Token) -> A.Decl:
        """Finish a file-scope declaration whose type and first name
        were already consumed."""
        declarators: list[A.Declarator] = []
        name = name_tok.text
        depth = pointer_depth
        while True:
            sizes: list[A.Expr | None] = []
            while self._accept_punct("["):
                if self._peek().is_punct("]"):
                    sizes.append(None)
                else:
                    sizes.append(self._parse_assignment())
                self._expect_punct("]")
            init = None
            if self._accept_punct("="):
                if self._peek().is_punct("{"):
                    init = self._parse_init_list()
                else:
                    init = self._parse_assignment()
            declarators.append(
                A.Declarator(name=name, pointer_depth=depth,
                             array_sizes=sizes, init=init))
            if not self._accept_punct(","):
                break
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            name = self._expect_ident().text
        self._expect_punct(";")
        return A.Decl(start.line, start.col, type_name=type_name,
                      declarators=declarators)

    def _parse_function_rest(
        self,
        start: Token,
        return_type: str,
        pointer_depth: int,
        name_tok: Token,
    ) -> A.FunctionDef | None:
        self._expect_punct("(")
        params: list[A.Param] = []
        if not self._peek().is_punct(")"):
            while True:
                if self._peek().is_keyword("void") and \
                        self._peek(1).is_punct(")"):
                    self._next()
                    break
                if self._peek().is_punct("..."):
                    self._next()
                    break
                ptype = self._parse_type_name()
                pdepth = 0
                while self._accept_punct("*"):
                    pdepth += 1
                pname = ""
                pline = self._peek().line
                if self._peek().kind is TokenKind.IDENT:
                    pname = self._next().text
                is_array = False
                while self._accept_punct("["):
                    is_array = True
                    if not self._peek().is_punct("]"):
                        self._parse_assignment()
                    self._expect_punct("]")
                params.append(A.Param(ptype, pname, pdepth, is_array, pline))
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
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block", self._peek())
            stmts.append(self._parse_statement())
        close = self._expect_punct("}")
        return A.Block(open_tok.line, open_tok.col, stmts=stmts,
                       end_line=close.line)

    def _parse_statement(self) -> A.Stmt:
        tok = self._peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_punct(";"):
            self._next()
            return A.Empty(tok.line, tok.col)
        if tok.is_keyword("if"):
            return self._parse_if(is_elseif=False)
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("switch"):
            return self._parse_switch()
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return A.Break(tok.line, tok.col)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return A.Continue(tok.line, tok.col)
        if tok.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return A.Return(tok.line, tok.col, value=value)
        if tok.is_keyword("goto"):
            self._next()
            label = self._expect_ident().text
            self._expect_punct(";")
            return A.Goto(tok.line, tok.col, label=label)
        if tok.kind is TokenKind.IDENT and self._peek(1).is_punct(":") and \
                not self._peek(2).is_punct(":"):
            self._next()
            self._next()
            inner = self._parse_statement()
            return A.Label(tok.line, tok.col, name=tok.text, stmt=inner)
        if self._is_type_start() and self._looks_like_declaration():
            return self._parse_declaration()
        expr = self._parse_expression()
        self._expect_punct(";")
        return A.ExprStmt(tok.line, tok.col, expr=expr)

    def _looks_like_declaration(self) -> bool:
        """Disambiguate 'T * x;' declaration from 'a * b;' expression.

        Our type recognizer only fires on type keywords and registered
        typedef names, so any type-start here really is a declaration.
        """
        return True

    def _parse_declaration(self) -> A.Decl:
        start = self._peek()
        type_name = self._parse_type_name()
        declarators: list[A.Declarator] = []
        while True:
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            name = self._expect_ident().text
            sizes: list[A.Expr | None] = []
            while self._accept_punct("["):
                if self._peek().is_punct("]"):
                    sizes.append(None)
                else:
                    sizes.append(self._parse_assignment())
                self._expect_punct("]")
            init = None
            if self._accept_punct("="):
                if self._peek().is_punct("{"):
                    init = self._parse_init_list()
                else:
                    init = self._parse_assignment()
            declarators.append(
                A.Declarator(name=name, pointer_depth=depth,
                             array_sizes=sizes, init=init))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return A.Decl(start.line, start.col, type_name=type_name,
                      declarators=declarators)

    def _parse_init_list(self) -> A.InitList:
        open_tok = self._expect_punct("{")
        items: list[A.Expr] = []
        while not self._peek().is_punct("}"):
            if self._peek().is_punct("{"):
                items.append(self._parse_init_list())
            else:
                items.append(self._parse_assignment())
            if not self._accept_punct(","):
                break
        self._expect_punct("}")
        return A.InitList(open_tok.line, open_tok.col, items=items)

    def _parse_if(self, *, is_elseif: bool) -> A.If:
        start = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        own_else_line = 0
        if self._peek().is_keyword("else"):
            else_tok = self._next()
            own_else_line = else_tok.line
            if self._peek().is_keyword("if"):
                otherwise = self._parse_if(is_elseif=True)
            else:
                otherwise = self._parse_statement()
        return A.If(start.line, start.col, cond=cond, then=then,
                    otherwise=otherwise, is_elseif=is_elseif,
                    else_line=own_else_line)

    def _parse_while(self) -> A.While:
        start = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return A.While(start.line, start.col, cond=cond, body=body)

    def _parse_do_while(self) -> A.DoWhile:
        start = self._expect_keyword("do")
        body = self._parse_statement()
        while_tok = self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return A.DoWhile(start.line, start.col, body=body, cond=cond,
                         while_line=while_tok.line)

    def _parse_for(self) -> A.For:
        start = self._expect_keyword("for")
        self._expect_punct("(")
        init: A.Stmt | None = None
        if not self._peek().is_punct(";"):
            if self._is_type_start():
                init = self._parse_declaration()
            else:
                expr = self._parse_expression()
                init = A.ExprStmt(expr.line, expr.col, expr=expr)
                self._expect_punct(";")
        else:
            self._next()
        cond = None
        if not self._peek().is_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self._peek().is_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return A.For(start.line, start.col, init=init, cond=cond, step=step,
                     body=body)

    def _parse_switch(self) -> A.Switch:
        start = self._expect_keyword("switch")
        self._expect_punct("(")
        expr = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[A.Case] = []
        current: A.Case | None = None
        while not self._peek().is_punct("}"):
            tok = self._peek()
            if tok.kind is TokenKind.EOF:
                raise ParseError("unterminated switch", tok)
            if tok.is_keyword("case"):
                self._next()
                value = self._parse_expression()
                self._expect_punct(":")
                current = A.Case(tok.line, tok.col, value=value)
                cases.append(current)
            elif tok.is_keyword("default"):
                self._next()
                self._expect_punct(":")
                current = A.Case(tok.line, tok.col, value=None)
                cases.append(current)
            else:
                if current is None:
                    raise ParseError("statement before first case label", tok)
                current.stmts.append(self._parse_statement())
        close = self._expect_punct("}")
        return A.Switch(start.line, start.col, expr=expr, cases=cases,
                        end_line=close.line)

    # -- expressions ----------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        while self._peek().is_punct(","):
            comma = self._next()
            right = self._parse_assignment()
            expr = A.Comma(comma.line, comma.col, left=expr, right=right)
        return expr

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_ternary()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self._next()
            right = self._parse_assignment()
            return A.Assign(tok.line, tok.col, op=tok.text, target=left,
                            value=right)
        return left

    def _parse_ternary(self) -> A.Expr:
        cond = self._parse_binary(1)
        if self._peek().is_punct("?"):
            q = self._next()
            then = self._parse_assignment()
            self._expect_punct(":")
            otherwise = self._parse_assignment()
            return A.Ternary(q.line, q.col, cond=cond, then=then,
                             otherwise=otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> A.Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINARY_PRECEDENCE.get(tok.text) \
                if tok.kind is TokenKind.PUNCT else None
            if prec is None or prec < min_prec:
                return left
            self._next()
            right = self._parse_binary(prec + 1)
            left = A.Binary(tok.line, tok.col, op=tok.text, left=left,
                            right=right)

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in \
                ("+", "-", "!", "~", "*", "&", "++", "--"):
            self._next()
            operand = self._parse_unary()
            return A.Unary(tok.line, tok.col, op=tok.text, operand=operand,
                           prefix=True)
        if tok.is_keyword("sizeof"):
            self._next()
            if self._peek().is_punct("(") and self._is_type_start(1):
                self._next()
                type_name = self._parse_type_name()
                while self._accept_punct("*"):
                    type_name += "*"
                self._expect_punct(")")
                return A.SizeOf(tok.line, tok.col, arg=type_name)
            operand = self._parse_unary()
            return A.SizeOf(tok.line, tok.col, arg=operand)
        if tok.is_punct("(") and self._is_type_start(1):
            # Cast: '(' type-name ')' unary
            self._next()
            type_name = self._parse_type_name()
            while self._accept_punct("*"):
                type_name += "*"
            self._expect_punct(")")
            operand = self._parse_unary()
            return A.Cast(tok.line, tok.col, type_name=type_name,
                          expr=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("("):
                self._next()
                args: list[A.Expr] = []
                if not self._peek().is_punct(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = A.Call(tok.line, tok.col, func=expr, args=args)
            elif tok.is_punct("["):
                self._next()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = A.Index(tok.line, tok.col, base=expr, index=index)
            elif tok.is_punct("."):
                self._next()
                name = self._expect_ident().text
                expr = A.Member(tok.line, tok.col, base=expr, name=name,
                                arrow=False)
            elif tok.is_punct("->"):
                self._next()
                name = self._expect_ident().text
                expr = A.Member(tok.line, tok.col, base=expr, name=name,
                                arrow=True)
            elif tok.is_punct("++", "--"):
                self._next()
                expr = A.Unary(tok.line, tok.col, op=tok.text, operand=expr,
                               prefix=False)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER:
            self._next()
            return A.Number(tok.line, tok.col, text=tok.text)
        if tok.kind is TokenKind.STRING:
            self._next()
            # Adjacent string literal concatenation.
            text = tok.text
            while self._peek().kind is TokenKind.STRING:
                extra = self._next().text
                text = text[:-1] + extra[1:]
            return A.StringLit(tok.line, tok.col, text=text)
        if tok.kind is TokenKind.CHAR:
            self._next()
            return A.CharLit(tok.line, tok.col, text=tok.text)
        if tok.kind is TokenKind.IDENT or tok.is_keyword("true", "false",
                                                         "NULL"):
            self._next()
            return A.Ident(tok.line, tok.col, name=tok.text)
        if tok.is_punct("("):
            self._next()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError("expected expression", tok)


def reference_parse(source: str | SourceFile) -> A.TranslationUnit:
    """Parse C source text (or a :class:`SourceFile`, reusing its
    tokens) into a :class:`~repro.lang.ast_nodes.TranslationUnit`."""
    if isinstance(source, str):
        source = SourceFile("<memory>", source)
    return Parser(source.parser_tokens()).parse_translation_unit()
