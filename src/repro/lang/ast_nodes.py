"""AST node classes for the C subset.

Every node carries ``line``/``col`` of the source token that opened it;
line numbers are the currency Algorithm 1 (path-sensitive gadget
generation) trades in, so they must be accurate.

Nodes expose ``children()`` which yields child nodes in source order,
enabling generic traversal (:func:`walk`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

__all__ = [
    "Node", "Expr", "Stmt",
    "Ident", "Number", "StringLit", "CharLit", "Unary", "Binary",
    "Assign", "Call", "Index", "Member", "Cast", "SizeOf", "Ternary",
    "Comma", "InitList",
    "Declarator", "Decl", "ExprStmt", "Block", "If", "While", "DoWhile",
    "For", "Switch", "Case", "Break", "Continue", "Return", "Goto",
    "Label", "Empty",
    "Param", "FunctionDef", "StructDef", "TranslationUnit",
    "walk",
]


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int
    col: int

    def children(self) -> Iterator["Node"]:
        """Yield child nodes in source order."""
        return iter(())


class Expr(Node):
    """Marker base class for expressions."""


class Stmt(Node):
    """Marker base class for statements."""


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Number(Expr):
    text: str

    @property
    def value(self) -> float:
        text = self.text.rstrip("uUlLfF")
        if text.lower().startswith("0x"):
            return int(text, 16)
        if "." in text or "e" in text.lower():
            return float(text)
        return int(text)


@dataclass
class StringLit(Expr):
    text: str  # includes the surrounding quotes

    @property
    def value(self) -> str:
        body = self.text[1:-1] if len(self.text) >= 2 else ""
        return (
            body.replace("\\n", "\n")
            .replace("\\t", "\t")
            .replace("\\0", "\0")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )


@dataclass
class CharLit(Expr):
    text: str  # includes the surrounding quotes

    @property
    def value(self) -> int:
        body = self.text[1:-1] if len(self.text) >= 2 else "\0"
        if body.startswith("\\"):
            escapes = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'"}
            body = escapes.get(body[1:], body[1:] or "\0")
        return ord(body[0]) if body else 0


@dataclass
class Unary(Expr):
    op: str
    operand: Expr
    prefix: bool = True

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass
class Assign(Expr):
    op: str  # '=', '+=', ...
    target: Expr
    value: Expr

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value


@dataclass
class Call(Expr):
    func: Expr
    args: list[Expr]

    def children(self) -> Iterator[Node]:
        yield self.func
        yield from self.args

    @property
    def callee_name(self) -> Optional[str]:
        """Function name when the callee is a plain identifier."""
        return self.func.name if isinstance(self.func, Ident) else None


@dataclass
class Index(Expr):
    base: Expr
    index: Expr

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index


@dataclass
class Member(Expr):
    base: Expr
    name: str
    arrow: bool  # True for '->', False for '.'

    def children(self) -> Iterator[Node]:
        yield self.base


@dataclass
class Cast(Expr):
    type_name: str
    expr: Expr

    def children(self) -> Iterator[Node]:
        yield self.expr


@dataclass
class SizeOf(Expr):
    arg: Expr | str  # expression or type name

    def children(self) -> Iterator[Node]:
        if isinstance(self.arg, Node):
            yield self.arg


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        yield self.otherwise


@dataclass
class Comma(Expr):
    left: Expr
    right: Expr

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass
class InitList(Expr):
    """Brace initializer, e.g. ``{1, 2, 3}``."""

    items: list[Expr]

    def children(self) -> Iterator[Node]:
        yield from self.items


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Declarator:
    """One declared name inside a declaration statement."""

    name: str
    pointer_depth: int = 0
    array_sizes: list[Optional[Expr]] = field(default_factory=list)
    init: Optional[Expr] = None

    @property
    def is_array(self) -> bool:
        return bool(self.array_sizes)

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0


@dataclass
class Decl(Stmt):
    type_name: str
    declarators: list[Declarator]

    def children(self) -> Iterator[Node]:
        for d in self.declarators:
            for size in d.array_sizes:
                if size is not None:
                    yield size
            if d.init is not None:
                yield d.init


@dataclass
class ExprStmt(Stmt):
    expr: Expr

    def children(self) -> Iterator[Node]:
        yield self.expr


@dataclass
class Block(Stmt):
    stmts: list[Stmt]
    end_line: int = 0  # line of the closing brace

    def children(self) -> Iterator[Node]:
        yield from self.stmts


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Optional[Stmt] = None
    is_elseif: bool = False  # parsed from an 'else if' chain
    else_line: int = 0       # line of the 'else' keyword, 0 if absent

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        if self.otherwise is not None:
            yield self.otherwise


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.body


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr
    while_line: int = 0

    def children(self) -> Iterator[Node]:
        yield self.body
        yield self.cond


@dataclass
class For(Stmt):
    init: Optional[Stmt]  # Decl or ExprStmt or None
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.cond is not None:
            yield self.cond
        if self.step is not None:
            yield self.step
        yield self.body


@dataclass
class Case(Stmt):
    """A ``case`` or ``default`` label with the statements it covers."""

    value: Optional[Expr]  # None for 'default'
    stmts: list[Stmt] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value
        yield from self.stmts

    @property
    def is_default(self) -> bool:
        return self.value is None


@dataclass
class Switch(Stmt):
    expr: Expr
    cases: list[Case]
    end_line: int = 0

    def children(self) -> Iterator[Node]:
        yield self.expr
        yield from self.cases


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


@dataclass
class Goto(Stmt):
    label: str


@dataclass
class Label(Stmt):
    name: str
    stmt: Stmt

    def children(self) -> Iterator[Node]:
        yield self.stmt


@dataclass
class Empty(Stmt):
    pass


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------


@dataclass
class Param:
    type_name: str
    name: str
    pointer_depth: int = 0
    is_array: bool = False
    line: int = 0


@dataclass
class FunctionDef(Node):
    return_type: str
    name: str
    params: list[Param]
    body: Block

    def children(self) -> Iterator[Node]:
        yield self.body

    @cached_property
    def body_nodes(self) -> tuple[Node, ...]:
        """:func:`walk` of the body, computed once: the call graph and
        special-token identification read the same pre-order list (not
        a dataclass field, so AST equality ignores it)."""
        return tuple(walk(self.body))


@dataclass
class StructDef(Node):
    name: str
    fields: list[tuple[str, str]]  # (type, name)


@dataclass
class TranslationUnit(Node):
    functions: list[FunctionDef]
    globals: list[Decl] = field(default_factory=list)
    structs: list[StructDef] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.globals
        yield from self.functions

    def function(self, name: str) -> Optional[FunctionDef]:
        """Look up a function definition by name."""
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


def walk(node: Node) -> Iterator[Node]:
    """Depth-first pre-order traversal of ``node`` and its descendants."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(current.children())))
