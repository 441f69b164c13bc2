"""Special-token identification (paper Step I.2, Definition 4).

SEVulDet focuses on the four syntactic vulnerability carriers SySeVR
defined: **library/API function calls (FC)**, **array usage (AU)**,
**pointer usage (PU)**, and **arithmetic expressions (AE)**.  Every
occurrence becomes a :class:`SlicingCriterion` anchoring a slice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..lang import ast_nodes as A
from ..lang.callgraph import AnalyzedProgram
from ..lang.dataflow import LIBRARY_FUNCTIONS

__all__ = ["TokenCategory", "SlicingCriterion", "find_special_tokens"]


class TokenCategory(enum.Enum):
    """The four special-token families (paper Table I rows)."""

    FUNCTION_CALL = "FC"
    ARRAY_USAGE = "AU"
    POINTER_USAGE = "PU"
    ARITHMETIC_EXPR = "AE"


@dataclass(frozen=True)
class SlicingCriterion:
    """One special token: where a slice starts.

    Attributes:
        function: enclosing function name.
        line: 1-based source line of the token.
        category: FC/AU/PU/AE.
        token: the token text (callee name, array/pointer variable, or
            the operator of an arithmetic expression).
    """

    function: str
    line: int
    category: TokenCategory
    token: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{self.category.value}:{self.token}@"
                f"{self.function}:{self.line}")


#: The high-risk library calls that anchor FC criteria (the SySeVR list
#: is 811 functions; this is its intersection with our frontend's
#: library model — every function the corpus generator can emit).
FC_TARGETS = frozenset(
    {
        "memcpy", "memmove", "memset", "strcpy", "strncpy", "strcat",
        "strncat", "sprintf", "snprintf", "vsprintf", "vsnprintf", "gets",
        "fgets", "fread", "read", "recv", "recvfrom", "scanf", "fscanf",
        "sscanf", "getcwd", "realpath", "gethostname", "malloc", "calloc",
        "realloc", "free", "alloca", "strlen", "strtok", "atoi", "strtol",
        "system", "popen", "execl", "execv", "execvp", "printf", "fprintf",
        "wcscpy", "wcsncpy", "wcscat",
    }
)


def _ident_names(expr: A.Expr) -> set[str]:
    names: set[str] = set()
    for node in A.walk(expr):
        if isinstance(node, A.Ident):
            names.add(node.name)
    return names


class _Collector:
    def __init__(self, function: A.FunctionDef):
        self.function = function
        self.criteria: list[SlicingCriterion] = []
        self._seen: set[tuple[int, TokenCategory, str]] = set()
        self._pointer_vars = {p.name for p in function.params
                              if p.pointer_depth > 0}
        self._array_vars = {p.name for p in function.params if p.is_array}
        for node in function.body_nodes:
            if isinstance(node, A.Decl):
                for d in node.declarators:
                    if d.is_pointer:
                        self._pointer_vars.add(d.name)
                    if d.is_array:
                        self._array_vars.add(d.name)

    def _add(self, line: int, category: TokenCategory, token: str) -> None:
        key = (line, category, token)
        if key not in self._seen:
            self._seen.add(key)
            self.criteria.append(
                SlicingCriterion(self.function.name, line, category, token))

    def collect(self) -> list[SlicingCriterion]:
        for node in self.function.body_nodes:
            self._visit(node)
        return self.criteria

    def _visit(self, node: A.Node) -> None:
        if isinstance(node, A.Call):
            name = node.callee_name
            if name is not None and name in FC_TARGETS:
                self._add(node.line, TokenCategory.FUNCTION_CALL, name)
        elif isinstance(node, A.Index):
            # Indexing a declared array is array usage; indexing a raw
            # pointer is pointer usage (SySeVR's taxonomy).
            base_names = _ident_names(node.base)
            array_hits = sorted(base_names & self._array_vars)
            pointer_hits = sorted((base_names & self._pointer_vars)
                                  - self._array_vars)
            for name in array_hits:
                self._add(node.line, TokenCategory.ARRAY_USAGE, name)
            for name in pointer_hits:
                self._add(node.line, TokenCategory.POINTER_USAGE, name)
            if not array_hits and not pointer_hits:
                for name in sorted(base_names):
                    self._add(node.line, TokenCategory.ARRAY_USAGE, name)
        elif isinstance(node, A.Unary) and node.op == "*" and node.prefix:
            for name in sorted(_ident_names(node.operand)
                               & self._pointer_vars):
                self._add(node.line, TokenCategory.POINTER_USAGE, name)
        elif isinstance(node, A.Member) and node.arrow:
            for name in sorted(_ident_names(node.base)):
                self._add(node.line, TokenCategory.POINTER_USAGE, name)
        elif isinstance(node, A.Decl):
            for d in node.declarators:
                if d.is_pointer:
                    self._add(node.line, TokenCategory.POINTER_USAGE, d.name)
        elif isinstance(node, A.Assign) and node.op in \
                ("+=", "-=", "*=", "/=", "%=", "<<=", ">>="):
            self._add(node.line, TokenCategory.ARITHMETIC_EXPR,
                      node.op.rstrip("="))
        elif isinstance(node, A.Binary) and node.op in ("+", "-", "*", "/",
                                                        "%"):
            if self._is_integer_arith(node):
                self._add(node.line, TokenCategory.ARITHMETIC_EXPR, node.op)

    @staticmethod
    def _is_integer_arith(node: A.Binary) -> bool:
        """Arithmetic over at least one variable (constant folds are
        uninteresting as vulnerability anchors)."""
        return any(isinstance(n, A.Ident) for n in A.walk(node))


def find_special_tokens(
    program: AnalyzedProgram,
    categories: frozenset[TokenCategory] | None = None,
) -> list[SlicingCriterion]:
    """All special tokens of a program, in (function, line) order.

    Args:
        program: analyzed program.
        categories: restrict to these categories (default: all four).
    """
    wanted = categories or frozenset(TokenCategory)
    criteria: list[SlicingCriterion] = []
    for fn in program.unit.functions:
        criteria.extend(_Collector(fn).collect())
    criteria = [c for c in criteria if c.category in wanted]
    criteria.sort(key=lambda c: (c.function, c.line, c.category.value,
                                 c.token))
    return criteria
