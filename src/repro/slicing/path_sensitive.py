"""Algorithm 1 — path-sensitive code gadget generation (paper Step I.4).

The algorithm augments a slice with the *control ranges* it crosses so
that scope boundaries — which branch a statement actually lives in —
survive into the gadget text:

a) build the AST and find *key nodes* matching the eight control-
   statement syntax characteristics (``if``, ``else if``, ``else``,
   ``for``, ``while``, ``do while``, ``switch``, ``case``);
b) a key node's control range is the [min, max] line span of its
   subtree;
c) semantically-related adjacent ranges are *bound* (``else if``/
   ``else`` to their ``if`` chain, ``case`` to its ``switch``);
d) a brace-matching stack pass fixes range ends that the AST under-
   approximates (e.g. a one-line body whose closing brace sits on a
   later line);
e) every range containing a sliced statement is inserted into the
   slice: its header line and its end line become ``control-header`` /
   ``control-end`` gadget lines, as do the headers of bound ranges;
f) statements are ordered by line within functions and caller-before-
   callee across functions.

``goto``/``setjmp`` style jumps are *not* key nodes: their successors
already appear in the forward/backward slices (paper Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..lang import ast_nodes as A
from ..lang.callgraph import AnalyzedProgram
from ..lang.lexer import Token, TokenKind, tokenize
from .gadget import CodeGadget, GadgetLine, assemble_once, order_functions
from .slicer import Slice, compute_slice
from .special_tokens import SlicingCriterion

__all__ = ["ControlRange", "extract_control_ranges", "brace_ranges",
           "brace_pairs", "assemble_path_sensitive_gadget",
           "path_sensitive_gadget"]


@dataclass
class ControlRange:
    """One key node's control range (Algorithm 1 ``m`` entries).

    Attributes:
        kind: one of the eight syntax characteristics.
        header_line: line of the controlling keyword.
        start: first line of the controlled span.
        end: last line of the controlled span (closing brace included).
        bound: header lines of semantically-bound sibling ranges
            (``if``/``else if`` chain for an ``else``, the ``switch``
            for a ``case``).
    """

    kind: str
    header_line: int
    start: int
    end: int
    bound: list[int] = field(default_factory=list)

    def contains(self, line: int) -> bool:
        return self.start <= line <= self.end


def _subtree_max_line(node: A.Node) -> int:
    best = node.line
    for child in A.walk(node):
        best = max(best, child.line)
        if isinstance(child, A.Block):
            best = max(best, child.end_line)
        elif isinstance(child, A.Switch):
            best = max(best, child.end_line)
        elif isinstance(child, A.DoWhile):
            best = max(best, child.while_line)
    return best


def _subtree_min_line(node: A.Node) -> int:
    best = node.line
    for child in A.walk(node):
        if child.line:
            best = min(best, child.line)
    return best


def brace_ranges(source_lines: list[str]) -> list[tuple[int, int]]:
    """Match ``{``/``}`` pairs with a stack (Algorithm 1 lines 15-18).

    Returns (open_line, close_line) pairs, 1-based: the lines' ``{``/``}``
    punctuator tokens, so braces in literals and comments never count
    (directive lines do: ``#define X {`` opens one).
    """
    return brace_pairs(tokenize("\n".join(source_lines)))


def brace_pairs(tokens: Iterable[Token]) -> list[tuple[int, int]]:
    """:func:`brace_ranges` over an already-lexed raw token stream."""
    pairs: list[tuple[int, int]] = []
    stack: list[int] = []
    for tok in tokens:
        if tok.kind is TokenKind.PUNCT:
            if tok.text == "{":
                stack.append(tok.line)
            elif tok.text == "}" and stack:
                pairs.append((stack.pop(), tok.line))
    return pairs


class _RangeCollector:
    def __init__(self, function: A.FunctionDef,
                 braces: list[tuple[int, int]]):
        self.function = function
        self.ranges: list[ControlRange] = []
        self._brace_end = {open_line: close_line
                           for open_line, close_line in braces}

    def collect(self) -> list[ControlRange]:
        self._visit(self.function.body, chain=[])
        return self.ranges

    def _fix_end(self, start: int, end: int) -> int:
        """Extend a range end to its closing brace when the stack pass
        found a later one (Algorithm 1: m[1] <- Max(m[1], stack))."""
        for open_line in range(start, end + 1):
            close = self._brace_end.get(open_line)
            if close is not None and close > end:
                end = close
        return end

    def _add(self, kind: str, header: int, body: A.Node,
             bound: list[int]) -> ControlRange:
        start = min(header, _subtree_min_line(body))
        end = self._fix_end(start, max(header, _subtree_max_line(body)))
        range_ = ControlRange(kind, header, start, end, list(bound))
        self.ranges.append(range_)
        return range_

    def _visit(self, node: A.Node, chain: list[int]) -> None:
        if isinstance(node, A.If):
            kind = "elseif" if node.is_elseif else "if"
            own_chain = chain if node.is_elseif else []
            range_ = self._add(kind, node.line, node.then, own_chain)
            next_chain = own_chain + [node.line]
            self._visit(node.then, [])
            if node.otherwise is not None:
                if isinstance(node.otherwise, A.If) and \
                        node.otherwise.is_elseif:
                    self._visit(node.otherwise, next_chain)
                else:
                    header = node.else_line or node.otherwise.line
                    self._add("else", header, node.otherwise, next_chain)
                    self._visit(node.otherwise, [])
            return
        if isinstance(node, A.For):
            self._add("for", node.line, node.body, [])
        elif isinstance(node, A.While):
            self._add("while", node.line, node.body, [])
        elif isinstance(node, A.DoWhile):
            range_ = self._add("dowhile", node.line, node.body, [])
            range_.end = max(range_.end, node.while_line)
        elif isinstance(node, A.Switch):
            switch_range = ControlRange("switch", node.line, node.line,
                                        max(node.end_line,
                                            _subtree_max_line(node)))
            self.ranges.append(switch_range)
            for case in node.cases:
                if case.stmts:
                    end = max(_subtree_max_line(stmt)
                              for stmt in case.stmts)
                else:
                    end = case.line
                end = self._fix_end(case.line, end)
                self.ranges.append(
                    ControlRange("case", case.line, case.line, end,
                                 [node.line]))
        for child in node.children():
            if not isinstance(node, A.If):
                self._visit(child, [])


def extract_control_ranges(program: AnalyzedProgram,
                           function: str) -> list[ControlRange]:
    """All control ranges of one function (Algorithm 1 lines 4-18).

    Memoized per program object: assembling one gadget per slicing
    criterion revisits the same functions dozens of times per file, and
    the brace pairs cover the *whole* source.  Programs are analyzed
    once and never mutated afterwards, so both the brace pairs (from
    the source's one token stream) and each function's collected
    ranges are cached on the instance (callers must not mutate the
    returned list).
    """
    fn = program.unit.function(function)
    return [] if fn is None else _function_ranges(program, fn)


def _function_ranges(program: AnalyzedProgram,
                     fn: A.FunctionDef) -> list[ControlRange]:
    """Memoized control ranges of one definition (one name may have
    several: ``#ifdef`` variants)."""
    cache = program._control_range_cache
    key = (fn.name, fn.line)
    if key not in cache:
        if program._brace_pairs is None:
            program._brace_pairs = brace_pairs(program.source.tokens)
        cache[key] = _RangeCollector(fn, program._brace_pairs).collect()
    return cache[key]


def assemble_path_sensitive_gadget(program: AnalyzedProgram,
                                   slice_: Slice) -> CodeGadget:
    """Insert crossed control ranges into the slice and order it
    (Algorithm 1 lines 19-36)."""
    criterion = slice_.criterion
    per_function = slice_.lines()
    lines: list[GadgetLine] = []
    for fn_name in order_functions(program, list(per_function),
                                   slice_.pdgs):
        slice_lines = per_function[fn_name]
        ranges = _function_ranges(program,
                                  slice_.pdgs[fn_name].cfg.function)
        headers: set[int] = set()
        ends: set[int] = set()
        for range_ in ranges:
            if any(range_.start <= line <= range_.end
                   for line in slice_lines):
                headers.add(range_.header_line)
                ends.add(range_.end)
                headers.update(range_.bound)
        ordered = sorted(slice_lines | headers | ends)
        for line_no in ordered:
            text = program.statement_text(line_no)
            if not text:
                continue
            if fn_name == criterion.function and \
                    line_no == criterion.line:
                role = "criterion"
            elif line_no in slice_lines:
                role = "slice"
            elif line_no in headers:
                role = "control-header"
            else:
                role = "control-end"
            lines.append(GadgetLine(fn_name, line_no, text, role))
    return CodeGadget(criterion, lines, kind="path-sensitive",
                      source_path=program.source.path)


def path_sensitive_gadget(program: AnalyzedProgram,
                          criterion: SlicingCriterion) -> CodeGadget:
    """Slice + Algorithm 1 in one call (the SEVulDet pipeline)."""
    slice_ = compute_slice(program, criterion, use_control=True)
    return assemble_once(program, slice_, assemble_path_sensitive_gadget)
