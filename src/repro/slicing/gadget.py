"""Code-gadget assembly (paper Definition 5, Fig 1 Step III).

A *classic* code gadget is the brute stack the paper criticises: slice
statements grouped by function, functions ordered by call relationship,
statements within a function ordered by line number — and nothing else.
No scope boundaries survive, which is exactly why the guarded and
unguarded programs of Fig 1 produce identical classic gadgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..lang.callgraph import AnalyzedProgram
from ..lang.pdg import PDG
from .slicer import Slice, compute_slice
from .special_tokens import SlicingCriterion

__all__ = ["GadgetLine", "CodeGadget", "order_functions",
           "assemble_classic_gadget", "assemble_once", "classic_gadget"]


@dataclass(frozen=True)
class GadgetLine:
    """One line of a gadget with provenance.

    ``role`` is ``"slice"`` for sliced statements, ``"criterion"`` for
    the special-token line, and (path-sensitive gadgets only)
    ``"control-header"`` / ``"control-end"`` for Algorithm 1's inserted
    scope boundaries.
    """

    function: str
    line: int
    text: str
    role: str = "slice"


@dataclass
class CodeGadget:
    """An ordered sequence of gadget lines plus metadata."""

    criterion: SlicingCriterion
    lines: list[GadgetLine]
    kind: str = "classic"  # 'classic' | 'path-sensitive'
    label: int | None = None
    source_path: str = ""
    extra: dict = field(default_factory=dict)

    def text(self) -> str:
        """The gadget body as newline-joined statement texts."""
        return "\n".join(line.text for line in self.lines)

    def line_numbers(self) -> list[int]:
        return [line.line for line in self.lines]

    def functions(self) -> list[str]:
        seen: list[str] = []
        for line in self.lines:
            if line.function not in seen:
                seen.append(line.function)
        return seen

    def __len__(self) -> int:
        return len(self.lines)


def order_functions(program: AnalyzedProgram,
                    function_names: list[str],
                    pdgs: Mapping[str, PDG] | None = None) -> list[str]:
    """Order slice functions caller-before-callee (paper Step III).

    Call sites are read from ``pdgs`` (a slice's ``pdgs``: the body of
    each function the slice holds, which for an ``#ifdef``-duplicated
    name need not be its last definition).  Functions unreachable from
    each other keep their source order.  A call cycle (recursion) among
    them falls back to plain source order.
    """
    wanted = set(function_names)
    callees: dict[str, set[str]] = {name: set() for name in wanted}
    for site in program.call_graph.sites_among(wanted, pdgs):
        callees[site.caller].add(site.callee)
    indegree = dict.fromkeys(wanted, 0)
    for targets in callees.values():
        for callee in targets:
            indegree[callee] += 1
    source_order = {fn.name: index
                    for index, fn in enumerate(program.unit.functions)}

    def rank(name: str) -> int:
        return source_order.get(name, 1 << 30)

    # Kahn's algorithm, one layer (topological generation) at a time
    ordered: list[str] = []
    layer = [name for name in wanted if not indegree[name]]
    while layer:
        layer.sort(key=rank)
        ordered.extend(layer)
        successors: list[str] = []
        for name in layer:
            for callee in callees[name]:
                indegree[callee] -= 1
                if not indegree[callee]:
                    successors.append(callee)
        layer = successors
    if len(ordered) < len(wanted):  # a cycle left some never free
        return sorted(wanted, key=rank)
    return ordered


def assemble_classic_gadget(program: AnalyzedProgram,
                            slice_: Slice) -> CodeGadget:
    """Stack the slice's statements into a classic code gadget."""
    criterion = slice_.criterion
    per_function = slice_.lines()
    lines: list[GadgetLine] = []
    for fn_name in order_functions(program, list(per_function),
                                   slice_.pdgs):
        for line_no in sorted(per_function[fn_name]):
            text = program.statement_text(line_no)
            if not text:
                continue
            role = "criterion" if (fn_name == criterion.function
                                   and line_no == criterion.line) else "slice"
            lines.append(GadgetLine(fn_name, line_no, text, role))
    return CodeGadget(criterion, lines, kind="classic",
                      source_path=program.source.path)


def assemble_once(program: AnalyzedProgram, slice_: Slice,
                  assemble: Callable[[AnalyzedProgram, Slice], CodeGadget]
                  ) -> CodeGadget:
    """``assemble(program, slice_)``, run once per distinct slice.

    An assembler reads only each sliced function's PDG (kept as long as
    ``program``, so keyed by identity) and line set, and the criterion's
    line.  A later criterion with an equal slice gets a copy re-roled
    for it: the old criterion line, always in its own slice, becomes
    ``slice`` and the new criterion line becomes ``criterion``.
    """
    key = (assemble, frozenset((name, id(slice_.pdgs[name]),
                                frozenset(lines))
                               for name, lines in slice_.lines().items()))
    made = program._gadget_cache.get(key)
    if made is None:
        made = program._gadget_cache[key] = assemble(program, slice_)
    new = slice_.criterion
    lines = [GadgetLine(line.function, line.line, line.text, "criterion")
             if line.line == new.line and line.function == new.function
             else GadgetLine(line.function, line.line, line.text, "slice")
             if line.role == "criterion" else line
             for line in made.lines]
    return CodeGadget(new, lines, kind=made.kind,
                      source_path=made.source_path)


def classic_gadget(program: AnalyzedProgram, criterion: SlicingCriterion,
                   *, use_control: bool = True) -> CodeGadget:
    """Slice + assemble in one call (the CG baseline pipeline)."""
    slice_ = compute_slice(program, criterion, use_control=use_control)
    return assemble_once(program, slice_, assemble_classic_gadget)
