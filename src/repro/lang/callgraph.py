"""Call graph and the whole-program analysis facade.

:class:`AnalyzedProgram` is the single entry point the slicing layer
uses: parse once, build each function's PDG when a slice first reaches
it, and expose the call graph for interprocedural slice assembly
(paper Algorithm 1, lines 32-36).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from . import ast_nodes as A
from .cfg import CFGNode
from .parser import parse
from .pdg import PDG, build_pdg
from .source import SourceFile

__all__ = ["CallSite", "CallGraph", "AnalyzedProgram", "analyze",
           "ast_call_edges"]


def ast_call_edges(unit: A.TranslationUnit) -> dict[str, list[str]]:
    """Per-caller callee lists from a plain AST walk (defined-only).

    The CFG (and therefore the PDG) is derived from the AST, so every
    PDG-visible call site corresponds to an AST ``Call`` node: this
    edge set is a *superset* of the PDG-visible calls.  That
    makes it safe for invalidation/reachability questions (it can only
    over-approximate) and cheap enough to compute without building a
    single PDG — the property the incremental-scanning fingerprint
    layer relies on.  Callee order follows AST pre-order; duplicates
    are dropped.  A name defined more than once (``#ifdef`` variants)
    gets the callees of every definition.
    """
    defined = {fn.name for fn in unit.functions}
    edges: dict[str, list[str]] = {}
    for fn in unit.functions:
        seen = edges.setdefault(fn.name, [])
        for node in fn.body_nodes:
            if isinstance(node, A.Call):
                callee = node.callee_name
                if callee in defined and callee not in seen:
                    seen.append(callee)
    return edges


@dataclass(frozen=True)
class CallSite:
    """One syntactic call from ``caller`` to ``callee``."""

    caller: str
    callee: str
    node_id: int  # CFG node id inside the caller
    line: int


class _LazyPDGMap:
    """Mapping facade that builds each function's PDG on first access.

    Satisfies the (small) protocol the slicing layer uses on
    ``AnalyzedProgram.pdgs`` — membership tests and item access — while
    deferring ``build_pdg`` until a function is actually sliced.  A
    warm incremental re-scan only touches the invalidated
    neighbourhood, so most functions' PDGs are never built at all.

    A file may define one name more than once (``#ifdef``/``#else``
    variants: preprocessing blanks the directives and keeps every
    body).  Item access by name sees the last definition;
    :meth:`containing` picks the one whose span holds a given line.
    """

    def __init__(self, unit: A.TranslationUnit):
        self._variants: dict[str, list[A.FunctionDef]] = {}
        for fn in unit.functions:
            self._variants.setdefault(fn.name, []).append(fn)
        self._built: dict[int, PDG] = {}

    def _build(self, fn: A.FunctionDef) -> PDG:
        pdg = self._built.get(id(fn))
        if pdg is None:
            pdg = build_pdg(fn)
            self._built[id(fn)] = pdg
        return pdg

    def __contains__(self, name: object) -> bool:
        return name in self._variants

    def __getitem__(self, name: str) -> PDG:
        return self._build(self._variants[name][-1])

    def containing(self, name: str, line: int) -> PDG:
        """PDG of the definition of ``name`` whose span holds ``line``
        (the last definition when none does)."""
        variants = self._variants[name]
        for fn in variants:
            if fn.line <= line <= (fn.body.end_line or fn.line):
                return self._build(fn)
        return self._build(variants[-1])

    def __iter__(self) -> Iterator[str]:
        return iter(self._variants)

    def __len__(self) -> int:
        return len(self._variants)


class CallGraph:
    """Static call graph over the functions defined in one program.

    Edges (``callers`` / ``callees`` / ``calls``) are
    :func:`ast_call_edges` — a safe superset of the PDG-visible calls,
    built without any PDG.  Site queries (``sites_calling`` /
    ``sites_among``) build each caller's :class:`CallSite` list from
    its PDG on first use: callers in source order, and within one
    caller in ``PDG.calls_made`` order, so a slice visits functions in
    one fixed order.

    A name defined more than once (``#ifdef`` variants) has one PDG per
    definition.  Site queries take the slice's ``pdgs`` (name -> the
    PDG the slice reads that function from; for the criterion's
    function, the definition holding the criterion line, found by
    :meth:`_LazyPDGMap.containing`), so sites come from the body the
    slice holds; a name the mapping lacks reads its last definition.
    """

    def __init__(self, unit: A.TranslationUnit, pdgs: _LazyPDGMap):
        self.edges = ast_call_edges(unit)
        self._pdgs = pdgs
        # keyed by PDG identity: _LazyPDGMap keeps every PDG it built
        self._sites: dict[int, list[CallSite]] = {}
        self._callers: dict[str, set[str]] = {n: set() for n in self.edges}
        for caller, callees in self.edges.items():
            for callee in callees:
                self._callers[callee].add(caller)

    def callees(self, name: str) -> set[str]:
        return set(self.edges.get(name, ()))

    def callers(self, name: str) -> set[str]:
        return set(self._callers.get(name, ()))

    def calls(self, caller: str, callee: str) -> bool:
        return callee in self.edges.get(caller, ())

    def _sites_of(self, caller: str,
                  pdgs: Mapping[str, PDG] | None) -> list[CallSite]:
        pdg = pdgs.get(caller) if pdgs else None
        if pdg is None:
            pdg = self._pdgs[caller]
        sites = self._sites.get(id(pdg))
        if sites is None:
            sites = [CallSite(caller, callee, node.id, node.line)
                     for callee, nodes in pdg.calls_made().items()
                     if callee in self.edges
                     for node in nodes]
            self._sites[id(pdg)] = sites
        return sites

    def sites_calling(self, callee: str,
                      pdgs: Mapping[str, PDG] | None = None
                      ) -> list[CallSite]:
        # AST edges over-approximate, so a false edge only builds a
        # PDG that then yields no matching site
        return [site for caller, callees in self.edges.items()
                if callee in callees
                for site in self._sites_of(caller, pdgs)
                if site.callee == callee]

    def sites_among(self, names: Iterable[str],
                    pdgs: Mapping[str, PDG] | None = None
                    ) -> list[CallSite]:
        """Call sites whose caller *and* callee are both in ``names``.

        Only callers with an edge into ``names`` build their sites, so
        ordering a slice's functions never touches unrelated PDGs.
        """
        wanted = set(names)
        return [site for caller, callees in self.edges.items()
                if caller in wanted and not wanted.isdisjoint(callees)
                for site in self._sites_of(caller, pdgs)
                if site.callee in wanted]


@dataclass
class AnalyzedProgram:
    """Parsed program: AST, per-function PDGs, call graph.

    Only the parse happens up front.  Each function's PDG is built on
    first access (``program.pdgs[...]`` / :meth:`pdg`) and the call
    graph builds its sites per caller on demand, so slicing a file pays
    only for the functions its slices reach.
    """

    source: SourceFile
    unit: A.TranslationUnit
    pdgs: _LazyPDGMap = field(init=False)
    call_graph: CallGraph = field(init=False)
    # per-function control ranges and the file's brace pairs,
    # memoized by repro.slicing.path_sensitive.extract_control_ranges
    _control_range_cache: dict = field(default_factory=dict, init=False,
                                       repr=False)
    _brace_pairs: list[tuple[int, int]] | None = field(
        default=None, init=False, repr=False)
    # repro.slicing.gadget.assemble_once: one gadget per distinct slice
    _gadget_cache: dict = field(default_factory=dict, init=False,
                                repr=False)

    def __post_init__(self) -> None:
        self.pdgs = _LazyPDGMap(self.unit)
        self.call_graph = CallGraph(self.unit, self.pdgs)

    @property
    def function_names(self) -> list[str]:
        return [f.name for f in self.unit.functions]

    def pdg(self, name: str) -> PDG:
        return self.pdgs[name]

    def node_at(self, function: str, line: int) -> CFGNode | None:
        """First statement node on ``line`` of ``function``."""
        nodes = self.pdgs[function].nodes_on_line(line)
        return nodes[0] if nodes else None

    def statement_text(self, line: int) -> str:
        return self.source.line(line).strip()


def analyze(source_text: str, path: str = "<memory>") -> AnalyzedProgram:
    """Parse C source text; PDGs and call sites follow on demand."""
    source = SourceFile(path, source_text)
    return AnalyzedProgram(source, parse(source))
