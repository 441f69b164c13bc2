"""Forward/backward program slicing on PDGs (paper Step I.3).

Slices start at a :class:`~repro.slicing.special_tokens.SlicingCriterion`
and follow both data- and control-dependence edges — data dependence to
find attack-reachable statements, control dependence to keep the guard
semantics (paper Section III-B, Step I.3).  Interprocedural expansion
follows the call graph: backward through callers of the criterion
function, forward into callees invoked by sliced statements, exactly the
two directions VulDeePecker's formalisation composes gadgets from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.callgraph import AnalyzedProgram
from ..lang.pdg import PDG
from .special_tokens import SlicingCriterion

__all__ = ["Slice", "compute_slice"]


@dataclass
class Slice:
    """An interprocedural slice: per-function sets of CFG node ids.

    ``pdgs`` holds the PDG each function's node ids index into: the
    criterion's function is the definition that holds the criterion
    line, which need not be the one its name looks up.
    """

    criterion: SlicingCriterion
    nodes: dict[str, set[int]] = field(default_factory=dict)
    pdgs: dict[str, PDG] = field(default_factory=dict)

    def add(self, function: str, pdg: PDG, node_ids) -> None:
        """Add the statement nodes among ``node_ids`` of ``pdg``."""
        self.pdgs[function] = pdg
        for node_id in node_ids:
            if pdg.node(node_id).ast is not None:
                self.nodes.setdefault(function, set()).add(node_id)

    def functions(self) -> list[str]:
        return sorted(self.nodes)

    def lines(self) -> dict[str, set[int]]:
        """Per-function source-line sets covered by the slice."""
        return {fn_name: {self.pdgs[fn_name].node(node_id).line
                          for node_id in ids}
                for fn_name, ids in self.nodes.items()}

    def total_nodes(self) -> int:
        return sum(len(ids) for ids in self.nodes.values())


def compute_slice(
    program: AnalyzedProgram,
    criterion: SlicingCriterion,
    *,
    use_control: bool = True,
    interprocedural: bool = True,
    max_functions: int = 12,
) -> Slice:
    """Compute the combined forward+backward slice of a criterion.

    Args:
        program: analyzed program.
        criterion: the special token anchoring the slice.
        use_control: include control-dependence edges (switching this
            off reproduces VulDeePecker's data-only gadgets).
        interprocedural: expand through the call graph.
        max_functions: hard cap on visited functions (defensive bound
            for pathological call graphs).
    """
    result = Slice(criterion)
    if criterion.function not in program.pdgs:
        return result
    pdg = program.pdgs.containing(criterion.function, criterion.line)
    start = {n.id for n in pdg.nodes_on_line(criterion.line)}
    if not start:
        return result

    result.add(criterion.function, pdg,
               pdg.backward_closure(start, control=use_control)
               | pdg.forward_closure(start, control=use_control))

    if not interprocedural:
        return result

    # Backward interprocedural step: the criterion's function may be
    # reached from callers; their call-site statements (and everything
    # those depend on) belong to the backward slice.
    visited = {criterion.function}
    frontier = [criterion.function]
    while frontier and len(visited) < max_functions:
        callee = frontier.pop()
        for site in program.call_graph.sites_calling(callee,
                                                     result.pdgs):
            if site.caller in visited or site.caller not in program.pdgs:
                continue
            visited.add(site.caller)
            frontier.append(site.caller)
            seed = {
                s.node_id
                for s in program.call_graph.sites_calling(callee,
                                                          result.pdgs)
                if s.caller == site.caller
            }
            caller_pdg = program.pdg(site.caller)
            result.add(site.caller, caller_pdg,
                       caller_pdg.backward_closure(
                           seed, control=use_control))

    # Forward interprocedural step: calls made *by sliced statements*
    # carry data into callees; take the callee-side forward slice from
    # its entry (parameters).  Call sites come from the PDG the slice
    # indexes, so the criterion's own definition is the one searched.
    sliced_functions = list(result.nodes)
    for fn_name in sliced_functions:
        if len(visited) >= max_functions:
            break
        sliced_ids = result.nodes[fn_name]
        for callee, call_nodes in \
                result.pdgs[fn_name].calls_made().items():
            if callee in visited or callee not in program.pdgs or \
                    sliced_ids.isdisjoint(n.id for n in call_nodes):
                continue
            visited.add(callee)
            callee_pdg = program.pdg(callee)
            result.add(callee, callee_pdg,
                       callee_pdg.forward_closure(
                           {callee_pdg.cfg.entry.id},
                           control=use_control))
    return result
