"""Program Dependence Graph (paper Definition 6).

A :class:`PDG` combines the labelled control-dependence edges from
:mod:`repro.lang.dominance` with the data-dependence edges from
:mod:`repro.lang.dataflow` over one function's CFG nodes.  Slicing
(Step I.3 of the paper) is reachability over these edges.
"""

from __future__ import annotations

from .cfg import CFG, CFGNode, build_cfg
from .dataflow import DefUse, collect_def_use, data_dependences
from .dominance import control_dependences
from . import ast_nodes as A

__all__ = ["PDG", "build_pdg"]

_KINDS = ("data", "control")


class PDG:
    """Dependence graph of a single function.

    Nodes are CFG node ids.  :attr:`edges` lists ``(src, dst, kind,
    label)`` with ``kind`` ``"data"`` (labelled by the variable) or
    ``"control"`` (labelled by the branch); per-kind successor and
    predecessor maps serve the slicing closures.  The line index and
    call map are built once and shared by every slice: callers must
    not mutate what :meth:`nodes_on_line` and :meth:`calls_made` return.
    """

    def __init__(self, cfg: CFG, def_use: dict[int, DefUse]):
        self.cfg = cfg
        self.def_use = def_use
        self.edges: list[tuple[int, int, str, str]] = []
        self.succ: dict[str, dict[int, list[int]]] = {k: {} for k in _KINDS}
        self.pred: dict[str, dict[int, list[int]]] = {k: {} for k in _KINDS}
        self._on_line: dict[int, list[CFGNode]] = {}
        self._calls: dict[str, list[CFGNode]] = {}
        for node in cfg.statement_nodes():
            self._on_line.setdefault(node.line, []).append(node)
            for name in def_use[node.id].called:
                self._calls.setdefault(name, []).append(node)

    @property
    def function_name(self) -> str:
        return self.cfg.function.name

    def add_edge(self, src: CFGNode, dst: CFGNode, kind: str,
                 label: str) -> None:
        self.edges.append((src.id, dst.id, kind, label))
        self.succ[kind].setdefault(src.id, []).append(dst.id)
        self.pred[kind].setdefault(dst.id, []).append(src.id)

    def node(self, node_id: int) -> CFGNode:
        return self.cfg.nodes[node_id]

    def nodes_on_line(self, line: int) -> list[CFGNode]:
        """Statement nodes whose source line equals ``line``."""
        return self._on_line.get(line, [])

    def data_edges(self) -> list[tuple[int, int, str]]:
        return [(u, v, var) for u, v, kind, var in self.edges
                if kind == "data"]

    def control_edges(self) -> list[tuple[int, int, str]]:
        return [(u, v, branch) for u, v, kind, branch in self.edges
                if kind == "control"]

    def backward_closure(self, start_ids: set[int], *,
                         data: bool = True,
                         control: bool = True) -> set[int]:
        """Node ids reachable *backwards* from ``start_ids``."""
        return self._closure(start_ids, self.pred, data=data,
                             control=control)

    def forward_closure(self, start_ids: set[int], *,
                        data: bool = True,
                        control: bool = True) -> set[int]:
        """Node ids reachable *forwards* from ``start_ids``."""
        return self._closure(start_ids, self.succ, data=data,
                             control=control)

    @staticmethod
    def _closure(start_ids: set[int],
                 adjacency: dict[str, dict[int, list[int]]], *,
                 data: bool, control: bool) -> set[int]:
        maps = [adjacency[kind] for kind, wanted
                in zip(_KINDS, (data, control)) if wanted]
        visited = set(start_ids)
        stack = list(start_ids)
        while stack:
            current = stack.pop()
            for neighbours in maps:
                for nb in neighbours.get(current, ()):
                    if nb not in visited:
                        visited.add(nb)
                        stack.append(nb)
        return visited

    def calls_made(self) -> dict[str, list[CFGNode]]:
        """Callee name -> list of CFG nodes containing a call to it."""
        return self._calls


def build_pdg(function: A.FunctionDef) -> PDG:
    """Build the PDG of one function (CFG + dependences)."""
    cfg = build_cfg(function)
    def_use = collect_def_use(cfg)
    pdg = PDG(cfg, def_use)
    for src, dst, var in data_dependences(cfg, def_use):
        pdg.add_edge(src, dst, "data", var)
    for controller, dependent, branch in control_dependences(cfg):
        pdg.add_edge(controller, dependent, "control", branch)
    return pdg
