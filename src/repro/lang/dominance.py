"""Dominator / post-dominator analysis and control dependence.

Control dependence follows Ferrante, Ottenstein & Warren (TOPLAS 1987),
the algorithm the paper cites for PDG construction: statement *b* is
control dependent on predicate *a* exactly when *a* has an outgoing CFG
edge whose traversal makes execution of *b* inevitable while some other
edge out of *a* avoids *b*.  Operationally: for each CFG edge (a, b)
where *b* does not post-dominate *a*, every node on the post-dominator
tree path from *b* up to (excluding) ipostdom(a) is control dependent on
*a*, labelled with the edge's branch label.
"""

from __future__ import annotations

from .cfg import CFG, CFGNode

__all__ = [
    "dominator_tree",
    "post_dominator_tree",
    "control_dependences",
]


def _immediate_dominators(succ: dict[int, list[int]],
                          root: int) -> dict[int, int]:
    """Cooper, Harvey & Kennedy's iterative dominator algorithm.

    ``succ`` maps every node id to its successor ids.  Returns the
    immediate dominator of every node reachable from ``root``, with
    the root mapped to itself.
    """
    postorder: list[int] = []
    seen = {root}
    stack = [(root, iter(succ[root]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(succ[child])))
                break
        else:
            stack.pop()
            postorder.append(node)
    rank = {node: index for index, node in enumerate(postorder)}
    preds: dict[int, list[int]] = {node: [] for node in postorder}
    for node in postorder:
        for child in succ[node]:
            preds[child].append(node)

    idom = {root: root}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rank[a] < rank[b]:
                a = idom[a]
            while rank[b] < rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reversed(postorder[:-1]):  # reverse postorder
            new_idom = None
            for pred in preds[node]:
                if pred in idom:
                    new_idom = (pred if new_idom is None
                                else intersect(pred, new_idom))
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def dominator_tree(cfg: CFG) -> dict[int, int]:
    """Immediate dominators keyed by node id (entry maps to itself).

    Nodes unreachable from entry are absent from the result.
    """
    succ: dict[int, list[int]] = {node_id: [] for node_id in cfg.nodes}
    for edge in cfg.edges:
        succ[edge.src].append(edge.dst)
    return _immediate_dominators(succ, cfg.entry.id)


def post_dominator_tree(cfg: CFG) -> dict[int, int]:
    """Immediate post-dominators keyed by node id (exit maps to itself).

    Computed as dominators of the reversed CFG rooted at the exit node.
    Nodes that cannot reach the exit (e.g. bodies of provable infinite
    loops) are connected to the exit with an auxiliary edge first so that
    every node receives a post-dominator — matching how practical PDG
    builders (and Joern) handle non-terminating paths.
    """
    reverse: dict[int, list[int]] = {node_id: [] for node_id in cfg.nodes}
    for edge in cfg.edges:
        reverse[edge.dst].append(edge.src)
    exit_id = cfg.exit.id
    reachable = {exit_id}
    stack = [exit_id]
    while stack:
        for pred in reverse[stack.pop()]:
            if pred not in reachable:
                reachable.add(pred)
                stack.append(pred)
    # Auxiliary edges: pretend each stuck node can reach exit.
    reverse[exit_id].extend(node_id for node_id in cfg.nodes
                            if node_id not in reachable)
    return _immediate_dominators(reverse, exit_id)


def control_dependences(cfg: CFG) -> list[tuple[CFGNode, CFGNode, str]]:
    """Compute labelled control-dependence pairs.

    Returns:
        list of ``(controller, dependent, branch_label)`` triples where
        ``dependent`` executes only when ``controller`` takes the branch
        carrying ``branch_label``.
    """
    ipdom = post_dominator_tree(cfg)
    result: list[tuple[CFGNode, CFGNode, str]] = []
    seen: set[tuple[int, int, str]] = set()
    for edge in cfg.edges:
        a, b = edge.src, edge.dst
        if ipdom.get(a) == b:
            continue  # b post-dominates a via this unique continuation
        # Walk b up the post-dominator tree until reaching ipdom(a).
        stop = ipdom.get(a)
        runner: int | None = b
        guard = 0
        while runner is not None and runner != stop:
            if runner != a:
                key = (a, runner, edge.label)
                if key not in seen:
                    seen.add(key)
                    result.append((cfg.nodes[a], cfg.nodes[runner],
                                   edge.label))
            nxt = ipdom.get(runner)
            if nxt == runner:  # reached the root (exit)
                break
            runner = nxt
            guard += 1
            if guard > len(cfg.nodes) + 1:  # malformed tree safety valve
                break
    return result
