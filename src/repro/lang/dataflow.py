"""Def/use extraction and reaching-definitions dataflow.

Data dependence (paper Definition 2) is computed from reaching
definitions over the CFG: statement *u* is data dependent on *d* when a
definition of variable *v* at *d* reaches *u* and *u* uses *v*.

Writes through pointers and writes performed by library calls (e.g.
``strncpy(dest, src, n)`` writes ``dest``) are modelled as *weak* (may)
definitions: they generate but do not kill, so earlier definitions still
reach — matching the conservative treatment in slicing-based detectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import ast_nodes as A
from .cfg import CFG, CFGNode, NodeKind

__all__ = [
    "LIBRARY_WRITE_ARGS", "LIBRARY_FUNCTIONS", "DefUse",
    "collect_def_use", "reaching_definitions", "data_dependences",
]

#: Which argument indices a C library function writes through.
LIBRARY_WRITE_ARGS: dict[str, tuple[int, ...]] = {
    "memcpy": (0,), "memmove": (0,), "memset": (0,),
    "strcpy": (0,), "strncpy": (0,), "strcat": (0,), "strncat": (0,),
    "sprintf": (0,), "snprintf": (0,), "vsprintf": (0,), "vsnprintf": (0,),
    "gets": (0,), "fgets": (0,), "fread": (0,),
    "read": (1,), "recv": (1,), "recvfrom": (1,),
    "scanf": (1, 2, 3, 4), "fscanf": (2, 3, 4), "sscanf": (2, 3, 4),
    "getcwd": (0,), "realpath": (1,), "gethostname": (0,),
}

#: Library/API functions known to the frontend (superset of the write
#: table; used by special-token detection and the baselines' rule DBs).
LIBRARY_FUNCTIONS = frozenset(LIBRARY_WRITE_ARGS) | frozenset(
    {
        "malloc", "calloc", "realloc", "free", "alloca",
        "strlen", "strcmp", "strncmp", "strchr", "strrchr", "strstr",
        "strdup", "strndup", "strtok", "atoi", "atol", "atoll", "strtol",
        "strtoul", "abs", "labs",
        "printf", "fprintf", "puts", "fputs", "putchar", "perror",
        "open", "close", "write", "fopen", "fclose", "fwrite", "fflush",
        "socket", "bind", "listen", "accept", "connect", "send", "sendto",
        "exit", "abort", "assert", "system", "popen", "execl", "execlp",
        "execv", "execvp", "getenv", "setenv", "rand", "srand", "time",
        "wcscpy", "wcsncpy", "wcscat", "wcslen", "memchr", "qsort",
    }
)


@dataclass
class DefUse:
    """Definition/use facts for one CFG node.

    ``strong_defs`` kill earlier definitions of the same variable;
    ``weak_defs`` (pointer/library writes) only generate.
    """

    strong_defs: set[str] = field(default_factory=set)
    weak_defs: set[str] = field(default_factory=set)
    uses: set[str] = field(default_factory=set)
    called: set[str] = field(default_factory=set)

    @property
    def defs(self) -> set[str]:
        return self.strong_defs | self.weak_defs


def _base_variable(expr: A.Expr) -> str | None:
    """Peel indexing/member/deref layers down to the root identifier."""
    while True:
        if isinstance(expr, A.Ident):
            return expr.name
        if isinstance(expr, A.Index):
            expr = expr.base
        elif isinstance(expr, A.Member):
            expr = expr.base
        elif isinstance(expr, A.Unary) and expr.op == "*":
            expr = expr.operand
        elif isinstance(expr, A.Cast):
            expr = expr.expr
        else:
            return None


class _ExprVisitor:
    """Accumulates def/use facts from expressions."""

    def __init__(self, pointer_vars: set[str]):
        self.info = DefUse()
        self._pointer_vars = pointer_vars

    def visit(self, expr: A.Expr) -> None:
        if isinstance(expr, A.Ident):
            if expr.name not in ("NULL", "true", "false"):
                self.info.uses.add(expr.name)
        elif isinstance(expr, A.Assign):
            self._visit_assignment(expr)
        elif isinstance(expr, A.Unary) and expr.op in ("++", "--"):
            base = _base_variable(expr.operand)
            if base is not None:
                self.info.strong_defs.add(base)
            self.visit(expr.operand)
        elif isinstance(expr, A.Call):
            self._visit_call(expr)
        elif isinstance(expr, A.Member):
            self.visit(expr.base)
        elif isinstance(expr, A.SizeOf):
            if isinstance(expr.arg, A.Node):
                # sizeof does not evaluate its operand; still record the
                # variable as used so slices keep the declaration.
                self.visit(expr.arg)
        else:
            for child in expr.children():
                self.visit(child)  # type: ignore[arg-type]

    def _visit_assignment(self, expr: A.Assign) -> None:
        target = expr.target
        base = _base_variable(target)
        if isinstance(target, A.Ident):
            if expr.op == "=":
                self.info.strong_defs.add(target.name)
            else:  # compound assignment reads the old value
                self.info.strong_defs.add(target.name)
                self.info.uses.add(target.name)
        elif base is not None:
            # Write through an lvalue path (a[i], p->f, *p): weak def of
            # the base, which is also read to compute the location.
            self.info.weak_defs.add(base)
            self._visit_lvalue_path(target)
        else:
            self.visit(target)
        self.visit(expr.value)

    def _visit_lvalue_path(self, target: A.Expr) -> None:
        """Record uses occurring inside a compound lvalue."""
        if isinstance(target, A.Index):
            self._visit_lvalue_path(target.base)
            self.visit(target.index)
        elif isinstance(target, A.Member):
            self._visit_lvalue_path(target.base)
        elif isinstance(target, A.Unary) and target.op == "*":
            self._visit_lvalue_path(target.operand)
        elif isinstance(target, A.Ident):
            self.info.uses.add(target.name)
        else:
            self.visit(target)

    def _visit_call(self, expr: A.Call) -> None:
        name = expr.callee_name
        if name is not None:
            self.info.called.add(name)
        else:
            self.visit(expr.func)
        write_indices = LIBRARY_WRITE_ARGS.get(name or "", ())
        known_library = name in LIBRARY_FUNCTIONS if name else False
        for index, arg in enumerate(expr.args):
            self.visit(arg)
            base = _base_variable(arg)
            if base is None and isinstance(arg, A.Unary) and arg.op == "&":
                base = _base_variable(arg.operand)
                if base is not None:
                    # &x passed to any call: may-write of x.
                    self.info.weak_defs.add(base)
                    continue
            if base is None:
                continue
            if index in write_indices:
                self.info.weak_defs.add(base)
            elif not known_library and base in self._pointer_vars:
                # Pointer/array handed to an unknown (user) function:
                # conservatively a may-write.
                self.info.weak_defs.add(base)


def _pointer_variables(cfg: CFG) -> set[str]:
    """Names of pointer- or array-typed variables in scope.

    Declarations are statements, and the CFG holds a node for every
    statement of the body (unreachable ones too), so its nodes list
    every declaration without walking expressions.
    """
    pointers: set[str] = set()
    for param in cfg.function.params:
        if param.pointer_depth > 0 or param.is_array:
            pointers.add(param.name)
    for node in cfg.nodes.values():
        if isinstance(node.ast, A.Decl):
            for decl in node.ast.declarators:
                if decl.is_pointer or decl.is_array:
                    pointers.add(decl.name)
    return pointers


def collect_def_use(cfg: CFG) -> dict[int, DefUse]:
    """Compute def/use facts per CFG node (keyed by node id).

    The entry node strongly defines every parameter.
    """
    pointer_vars = _pointer_variables(cfg)
    result: dict[int, DefUse] = {}
    for node in cfg.nodes.values():
        info = DefUse()
        if node.kind is NodeKind.ENTRY:
            info.strong_defs.update(p.name for p in cfg.function.params
                                    if p.name)
        elif node.ast is not None:
            info = _node_def_use(node, pointer_vars)
        result[node.id] = info
    return result


def _node_def_use(node: CFGNode, pointer_vars: set[str]) -> DefUse:
    visitor = _ExprVisitor(pointer_vars)
    ast = node.ast
    if isinstance(ast, A.Decl):
        for decl in ast.declarators:
            visitor.info.strong_defs.add(decl.name)
            for size in decl.array_sizes:
                if size is not None:
                    visitor.visit(size)
            if decl.init is not None:
                visitor.visit(decl.init)
    elif isinstance(ast, A.ExprStmt):
        visitor.visit(ast.expr)
    elif isinstance(ast, A.Return):
        if ast.value is not None:
            visitor.visit(ast.value)
    elif isinstance(ast, (A.If, A.While)):
        visitor.visit(ast.cond)
    elif isinstance(ast, A.DoWhile):
        visitor.visit(ast.cond)
    elif isinstance(ast, A.For):
        if node.kind is NodeKind.CONDITION and ast.cond is not None:
            visitor.visit(ast.cond)
    elif isinstance(ast, A.Switch):
        visitor.visit(ast.expr)
    # Break/Continue/Goto/Label/Empty contribute nothing.
    return visitor.info


def _solve(cfg: CFG, def_use: dict[int, DefUse]
           ) -> tuple[list[tuple[str, int]], dict[str, int], list[int],
                      list[int]]:
    """Reaching definitions on integer bitsets.

    Each definition ``(variable, node id)`` is numbered once, nodes in
    id order and a node's variables sorted; bit *k* of a set stands
    for definition *k*.  GEN, KILL, IN and OUT are ints over the dense
    node ids, and the worklist revisits a node's successors only when
    its OUT grows.  Returns the numbered definitions, each variable's
    mask of definitions, GEN and IN.
    """
    size = len(cfg.nodes)
    defs: list[tuple[str, int]] = []
    var_bits: dict[str, int] = {}
    gen = [0] * size
    for node_id in range(size):
        info = def_use.get(node_id)
        if info is None:
            continue
        bits = 0
        for var in sorted(info.defs):
            bit = 1 << len(defs)
            defs.append((var, node_id))
            var_bits[var] = var_bits.get(var, 0) | bit
            bits |= bit
        gen[node_id] = bits
    keep = [-1] * size  # ~KILL: weak defs generate but do not kill
    for node_id, info in def_use.items():
        for var in info.strong_defs:
            keep[node_id] &= ~var_bits[var]
    nodes = cfg.nodes
    preds = [[edge.src for edge in cfg.in_edges(nodes[i])]
             for i in range(size)]
    succs = [[edge.dst for edge in cfg.out_edges(nodes[i])]
             for i in range(size)]
    reach_in = [0] * size
    reach_out = gen[:]  # OUT of an empty IN
    worklist = list(range(size - 1, -1, -1))
    queued = [True] * size
    while worklist:
        node_id = worklist.pop()
        queued[node_id] = False
        new_in = 0
        for pred in preds[node_id]:
            new_in |= reach_out[pred]
        if new_in == reach_in[node_id]:
            continue
        reach_in[node_id] = new_in
        new_out = (new_in & keep[node_id]) | gen[node_id]
        if new_out != reach_out[node_id]:
            reach_out[node_id] = new_out
            for succ in succs[node_id]:
                if not queued[succ]:
                    queued[succ] = True
                    worklist.append(succ)
    return defs, var_bits, gen, reach_in


def _decode(bits: int, defs: list[tuple[str, int]]
            ) -> Iterator[tuple[str, int]]:
    """The definitions whose bits are set, lowest bit first."""
    while bits:
        low = bits & -bits
        yield defs[low.bit_length() - 1]
        bits ^= low


def reaching_definitions(
    cfg: CFG, def_use: dict[int, DefUse] | None = None
) -> dict[int, set[tuple[str, int]]]:
    """Reaching definitions at node *entry*: sets of (variable, def node id).

    Classic forward may-analysis (weak defs generate but do not kill),
    decoded from the bitset solution :func:`data_dependences` reads.
    """
    if def_use is None:
        def_use = collect_def_use(cfg)
    defs, _, _, reach_in = _solve(cfg, def_use)
    return {node_id: set(_decode(reach_in[node_id], defs))
            for node_id in cfg.nodes}


def data_dependences(
    cfg: CFG, def_use: dict[int, DefUse] | None = None
) -> list[tuple[CFGNode, CFGNode, str]]:
    """Data-dependence triples ``(def_node, use_node, variable)``, use
    nodes in id order and each one's definitions in their numbering.

    A node's reaching definitions are intersected with the mask of the
    variables it uses, less its own definitions.
    """
    if def_use is None:
        def_use = collect_def_use(cfg)
    defs, var_bits, gen, reach_in = _solve(cfg, def_use)
    nodes = cfg.nodes
    deps: list[tuple[CFGNode, CFGNode, str]] = []
    for node_id, node in nodes.items():
        uses = def_use[node_id].uses
        if not uses:
            continue
        used = 0
        for var in uses:
            used |= var_bits.get(var, 0)
        for var, def_id in _decode(reach_in[node_id] & used & ~gen[node_id],
                                   defs):
            deps.append((nodes[def_id], node, var))
    return deps
