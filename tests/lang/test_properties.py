"""Property-based tests (hypothesis) for the language frontend."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.cfg import build_cfg
from repro.lang.dataflow import collect_def_use, reaching_definitions
from repro.lang.dominance import dominator_tree, post_dominator_tree
from repro.lang.lexer import TokenKind, tokenize
from repro.lang.parser import ParseError, parse
from repro.lang.source import strip_preprocessor

# -- reference dominators -----------------------------------------------------


def dataflow_idoms(succ, root):
    """Immediate dominators from the set-based definition.

    Dom(root) = {root}; Dom(n) = {n} | the intersection of Dom(p) over
    n's reachable predecessors p, iterated to a fixpoint.  idom(n) is
    the strict dominator of n that every other strict dominator
    dominates, i.e. the one whose own Dom set is largest.
    """
    reachable = {root}
    stack = [root]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in reachable:
                reachable.add(nxt)
                stack.append(nxt)
    preds = {n: [p for p in reachable if n in succ[p]] for n in reachable}
    dom = {n: set(reachable) for n in reachable}
    dom[root] = {root}
    changed = True
    while changed:
        changed = False
        for n in reachable - {root}:
            new = {n} | set.intersection(*(dom[p] for p in preds[n]))
            if new != dom[n]:
                dom[n] = new
                changed = True
    idom = {root: root}
    for n in reachable - {root}:
        idom[n] = max(dom[n] - {n}, key=lambda d: len(dom[d]))
    return idom


# -- random-source strategies -------------------------------------------------

printable = st.text(alphabet=string.printable, max_size=200)

identifiers = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
numbers = st.integers(min_value=0, max_value=10_000).map(str)


@st.composite
def random_programs(draw):
    """Small syntactically-valid programs from a statement grammar."""
    var = draw(identifiers.filter(lambda s: s not in ("if", "do", "for",
                                                      "int", "char")))
    statements = []
    depth = draw(st.integers(min_value=1, max_value=4))
    statements.append(f"int {var} = {draw(numbers)};")
    for _ in range(depth):
        kind = draw(st.integers(min_value=0, max_value=4))
        value = draw(numbers)
        if kind == 0:
            statements.append(f"{var} = {var} + {value};")
        elif kind == 1:
            statements.append(
                f"if ({var} > {value}) {{ {var} = {value}; }}")
        elif kind == 2:
            statements.append(
                f"while ({var} > {value}) {{ {var}--; }}")
        elif kind == 3:
            statements.append(
                f"for (int i = 0; i < 3; i++) {{ {var} += i; }}")
        else:
            statements.append(
                f"switch ({var}) {{ case 1: {var} = 0; break; "
                f"default: break; }}")
    body = "\n".join(statements)
    return f"void f(int n) {{\n{body}\nreturn;\n}}"


class TestLexerProperties:
    @given(printable)
    @settings(max_examples=200)
    def test_lexer_never_crashes(self, text):
        tokenize(text)

    @given(printable)
    @settings(max_examples=200)
    def test_lexer_terminates_with_single_eof(self, text):
        toks = tokenize(text)
        assert toks[-1].kind is TokenKind.EOF
        assert sum(1 for t in toks if t.kind is TokenKind.EOF) == 1

    @given(printable)
    @settings(max_examples=100)
    def test_token_positions_monotone(self, text):
        toks = tokenize(text, keep_comments=True)
        positions = [(t.line, t.col) for t in toks]
        assert positions == sorted(positions)

    @given(st.lists(identifiers, min_size=1, max_size=10))
    def test_identifier_roundtrip(self, names):
        source = " ".join(names)
        texts = [t.text for t in tokenize(source)[:-1]]
        assert texts == names


class TestParserProperties:
    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_random_programs_parse(self, source):
        unit = parse(source)
        assert unit.functions[0].name == "f"

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_random_programs_build_cfgs(self, source):
        unit = parse(source)
        cfg = build_cfg(unit.functions[0])
        # every statement node is reachable from entry in these
        # straight-line-with-structured-control programs
        assert cfg.statement_nodes()

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_every_node_has_postdominator(self, source):
        unit = parse(source)
        cfg = build_cfg(unit.functions[0])
        ipdom = post_dominator_tree(cfg)
        assert set(ipdom) >= set(cfg.nodes)

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_dominators_match_dataflow_definition(self, source):
        cfg = build_cfg(parse(source).functions[0])
        succ = {n: [] for n in cfg.nodes}
        reverse = {n: [] for n in cfg.nodes}
        for edge in cfg.edges:
            succ[edge.src].append(edge.dst)
            reverse[edge.dst].append(edge.src)
        assert dominator_tree(cfg) == dataflow_idoms(succ, cfg.entry.id)
        # nodes that cannot reach exit hang off it by an auxiliary edge
        stuck = set(cfg.nodes) - set(dataflow_idoms(reverse, cfg.exit.id))
        reverse[cfg.exit.id].extend(stuck)
        assert post_dominator_tree(cfg) == \
            dataflow_idoms(reverse, cfg.exit.id)

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_reaching_definitions_terminate_and_are_sound(self, source):
        unit = parse(source)
        cfg = build_cfg(unit.functions[0])
        def_use = collect_def_use(cfg)
        reach = reaching_definitions(cfg, def_use)
        for facts in reach.values():
            for var, def_node in facts:
                assert var in def_use[def_node].defs

    @given(printable)
    @settings(max_examples=100)
    def test_parser_raises_cleanly_or_succeeds(self, text):
        try:
            parse(text)
        except ParseError:
            pass  # garbage is allowed to fail, but only with ParseError


class TestSourceProperties:
    @given(printable)
    @settings(max_examples=100)
    def test_strip_preprocessor_preserves_line_count(self, text):
        assert strip_preprocessor(text).count("\n") == text.count("\n")

    @given(st.lists(st.sampled_from(
        ["int x;", "#define A 1", "#include <x.h>", "y = 2;"]),
        min_size=1, max_size=8))
    def test_directives_blanked_code_kept(self, lines):
        source = "\n".join(lines)
        stripped = strip_preprocessor(source).split("\n")
        for original, result in zip(lines, stripped):
            if original.startswith("#"):
                assert result == ""
            else:
                assert result == original
