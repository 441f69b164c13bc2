"""Differential tests: the cursor parser and the bitset dataflow solver
against the originals.

``parse`` must give exactly the AST of the original recursive-descent
:class:`~tests.lang.reference_parser.Parser`, or raise a
``ParseError`` with exactly its text at the same token, on any input:
generated programs, CWE template programs with a span cut out,
arbitrary text and token soup over C punctuators, keywords and typedef
names.  No nesting the original parses under a given recursion limit
may fail under it.  ``reaching_definitions`` and ``data_dependences``
must equal a set-based worklist solver's on random programs, and the
pointer variables read off the CFG must equal an AST walk's.

The tier-1 suite runs these at hypothesis's default budget.  CI runs
the module's own profile, 2,000 examples per test:

    PYTHONPATH=src python -m tests.lang.test_parser_differential
"""

import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.lang.cfg import build_cfg
from repro.lang import ast_nodes as A
from repro.lang.dataflow import (_pointer_variables, collect_def_use,
                                 data_dependences, reaching_definitions)
from repro.lang.lexer import _PUNCTUATORS, KEYWORDS
from repro.lang.parser import ParseError, parse
from repro.lang.source import SourceFile
from tests.lang.reference_parser import reference_parse
from tests.lang.test_properties import random_programs

settings.register_profile("parser-differential", max_examples=2000,
                          deadline=None)
if __name__ == "__main__":
    settings.load_profile("parser-differential")


def _outcome(parse_fn, source: SourceFile):
    """The AST, or the error text and the fields of its token."""
    try:
        return parse_fn(source)
    except ParseError as error:
        tok = error.token
        return str(error), (tok.kind, tok.text, tok.line, tok.col)


def assert_same_parse(text: str) -> None:
    source = SourceFile("f.c", text)
    try:
        expected = _outcome(reference_parse, source)
    except RecursionError:
        assume(False)  # too deep for the original: nothing to compare
    assert _outcome(parse, source) == expected


# -- inputs ---------------------------------------------------------------------

#: a file's typedef names, so soup can start declarations and casts
TYPEDEFS = "typedef int T;\ntypedef struct S { int a; char *b[4]; } U;\n"
SOUP = sorted(set(_PUNCTUATORS) | KEYWORDS) + [
    "T", "U", "S", "x", "y", "f", "0", "1.5e3", "0x1F", '"s"', "'c'",
]
soup = st.lists(st.sampled_from(SOUP), max_size=60).map(" ".join)


@st.composite
def soup_programs(draw):
    """Token soup at file scope, or inside a function body."""
    body = draw(soup)
    if draw(st.booleans()):
        body = f"int f(T t, U *u) {{\n{body}\n}}"
    return (TYPEDEFS if draw(st.booleans()) else "") + body


@st.composite
def template_programs(draw):
    template = draw(st.sampled_from(TEMPLATES))
    return generate_case(template, vulnerable=draw(st.booleans()),
                         seed=draw(st.integers(0, 2**16))).source


@st.composite
def cut_programs(draw):
    """A template program with one span removed: most cuts are errors
    deep inside a real file."""
    text = draw(template_programs())
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 12)))
    return text[:start] + text[end:]


BINARY = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
          "<<", ">>", "+", "-", "*", "/", "%"]
ASSIGN = ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
          ">>="]
PREFIX = ["-", "+", "!", "~", "*", "&", "++", "--"]
ATOMS = ["x", "y", "p", "0", "1.5e3", '"s" "t"', "'c'", "NULL", "true"]
CAST_TYPES = ["int", "char *", "T", "U **", "struct S", "unsigned long"]


@st.composite
def expressions(draw, depth=3):
    """Operator soup over atoms, unparenthesized, so precedence,
    associativity and prefix/postfix/cast/ternary interplay decide
    the tree."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(ATOMS))
    a = draw(expressions(depth - 1))
    b = draw(expressions(depth - 1))
    kind = draw(st.integers(0, 10))
    if kind <= 1:
        return f"{a} {draw(st.sampled_from(BINARY))} {b}"
    if kind == 2:
        return f"{draw(st.sampled_from(PREFIX))} {a}"
    if kind == 3:
        return a + draw(st.sampled_from(
            ["++", "--", f"[{b}]", f"({b})", "()", ".m", "->m"]))
    if kind == 4:
        return f"{a} ? {b} : {draw(expressions(depth - 1))}"
    if kind == 5:
        return f"{a} {draw(st.sampled_from(ASSIGN))} {b}"
    if kind == 6:
        return f"({draw(st.sampled_from(CAST_TYPES))}) {a}"
    if kind == 7:
        type_name = draw(st.sampled_from(CAST_TYPES))
        return draw(st.sampled_from([f"sizeof {a}", f"sizeof({type_name})"]))
    if kind == 8:
        return f"({a})"
    if kind == 9:
        return f"{a}, {b}"
    return f"g({a}, {b})"


@st.composite
def expression_programs(draw):
    exprs = draw(st.lists(expressions(), min_size=1, max_size=4))
    shapes = ["{};", "int v = {};", "int v[{}];", "if ({}) x;",
              "return {};", "for ({}; {}; {}) ;"]
    body = " ".join(draw(st.sampled_from(shapes)).replace("{}", e)
                    for e in exprs)
    return f"{TYPEDEFS}int f() {{ {body} }}"


#: one input per ParseError message
ERRORS = [
    "int f() { return (x; }",                   # expected ')'
    "int f() { a.; }",                          # expected identifier
    "struct S { 1 };",                          # expected type name
    "x;",                                       # unexpected token ...
    "int f() { x;",                             # unterminated block
    "int f() { switch (x) { y; } }",            # statement before ...
    "int f() { switch (x) { case 1: y;",        # unterminated switch
    "int f() { do x; until (y); }",             # expected keyword ...
    "int f() { x = ; }",                        # expected expression
]


class TestParseMatchesReference:
    @pytest.mark.parametrize("text", ERRORS)
    def test_every_error(self, text):
        with pytest.raises(ParseError):
            reference_parse(text)
        assert_same_parse(text)

    @settings(deadline=None)
    @given(expression_programs())
    @example(TYPEDEFS + "int f() { a - b - c; a ? b : c ? d : e; }")
    def test_expression_programs(self, text):
        assert_same_parse(text)

    @settings(deadline=None)
    @given(random_programs())
    def test_random_programs(self, text):
        assert_same_parse(text)

    @settings(deadline=None)
    @given(template_programs())
    def test_template_programs(self, text):
        assert_same_parse(text)

    @settings(deadline=None)
    @given(cut_programs())
    def test_cut_programs(self, text):
        assert_same_parse(text)

    @settings(deadline=None)
    @given(st.text(max_size=120))
    @example("")
    @example("int")
    @example("int f(")
    @example("struct")
    def test_any_text(self, text):
        assert_same_parse(text)

    @settings(deadline=None)
    @given(soup_programs())
    @example(TYPEDEFS + "int f() { T * x; (U) y; sizeof(T*) + x; }")
    @example("int f() { a ? b : c = d; x = y = z; a || b && c | d; }")
    @example("int f() { do x; if (y) z; }")
    @example("int f() { L: ; M :: ; switch (x) { y; } }")
    @example("typedef enum { T } E; int f() { T x; }")
    def test_token_soup(self, text):
        assert_same_parse(text)


# -- nesting ----------------------------------------------------------------------

DEPTH = 40

#: (name, program nesting one construct DEPTH deep)
NESTED = [
    ("parens", "int f() { return " + "(" * DEPTH + "x" + ")" * DEPTH
     + "; }"),
    ("calls", "int f() { " + "g(" * DEPTH + "x" + ")" * DEPTH + "; }"),
    ("index", "int f() { " + "a[" * DEPTH + "0" + "]" * DEPTH + "; }"),
    ("prefix", "int f() { " + "- " * DEPTH + "x; }"),
    ("casts", "int f() { " + "(int)" * DEPTH + "x; }"),
    ("sizeof", "int f() { " + "sizeof " * DEPTH + "x; }"),
    ("ternary", "int f() { " + "a ? " * DEPTH + "b" + " : c" * DEPTH
     + "; }"),
    ("else-ternary", "int f() { a" + " ? b : a" * DEPTH + "; }"),
    ("assign", "int f() { " + "a = " * DEPTH + "b; }"),
    ("blocks", "int f() { " + "{" * DEPTH + "x;" + "}" * DEPTH + " }"),
    ("if", "int f() { " + "if (x) " * DEPTH + "y; }"),
    ("else-if", "int f() { if (a) x;" + " else if (a) x;" * DEPTH
     + " }"),
    ("while", "int f() { " + "while (x) " * DEPTH + "y; }"),
    ("for", "int f() { " + "for (;;) " * DEPTH + "y; }"),
    ("do", "int f() { " + "do " * DEPTH + "y;" + " while (x);" * DEPTH
     + " }"),
    ("switch", "int f() { " + "switch (x) { case 1: " * DEPTH + "y;"
     + " }" * DEPTH + " }"),
    ("labels", "int f() { " + "".join(f"L{i}: " for i in range(DEPTH))
     + "y; }"),
    ("init-lists", "int a[] = " + "{" * DEPTH + "1" + "}" * DEPTH + ";"),
]


def _frames() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _parses_within(parse_fn, source: SourceFile, frames: int) -> bool:
    """Whether ``parse_fn`` finishes with ``frames`` frames to spare."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + frames)
    try:
        parse_fn(source)
        return True
    except RecursionError:
        return False
    finally:
        sys.setrecursionlimit(limit)


class TestNesting:
    @pytest.mark.parametrize("name,text", NESTED, ids=[n for n, _ in NESTED])
    def test_no_deeper_than_reference(self, name, text):
        """Find the fewest spare frames the original needs for the
        program; the cursor parser must parse it with as few."""
        source = SourceFile("f.c", text)
        source.parser_tokens()  # lex outside the measured frames
        low, high = 1, 4000
        assert _parses_within(reference_parse, source, high)
        while low < high:
            middle = (low + high) // 2
            if _parses_within(reference_parse, source, middle):
                high = middle
            else:
                low = middle + 1
        assert _parses_within(parse, source, low)
        assert parse(source) == reference_parse(source)


# -- dataflow -----------------------------------------------------------------------

def reference_reaching(cfg, def_use):
    """The original set-based solver: (variable, def node) pairs, each
    visit rebuilding every predecessor's out-set."""
    gen = {n: {(v, n) for v in info.defs} for n, info in def_use.items()}
    kill = {n: set(info.strong_defs) for n, info in def_use.items()}
    reach = {n: set() for n in cfg.nodes}
    worklist = list(cfg.nodes.values())
    while worklist:
        node = worklist.pop()
        new = set()
        for pred in cfg.predecessors(node):
            new |= {(v, d) for v, d in reach[pred.id]
                    if v not in kill[pred.id]} | gen[pred.id]
        if new != reach[node.id]:
            reach[node.id] = new
            worklist.extend(cfg.successors(node))
    return reach


VARS = ["a", "b", "n", "p", "buf"]


@st.composite
def statements(draw, depth):
    v, w = draw(st.sampled_from(VARS)), draw(st.sampled_from(VARS))
    simple = [
        f"{v} = {w} + 1;", f"{v} += {w};", f"{v}++;", f"*p = {w};",
        f"buf[{v}] = {w};", f"strcpy(buf, {w});", f"g(&{v}, {w});",
        f"g(p, {v});", f"memcpy({v}, {w}, n);", f"return {v};",
        "goto out;", f"{v} = {w} ? {v} : 0;", "p = buf;",
        f"char *q = {w};", "int w[4];",
    ]
    if depth <= 0 or draw(st.booleans()):
        return draw(st.sampled_from(simple))
    body = draw(st.lists(statements(depth - 1), min_size=1, max_size=3))
    block = "{ " + " ".join(body) + " }"
    kind = draw(st.integers(0, 5))
    if kind == 0:
        other = draw(statements(depth - 1))
        return f"if ({v} > {w}) {block} else {other}"
    if kind == 1:
        return f"while ({v} < n) {{ {' '.join(body)} {v}++; }}"
    if kind == 2:
        return f"for ({v} = 0; {v} < {w}; {v}++) {block}"
    if kind == 3:
        return f"do {block} while ({v});"
    if kind == 4:
        return (f"switch ({v}) {{ case 1: {' '.join(body)} break; "
                f"default: {w} = 0; }}")
    return f"if ({v}) {{ {' '.join(body)} break; }}" \
        if draw(st.booleans()) else block


@st.composite
def dataflow_programs(draw):
    body = draw(st.lists(statements(3), min_size=1, max_size=8))
    return ("int f(int a, char *p) {\n  int b = a, n = 4; char buf[8];\n  "
            + "\n  ".join(body) + "\nout:\n  return b;\n}")


def walked_pointer_variables(fn):
    """The original pointer scan: every declaration the body's AST
    walk meets, plus the pointer and array parameters."""
    return {p.name for p in fn.params if p.pointer_depth or p.is_array} | {
        d.name for node in A.walk(fn.body) if isinstance(node, A.Decl)
        for d in node.declarators if d.is_pointer or d.is_array}


def assert_same_dataflow(text: str) -> None:
    for fn in parse(text).functions:
        cfg = build_cfg(fn)
        assert _pointer_variables(cfg) == walked_pointer_variables(fn)
        def_use = collect_def_use(cfg)
        expected = reference_reaching(cfg, def_use)
        assert reaching_definitions(cfg, def_use) == expected
        triples = [(d.id, u.id, var)
                   for d, u, var in data_dependences(cfg, def_use)]
        assert len(triples) == len(set(triples))
        assert set(triples) == {
            (def_id, node_id, var)
            for node_id, reach in expected.items()
            for var, def_id in reach
            if var in def_use[node_id].uses and def_id != node_id}


class TestDataflowMatchesReference:
    @settings(deadline=None)
    @given(random_programs())
    def test_random_programs(self, text):
        assert_same_dataflow(text)

    @settings(deadline=None)
    @given(dataflow_programs())
    def test_dataflow_programs(self, text):
        assert_same_dataflow(text)

    @settings(deadline=None)
    @given(template_programs())
    def test_template_programs(self, text):
        assert_same_dataflow(text)

    def test_edge_order_is_deterministic(self):
        """Use nodes in id order, each one's definitions in numbering
        order (node id, then variable name): no set iteration."""
        text = ("int f(int b, int a) {\n  int c = a + b;\n"
                "  return c + a + b;\n}")
        cfg = build_cfg(parse(text).functions[0])
        edges = [(d.line, u.line, var) for d, u, var
                 in data_dependences(cfg)]
        assert edges == [(1, 2, "a"), (1, 2, "b"), (1, 3, "a"),
                         (1, 3, "b"), (2, 3, "c")]


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
