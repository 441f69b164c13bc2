"""Function fingerprints, invalidation frontiers, component digests.

The contract that makes incremental scanning sound: a fingerprint
changes exactly when the function's token stream (including absolute
line numbers — findings carry them) changes, and a component digest
changes exactly when *any* member of the weakly-connected call
component changes.  Cached slices keyed by component digest are then
byte-identical to cold re-slicing, because interprocedural slices
never read outside their component.
"""

import pytest

from repro.core.fingerprint import (DEFAULT_FRONTIER_DEPTH,
                                    changed_functions,
                                    component_digests,
                                    function_fingerprints,
                                    invalidation_frontier,
                                    weak_components)
from repro.core.fingerprint import _function_token_runs
from repro.lang.callgraph import ast_call_edges
from repro.lang.lexer import tokenize
from repro.lang.parser import parse

SOURCE = """\
int helper(int n) {
    int buf = n + 1;
    return buf;
}

int caller(int n) {
    int x = helper(n);
    return x * 2;
}

int lonely(void) {
    return 7;
}
"""


class TestSpans:
    """The function extents fingerprints cover, recovered from tokens
    (agreement with the parser: ``tests/lang/test_line_attribution``)."""

    def test_spans_match_parser_lines(self):
        tokens = tokenize(SOURCE)
        spans = {name: (tokens[first].line, tokens[last].line)
                 for name, first, last in _function_token_runs(tokens)}
        unit = parse(SOURCE)
        assert set(spans) == {f.name for f in unit.functions}
        for fn in unit.functions:
            assert spans[fn.name] == (fn.line, fn.body.end_line)

    def test_prototypes_excluded(self):
        source = "int helper(int n);\nint used(void) { return 1; }\n"
        assert list(function_fingerprints(source)) == ["used"]


class TestFingerprints:
    def test_stable_across_identical_sources(self):
        assert function_fingerprints(SOURCE) == \
            function_fingerprints(SOURCE)

    def test_comment_edit_on_same_line_changes_nothing(self):
        edited = SOURCE.replace("return buf;",
                                "return buf; /* reviewed */")
        base = function_fingerprints(SOURCE)
        assert function_fingerprints(edited) == base
        assert changed_functions(SOURCE, edited) == set()

    def test_body_edit_changes_only_that_function(self):
        edited = SOURCE.replace("int buf = n + 1;",
                                "int buf = n + 2;")
        assert changed_functions(SOURCE, edited) == {"helper"}

    def test_line_shift_invalidates_following_functions(self):
        # a new line above helper shifts every later function's
        # absolute lines; findings carry absolute lines, so all
        # shifted functions must re-slice
        edited = "\n" + SOURCE
        assert changed_functions(SOURCE, edited) == \
            {"helper", "caller", "lonely"}

    def test_added_and_removed_functions_are_changed(self):
        extra = SOURCE + "\nint fresh(void) { return 0; }\n"
        assert "fresh" in changed_functions(SOURCE, extra)
        assert "fresh" in changed_functions(extra, SOURCE)


class TestFrontier:
    def test_frontier_includes_transitive_callers(self):
        edges = ast_call_edges(parse(SOURCE))
        frontier = invalidation_frontier(edges, {"helper"})
        assert frontier == {"helper", "caller"}

    def test_frontier_depth_bound(self):
        # chain a -> b -> c -> d (a calls b calls c calls d); editing
        # d at depth 1 reaches only its direct caller
        chain = """\
int d(void) { return 1; }
int c(void) { return d(); }
int b(void) { return c(); }
int a(void) { return b(); }
"""
        edges = ast_call_edges(parse(chain))
        assert invalidation_frontier(edges, {"d"}, depth=1) == \
            {"d", "c"}
        assert invalidation_frontier(edges, {"d"}, depth=2) == \
            {"d", "c", "b"}
        assert invalidation_frontier(
            edges, {"d"}, depth=DEFAULT_FRONTIER_DEPTH) == \
            {"d", "c", "b", "a"}

    def test_empty_change_set(self):
        edges = ast_call_edges(parse(SOURCE))
        assert invalidation_frontier(edges, set()) == set()


class TestComponents:
    def test_call_edge_merges_components(self):
        comps = weak_components(ast_call_edges(parse(SOURCE)))
        assert comps["helper"] == comps["caller"]
        assert comps["lonely"] != comps["helper"]

    def test_component_digest_changes_with_any_member(self):
        edited = SOURCE.replace("int buf = n + 1;",
                                "int buf = n + 2;")
        edges = ast_call_edges(parse(SOURCE))
        base = component_digests(function_fingerprints(SOURCE), edges)
        after = component_digests(function_fingerprints(edited),
                                  edges)
        # helper changed -> its whole component (helper+caller)
        # re-keys; lonely's digest is untouched
        assert after["helper"] != base["helper"]
        assert after["caller"] != base["caller"]
        assert after["helper"] == after["caller"]
        assert after["lonely"] == base["lonely"]

    def test_members_share_one_digest(self):
        edges = ast_call_edges(parse(SOURCE))
        digests = component_digests(function_fingerprints(SOURCE),
                                    edges)
        assert digests["helper"] == digests["caller"]
