"""Tests for forward/backward interprocedural slicing."""

from repro.lang.callgraph import analyze
from repro.slicing.slicer import compute_slice
from repro.slicing.special_tokens import (SlicingCriterion, TokenCategory,
                                          find_special_tokens)


def slice_for(source, token, line=None, **kwargs):
    program = analyze(source)
    crits = [c for c in find_special_tokens(program)
             if c.token == token and (line is None or c.line == line)]
    assert crits, f"no criterion for {token}"
    return program, compute_slice(program, crits[0], **kwargs)


INTRA = """\
void f(char *data, int n) {
    char dest[8];
    int unrelated = 42;
    int len = n;
    if (len < 8) {
        strncpy(dest, data, len);
    }
    printf("%d", unrelated);
}
"""


class TestIntraprocedural:
    def test_backward_includes_definitions(self):
        program, result = slice_for(INTRA, "strncpy")
        lines = result.lines()["f"]
        assert {2, 4, 6} <= lines

    def test_guard_included_with_control(self):
        program, result = slice_for(INTRA, "strncpy", use_control=True)
        assert 5 in result.lines()["f"]

    def test_guard_excluded_without_control(self):
        program, result = slice_for(INTRA, "strncpy", use_control=False)
        assert 5 not in result.lines()["f"]

    def test_unrelated_statement_excluded(self):
        program, result = slice_for(INTRA, "strncpy")
        assert 3 not in result.lines()["f"]

    def test_forward_part_includes_uses(self):
        source = ("void f(char *data) {\nint n = strlen(data);\n"
                  "int m = n + 1;\nprintf(\"%d\", m);\n}")
        program, result = slice_for(source, "strlen")
        lines = result.lines()["f"]
        assert {2, 3, 4} <= lines

    def test_total_nodes_counts(self):
        program, result = slice_for(INTRA, "strncpy")
        assert result.total_nodes() == \
            sum(len(v) for v in result.nodes.values())


INTER = """\
void sink(char *buf, int len) {
    char dest[8];
    strncpy(dest, buf, len);
}

void source_fn(char *input) {
    int len = strlen(input);
    sink(input, len);
}

int main() {
    char line[32];
    fgets(line, 32, 0);
    source_fn(line);
    return 0;
}
"""


class TestInterprocedural:
    def test_backward_reaches_callers(self):
        program, result = slice_for(INTER, "strncpy")
        assert "source_fn" in result.nodes
        assert "main" in result.nodes

    def test_caller_lines_relevant(self):
        program, result = slice_for(INTER, "strncpy")
        lines = result.lines()
        assert 8 in lines["source_fn"]   # the call to sink
        assert 14 in lines["main"]       # the call to source_fn

    def test_interprocedural_disabled(self):
        program, result = slice_for(INTER, "strncpy",
                                    interprocedural=False)
        assert set(result.nodes) == {"sink"}

    def test_forward_descends_into_callee(self):
        # Criterion in source_fn; sink's body should join forward.
        program = analyze(INTER)
        crits = [c for c in find_special_tokens(program)
                 if c.token == "strlen"]
        result = compute_slice(program, crits[0])
        assert "sink" in result.nodes

    def test_missing_function_yields_empty_slice(self):
        program = analyze(INTER)
        ghost = SlicingCriterion("ghost", 1,
                                 TokenCategory.FUNCTION_CALL, "strcpy")
        result = compute_slice(program, ghost)
        assert result.nodes == {}

    def test_max_functions_cap(self):
        program, result = slice_for(INTER, "strncpy", max_functions=1)
        assert set(result.nodes) == {"sink"}


IFDEF = """\
#ifdef A
void copy(char *d, char *s) {
    strcpy(d, s);
}
#else
void copy(char *d, char *s) {
    strncpy(d, s, 8);
}
#endif
"""

IFDEF_CALL = """\
int helper(char *p) {
    return p[0];
}
#ifdef A
void copy(char *d, char *s) {
    strcpy(d, s);
    helper(d);
}
#else
void copy(char *d, char *s) {
    strncpy(d, s, 8);
}
#endif
"""


class TestDuplicateDefinitions:
    """``#ifdef``/``#else`` bodies of one name: each criterion slices
    in the definition that holds its line."""

    def test_first_body_criterion_is_not_dropped(self):
        from repro.slicing.path_sensitive import path_sensitive_gadget

        program = analyze(IFDEF)
        criterion = next(c for c in find_special_tokens(program)
                         if c.token == "strcpy")
        gadget = path_sensitive_gadget(program, criterion)
        assert gadget.lines
        assert 3 in gadget.line_numbers()
        assert all(line <= 4 for line in gadget.line_numbers())

    def test_each_body_keeps_its_own_lines(self):
        _, first = slice_for(IFDEF, "strcpy")
        _, second = slice_for(IFDEF, "strncpy")
        assert first.lines() == {"copy": {3}}
        assert second.lines() == {"copy": {7}}

    def test_forward_step_follows_the_sliced_body(self):
        program, result = slice_for(IFDEF_CALL, "strcpy")
        assert result.lines() == {"copy": {6, 7}, "helper": {2}}
        # the call edge of the first body is kept under the shared name
        assert program.call_graph.callees("copy") == {"helper"}

    def test_gadget_orders_the_sliced_body_before_its_callee(self):
        """Call sites for ordering come from the body the slice holds
        (the first ``copy``, which calls ``helper``), not from the last
        definition of the name (which calls nothing)."""
        from repro.slicing.path_sensitive import path_sensitive_gadget

        program = analyze(IFDEF_CALL)
        criterion = next(c for c in find_special_tokens(program)
                         if c.token == "strcpy")
        gadget = path_sensitive_gadget(program, criterion)
        assert gadget.functions() == ["copy", "helper"]
        lines = gadget.line_numbers()
        assert lines.index(6) < lines.index(7) < lines.index(2)
