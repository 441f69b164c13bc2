"""Tests for call-graph construction and the program facade."""

from repro.lang.callgraph import analyze

SOURCE = """\
int helper(int x) {
    return x + 1;
}

void middle(char *data, int n) {
    int v = helper(n);
    strncpy(data, data, v);
}

int main() {
    char buf[16];
    fgets(buf, 16, 0);
    middle(buf, 3);
    middle(buf, 4);
    return 0;
}
"""


class TestCallGraph:
    def test_edges(self):
        program = analyze(SOURCE)
        assert program.call_graph.calls("main", "middle")
        assert program.call_graph.calls("middle", "helper")
        assert not program.call_graph.calls("helper", "middle")

    def test_library_calls_not_in_graph(self):
        program = analyze(SOURCE)
        assert not program.call_graph.calls("middle", "strncpy")

    def test_multiple_sites_recorded(self):
        program = analyze(SOURCE)
        sites = program.call_graph.sites_calling("middle")
        assert len(sites) == 2
        assert {s.line for s in sites} == {13, 14}

    def test_callers_and_callees(self):
        program = analyze(SOURCE)
        assert program.call_graph.callers("helper") == {"middle"}
        assert program.call_graph.callees("main") == {"middle"}


class TestFacade:
    def test_function_names(self):
        program = analyze(SOURCE)
        assert program.function_names == ["helper", "middle", "main"]

    def test_pdgs_built_for_all(self):
        program = analyze(SOURCE)
        assert set(program.pdgs) == {"helper", "middle", "main"}

    def test_node_at(self):
        program = analyze(SOURCE)
        node = program.node_at("middle", 6)
        assert node is not None and node.line == 6
        assert program.node_at("middle", 999) is None

    def test_statement_text(self):
        program = analyze(SOURCE)
        assert program.statement_text(6) == "int v = helper(n);"

    def test_recursion_handled(self):
        program = analyze("int f(int n) { if (n) { return f(n - 1); } "
                          "return 0; }")
        assert program.call_graph.calls("f", "f")
