"""Property tests: line -> function attribution vs lexer spans.

``AnalyzedProgram.functions_of_line`` is derived from parser nodes;
``repro.core.fingerprint.lexer_function_spans`` re-derives the same
spans from the raw token stream with no parser involved.  Agreement
between the two independent derivations — on every line of every
generated program, including shared boundary lines like
``} int next(void) {`` — is what lets the incremental-scanning layer
trust hunk-to-function mapping.
"""

import random

from repro.core.fingerprint import lexer_function_spans
from repro.lang.callgraph import analyze
from repro.lang.pdg import build_pdg

BOUNDARY_SOURCE = """\
int first(int n) {
    return n + 1;
} int second(int n) {
    return n + 2;
}
"""


def _random_program(rng: random.Random) -> str:
    """A small C file with randomized bodies, spacing, and optional
    shared boundary lines between adjacent functions."""
    parts = []
    names = [f"fn{i}" for i in range(rng.randint(2, 5))]
    for index, name in enumerate(names):
        body_lines = []
        for j in range(rng.randint(1, 4)):
            body_lines.append(f"    int v{j} = {rng.randint(0, 9)};")
        if index + 1 < len(names) and rng.random() < 0.5:
            callee = names[index + 1]
            body_lines.append(f"    return {callee}({index});")
        else:
            body_lines.append(f"    return {index};")
        body = "\n".join(body_lines)
        text = f"int {name}(int n) {{\n{body}\n}}"
        parts.append(text)
    glue = []
    for index, text in enumerate(parts):
        if index and rng.random() < 0.3:
            # shared boundary line: previous closing brace and this
            # signature on one line
            glue[-1] = glue[-1] + " " + text
        else:
            glue.append(text)
    blanks = "\n" * rng.randint(1, 3)
    # definitions are bottom-up so forward calls resolve textually
    return blanks.join(reversed(glue)) + "\n"


class TestAgainstLexerSpans:
    def test_randomized_programs_agree_on_every_line(self):
        rng = random.Random(1337)
        for _ in range(25):
            source = _random_program(rng)
            program = analyze(source)
            spans = lexer_function_spans(source)
            total_lines = source.count("\n") + 1
            for line in range(1, total_lines + 1):
                expected = [s.name for s in spans
                            if s.covers_line(line)]
                assert program.functions_of_line(line) == expected, \
                    f"line {line} of:\n{source}"

    def test_single_winner_is_last_starter(self):
        rng = random.Random(7331)
        for _ in range(25):
            source = _random_program(rng)
            program = analyze(source)
            spans = lexer_function_spans(source)
            total_lines = source.count("\n") + 1
            for line in range(1, total_lines + 1):
                covering = [s.name for s in spans
                            if s.covers_line(line)]
                expected = covering[-1] if covering else None
                assert program.function_of_line(line) == expected


class TestSharedBoundaryLine:
    def test_both_functions_own_the_boundary(self):
        program = analyze(BOUNDARY_SOURCE)
        assert program.functions_of_line(3) == ["first", "second"]

    def test_starter_wins_single_attribution(self):
        # line 3 is first's closing brace AND second's signature; the
        # code on it after the brace belongs to second
        program = analyze(BOUNDARY_SOURCE)
        assert program.function_of_line(3) == "second"

    def test_interior_lines_unambiguous(self):
        program = analyze(BOUNDARY_SOURCE)
        assert program.functions_of_line(2) == ["first"]
        assert program.functions_of_line(4) == ["second"]
        assert program.functions_of_line(99) == []


class TestCallGraphEdges:
    def test_edges_match_pdg_calls(self):
        """The AST-derived call graph agrees with the calls its PDGs see."""
        rng = random.Random(2424)
        for _ in range(10):
            source = _random_program(rng)
            program = analyze(source)
            defined = set(program.function_names)
            callees = {fn.name: {callee for callee
                                 in build_pdg(fn).calls_made()
                                 if callee in defined}
                       for fn in program.unit.functions}
            for name in defined:
                callers = {caller for caller, targets in callees.items()
                           if name in targets}
                assert program.call_graph.callees(name) == callees[name]
                assert program.call_graph.callers(name) == callers
