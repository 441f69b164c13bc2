"""Property tests: token-derived function extents vs the parser.

``repro.core.fingerprint`` finds function extents in the raw token
stream (no parser), while slicing works on the parser's functions.
Fingerprints stay correct only while the two agree: every parsed
function gets a fingerprint, and an edit inside one body moves that
function's fingerprint and no other's — on generated programs that
include shared boundary lines like ``} int next(void) {``.  The call
graph's AST edges are checked against the PDGs the same way.
"""

import random
import re

from repro.core.fingerprint import (_function_token_runs, changed_functions,
                                    function_fingerprints)
from repro.lang.callgraph import analyze
from repro.lang.lexer import tokenize
from repro.lang.pdg import build_pdg

#: the trailing constant of a body line such as ``int v0 = 5;``
CONSTANT = re.compile(r"(\d+);$")


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
            tokens = tokenize(source)
            spans = [(name, tokens[first].line, tokens[last].line)
                     for name, first, last in _function_token_runs(tokens)]
            functions = analyze(source).unit.functions
            total_lines = source.count("\n") + 1
            for line in range(1, total_lines + 1):
                expected = [name for name, start, end in spans
                            if start <= line <= end]
                assert [fn.name for fn in functions
                        if fn.line <= line <= fn.body.end_line] == \
                    expected, f"line {line} of:\n{source}"


class TestFingerprintsAgainstParser:
    def test_keys_are_the_parsers_function_names(self):
        rng = random.Random(1337)
        for _ in range(25):
            source = _random_program(rng)
            program = analyze(source)
            assert list(function_fingerprints(source)) == \
                program.function_names, source

    def test_body_edit_changes_only_that_function(self):
        rng = random.Random(7331)
        for _ in range(25):
            source = _random_program(rng)
            lines = source.split("\n")
            for fn in analyze(source).unit.functions:
                # an in-place edit of the first constant in the body
                line = next(n for n in range(fn.line + 1,
                                             fn.body.end_line)
                            if CONSTANT.search(lines[n - 1]))
                edited = list(lines)
                edited[line - 1] = CONSTANT.sub(
                    lambda m: f"{int(m.group(1)) + 1};",
                    lines[line - 1])
                assert changed_functions(
                    source, "\n".join(edited)) == {fn.name}, source


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
