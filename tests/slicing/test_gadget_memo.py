"""Each distinct slice is assembled, labeled and normalized once.

Within one case, criteria whose slices agree share one assembled gadget
(re-roled for each criterion) and one label and normalization (keyed
on the gadget's line numbers).  ``extract_gadgets`` must still give,
for both kinds and with ``keep_gadget`` on and off, exactly what a
per-criterion reference gives: ``path_sensitive_gadget`` /
``classic_gadget`` on a freshly analyzed program (so nothing is
shared), then ``label_gadget`` and ``normalize_gadget``.  The count
tests pin the sharing itself: one normalization per distinct line
sequence of a case, and one walk of each function body.

The tier-1 suite runs the properties at hypothesis's default budget.
CI runs the module's own profile, 1,000 examples:

    PYTHONPATH=src python -m tests.slicing.test_gadget_memo
"""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import extract
from repro.core.extract import LabeledGadget, extract_gadgets
from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.datasets.manifest import TestCase
from repro.lang import ast_nodes as A
from repro.lang.callgraph import analyze
from repro.slicing.gadget import classic_gadget
from repro.slicing.labeling import label_gadget
from repro.slicing.normalize import normalize_gadget
from repro.slicing.path_sensitive import path_sensitive_gadget
from repro.slicing.special_tokens import find_special_tokens
from tests.lang.test_properties import random_programs
from tests.slicing.test_gadget_golden import MODULE_SOURCE

settings.register_profile("gadget-memo", max_examples=1000,
                          deadline=None)
if __name__ == "__main__":
    settings.load_profile("gadget-memo")

#: (kind, use_control) pairs extraction supports
SETTINGS = [("path-sensitive", True), ("classic", True),
            ("classic", False)]


def reference_gadgets(case: TestCase, kind: str, use_control: bool,
                      keep_gadget: bool) -> list[LabeledGadget]:
    """One slice, assembly, label and normalization per criterion."""
    manifest = case.manifest()
    out = []
    for criterion in find_special_tokens(analyze(case.source,
                                                 path=case.name)):
        program = analyze(case.source, path=case.name)
        if kind == "path-sensitive":
            gadget = path_sensitive_gadget(program, criterion)
        else:
            gadget = classic_gadget(program, criterion,
                                    use_control=use_control)
        if not gadget.lines:
            continue
        gadget.label = label_gadget(gadget, manifest)
        out.append(LabeledGadget(
            tokens=tuple(normalize_gadget(gadget).tokens),
            label=gadget.label, category=criterion.category.value,
            case_name=case.name, criterion=criterion, kind=kind,
            gadget=gadget if keep_gadget else None, cwe=case.cwe))
    return out


def assert_matches_reference(case: TestCase) -> None:
    for kind, use_control in SETTINGS:
        for keep_gadget in (False, True):
            got = extract_gadgets([case], kind=kind,
                                  use_control=use_control,
                                  deduplicate=False,
                                  keep_gadget=keep_gadget)
            assert got == reference_gadgets(case, kind, use_control,
                                            keep_gadget)


def _case(source: str, vulnerable_lines, name: str = "memo.c") -> TestCase:
    return TestCase(name=name, source=source, vulnerable=True,
                    vulnerable_lines=frozenset(vulnerable_lines),
                    cwe="CWE-121", category="AU")


# -- programs where many criteria share a slice ---------------------------------

#: statements over one array ``a``, a pointer ``p`` into it and the
#: parameter ``n``: each reads or writes what the others touch, so most
#: of a function's criteria slice to the same statements
_STATEMENTS = (
    "a[n] = n + 1;",
    "p = a + n;",
    "*p = n * 2;",
    "memcpy(a, p, n);",
    "n = n - 1;",
    "p[1] = a[0] + n;",
    "if (n > 3) {{\n a[0] = n;\n}}",
    "if (n > 3) {{\n *p = 1;\n}} else {{\n p[0] = n;\n}}",
    "while (n > 2) {{\n n--;\n}}",
    "for (n = 0; n < 4; n++) {{\n a[n] = n;\n}}",
    "switch (n) {{\ncase 1:\n a[1] = n;\n break;\ndefault:\n break;\n}}",
    "n = {callee}(a, n + 1);",
    "strcpy(a, p);",
)


@st.composite
def shared_slice_programs(draw):
    """A chain of 1-3 functions, each calling the next, whose statements
    all touch the same three variables."""
    count = draw(st.integers(min_value=1, max_value=3))
    functions = []
    for index in reversed(range(count)):
        callee = f"g{index + 1}" if index + 1 < count else "strlen"
        picks = draw(st.lists(st.sampled_from(_STATEMENTS), min_size=1,
                              max_size=6))
        body = "\n".join(s.format(callee=callee) for s in picks)
        functions.append(
            f"int g{index}(char *a, int n) {{\nchar *p = a;\n{body}\n"
            f"return n;\n}}")
    return "\n".join(functions)


def _labeled(draw, source: str) -> TestCase:
    lines = source.count("\n") + 1
    vulnerable = draw(st.sets(st.integers(min_value=1, max_value=lines),
                              max_size=3))
    return _case(source, vulnerable)


# -- the differential properties -------------------------------------------------


class TestMatchesPerCriterionReference:
    @given(st.data())
    @settings(deadline=None)
    def test_random_programs(self, data):
        assert_matches_reference(
            _labeled(data.draw, data.draw(random_programs())))

    @given(st.data())
    @settings(deadline=None)
    def test_programs_sharing_slices(self, data):
        assert_matches_reference(
            _labeled(data.draw, data.draw(shared_slice_programs())))

    @given(st.sampled_from(TEMPLATES), st.booleans(),
           st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None)
    def test_template_programs(self, template, vulnerable, seed):
        assert_matches_reference(
            generate_case(template, vulnerable=vulnerable, seed=seed))

    def test_recursive_module(self):
        assert_matches_reference(_case(MODULE_SOURCE, {29, 58}))


# -- the sharing itself ----------------------------------------------------------


def _corpus() -> list[TestCase]:
    cases = [generate_case(template, vulnerable=vulnerable, seed=5)
             for template in TEMPLATES for vulnerable in (True, False)]
    cases.append(_case(MODULE_SOURCE, {29, 58}, name="module.c"))
    return cases


class TestWorkDoneOnce:
    @pytest.mark.parametrize("kind", ["path-sensitive", "classic"])
    def test_one_normalization_per_distinct_line_sequence(
            self, kind, monkeypatch):
        calls = []

        def counting(gadget, *args, **kwargs):
            calls.append(gadget.source_path)
            return normalize_gadget(gadget, *args, **kwargs)

        monkeypatch.setattr(extract, "normalize_gadget", counting)
        gadgets = extract_gadgets(_corpus(), kind=kind, deduplicate=False,
                                  keep_gadget=True)
        sequences = {(g.case_name, tuple(g.gadget.line_numbers()))
                     for g in gadgets}
        assert len(sequences) < len(
            {(g.case_name, g.criterion.function, g.criterion.line)
             for g in gadgets})  # the corpus has slices to share
        assert Counter(calls) == Counter(case for case, _ in sequences)

    def test_each_function_body_is_walked_once(self, monkeypatch):
        programs = []
        walked = Counter()
        walk = A.walk

        def recording_analyze(*args, **kwargs):
            programs.append(analyze(*args, **kwargs))
            return programs[-1]

        def counting_walk(node):
            walked[id(node)] += 1
            return walk(node)

        monkeypatch.setattr(extract, "analyze", recording_analyze)
        monkeypatch.setattr(A, "walk", counting_walk)
        extract_gadgets(_corpus(), deduplicate=False)
        bodies = [fn.body for program in programs
                  for fn in program.unit.functions]
        assert len(programs) == len(_corpus()) and bodies
        assert [walked[id(body)] for body in bodies] == [1] * len(bodies)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
