"""Property-based and dataset-level invariants of the gadget machinery."""

import pytest
from hypothesis import given, settings

from repro.core.extract import extract_gadgets
from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.lang.callgraph import analyze
from repro.slicing.gadget import classic_gadget
from repro.slicing.normalize import Normalizer, normalize_gadget
from repro.slicing.path_sensitive import path_sensitive_gadget
from repro.slicing.special_tokens import find_special_tokens

from ..lang.test_properties import random_programs

GUARD_TEMPLATE = next(t for t in TEMPLATES
                      if t.name == "guard_placement_strncpy")


class TestFig1DatasetProperty:
    """The Fig 1 identity must hold for every *generated* pair too:
    same-seed vulnerable/patched guard-placement cases have identical
    classic gadgets, distinct path-sensitive gadgets, and different
    labels — the contradiction that caps any classic-gadget learner at
    50% on this family."""

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_generated_pairs(self, seed):
        bad = generate_case(GUARD_TEMPLATE, vulnerable=True, seed=seed)
        good = generate_case(GUARD_TEMPLATE, vulnerable=False,
                             seed=seed)

        def strncpy_gadgets(case, kind):
            gadgets = extract_gadgets([case], kind=kind,
                                      deduplicate=False)
            return [g for g in gadgets
                    if g.criterion.token == "strncpy"]

        (bad_cg,) = strncpy_gadgets(bad, "classic")
        (good_cg,) = strncpy_gadgets(good, "classic")
        assert bad_cg.tokens == good_cg.tokens, seed
        assert bad_cg.label == 1 and good_cg.label == 0

        (bad_ps,) = strncpy_gadgets(bad, "path-sensitive")
        (good_ps,) = strncpy_gadgets(good, "path-sensitive")
        assert bad_ps.tokens != good_ps.tokens, seed
        assert bad_ps.label == 1 and good_ps.label == 0


class TestStructuralInvariants:
    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_ps_lines_superset_of_classic(self, source):
        program = analyze(source)
        for criterion in find_special_tokens(program):
            classic = classic_gadget(program, criterion)
            sensitive = path_sensitive_gadget(program, criterion)
            assert set(classic.line_numbers()) <= \
                set(sensitive.line_numbers())

    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_gadget_lines_sorted_within_function(self, source):
        program = analyze(source)
        for criterion in find_special_tokens(program):
            gadget = path_sensitive_gadget(program, criterion)
            by_function: dict[str, list[int]] = {}
            for line in gadget.lines:
                by_function.setdefault(line.function,
                                       []).append(line.line)
            for numbers in by_function.values():
                assert numbers == sorted(numbers)

    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_criterion_line_always_present(self, source):
        program = analyze(source)
        for criterion in find_special_tokens(program):
            gadget = path_sensitive_gadget(program, criterion)
            assert criterion.line in gadget.line_numbers()

    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_normalization_deterministic(self, source):
        program = analyze(source)
        for criterion in find_special_tokens(program)[:3]:
            gadget = path_sensitive_gadget(program, criterion)
            assert normalize_gadget(gadget).tokens == \
                normalize_gadget(gadget).tokens

    @given(random_programs())
    @settings(max_examples=30, deadline=None)
    def test_normalized_symbols_dense(self, source):
        """varN symbols are issued densely from var1 upward."""
        program = analyze(source)
        for criterion in find_special_tokens(program)[:3]:
            gadget = path_sensitive_gadget(program, criterion)
            normalized = normalize_gadget(gadget)
            issued = sorted(set(normalized.var_map.values()))
            assert issued == [f"var{i + 1}"
                              for i in range(len(issued))]


class TestExtractionConsistency:
    @pytest.mark.parametrize("template", TEMPLATES[:6],
                             ids=lambda t: t.name)
    def test_extract_deterministic(self, template):
        case = generate_case(template, vulnerable=True, seed=3)
        first = extract_gadgets([case])
        second = extract_gadgets([case])
        assert [g.tokens for g in first] == [g.tokens for g in second]
        assert [g.label for g in first] == [g.label for g in second]

    def test_vulnerable_line_always_in_some_gadget(self):
        """Every marked flaw line is covered by at least one gadget —
        otherwise the flaw would be invisible to the detector."""
        for template in TEMPLATES:
            case = generate_case(template, vulnerable=True, seed=6)
            gadgets = extract_gadgets([case], deduplicate=False,
                                      keep_gadget=True)
            covered = set()
            for gadget in gadgets:
                assert gadget.gadget is not None
                covered.update(line.line for line in
                               gadget.gadget.lines)
            missing = case.vulnerable_lines - covered
            assert not missing, (template.name, missing)
