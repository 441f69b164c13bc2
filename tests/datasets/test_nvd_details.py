"""Deeper tests for the NVD-style multi-sink corpus."""

import pytest

from repro.core.extract import extract_gadgets
from repro.datasets.nvd import generate_nvd_corpus
from repro.lang.callgraph import analyze


@pytest.fixture(scope="module")
def corpus():
    return generate_nvd_corpus(24, seed=31)


class TestComposition:
    def test_exactly_one_vulnerable_component(self, corpus):
        """Vulnerable NVD cases embed exactly one flaw variant; the
        marked lines must form one contiguous-template cluster."""
        for case in corpus:
            if case.vulnerable:
                assert case.vulnerable_lines
                assert case.cwe != "CWE-000"
            else:
                assert not case.vulnerable_lines

    def test_dispatcher_calls_every_sink(self, corpus):
        for case in corpus[:8]:
            program = analyze(case.source)
            mains = program.call_graph.callees("main")
            assert len(mains) == 1
            dispatcher = next(iter(mains))
            sinks = program.call_graph.callees(dispatcher)
            assert len(sinks) >= 2

    def test_templates_metadata_matches_structure(self, corpus):
        for case in corpus[:8]:
            assert 2 <= len(case.meta["templates"]) <= 3

    def test_deterministic(self):
        a = generate_nvd_corpus(6, seed=9)
        b = generate_nvd_corpus(6, seed=9)
        assert [c.source for c in a] == [c.source for c in b]

    def test_gadget_labels_respect_component_boundaries(self, corpus):
        """Gadgets anchored inside a *patched* component of a
        vulnerable case must stay labelled 0; only gadgets whose slice
        reaches the flawed lines inherit label 1."""
        vulnerable_cases = [c for c in corpus if c.vulnerable][:4]
        gadgets = extract_gadgets(vulnerable_cases, deduplicate=False,
                                  keep_gadget=True)
        flaw_lines = {c.name: c.vulnerable_lines
                      for c in vulnerable_cases}
        for gadget in gadgets:
            assert gadget.gadget is not None
            covered = {line.line for line in gadget.gadget.lines}
            expected = 1 if covered & flaw_lines[gadget.case_name] \
                else 0
            assert gadget.label == expected

    def test_nvd_gadgets_longer_than_sard(self):
        from repro.datasets.sard import generate_sard_corpus
        import numpy as np
        nvd = extract_gadgets(generate_nvd_corpus(10, seed=5))
        sard = extract_gadgets(generate_sard_corpus(20, seed=5))
        nvd_mean = np.mean([len(g.tokens) for g in nvd])
        sard_mean = np.mean([len(g.tokens) for g in sard])
        assert nvd_mean > sard_mean
