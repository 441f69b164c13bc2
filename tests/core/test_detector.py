"""Tests for the SEVulDet public detector facade (train + detect +
persistence) and the attention hooks."""

import numpy as np
import pytest

from repro.core.attention_hook import attention_report, weights_by_line
from repro.core.config import SCALE_PRESETS
from repro.core.detector import SEVulDet
from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.datasets.sard import generate_sard_corpus
from repro.models.sevuldet import SEVulDetNet


@pytest.fixture(scope="module")
def trained():
    detector = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    detector.fit(generate_sard_corpus(80, seed=31))
    return detector


class TestDetector:
    def test_untrained_detect_raises(self):
        with pytest.raises(RuntimeError):
            SEVulDet().detect("int main() { return 0; }")

    def test_fit_returns_report(self):
        detector = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
        report = detector.fit(generate_sard_corpus(12, seed=5),
                              epochs=2)
        assert len(report.losses) == 2

    def test_fit_empty_corpus_raises(self):
        detector = SEVulDet(scale=SCALE_PRESETS["small"])
        with pytest.raises(ValueError):
            detector.fit([])

    def test_detect_vulnerable_case(self, trained):
        template = next(t for t in TEMPLATES
                        if t.name == "strcpy_stack_overflow")
        case = generate_case(template, vulnerable=True, seed=999)
        findings = trained.detect_case(case)
        assert findings, "known-vulnerable program not flagged"
        assert findings[0].score >= trained.threshold

    def test_findings_sorted_by_score(self, trained):
        case = generate_case(TEMPLATES[0], vulnerable=True, seed=999)
        findings = trained.detect_case(case)
        scores = [f.score for f in findings]
        assert scores == sorted(scores, reverse=True)

    def test_finding_locations_plausible(self, trained):
        template = next(t for t in TEMPLATES
                        if t.name == "strcpy_stack_overflow")
        case = generate_case(template, vulnerable=True, seed=998)
        findings = trained.detect_case(case)
        lines = case.source.split("\n")
        assert any("strcpy" in lines[f.line - 1] for f in findings)

    def test_detect_raw_source(self, trained):
        findings = trained.detect(
            "void f(char *d) {\nchar b[4];\nstrcpy(b, d);\n}\n"
            "int main() {\nchar l[64];\nfgets(l, 64, 0);\nf(l);\n"
            "return 0;\n}", path="probe.c")
        assert all(f.path == "probe.c" for f in findings)

    def test_flags_case_boolean(self, trained):
        case = generate_case(TEMPLATES[0], vulnerable=True, seed=997)
        assert trained.flags_case(case) == bool(
            trained.detect_case(case))

    def test_save_load_roundtrip(self, trained, tmp_path):
        path = tmp_path / "detector.npz"
        trained.save(path)
        restored = SEVulDet(scale=trained.scale)
        restored.load(path)
        case = generate_case(TEMPLATES[0], vulnerable=True, seed=996)
        original = {(f.line, round(f.score, 6))
                    for f in trained.detect_case(case)}
        loaded = {(f.line, round(f.score, 6))
                  for f in restored.detect_case(case)}
        assert original == loaded


class TestAttentionHooks:
    @pytest.fixture(scope="class")
    def setup(self):
        corpus = generate_sard_corpus(20, seed=41)
        gadgets = extract_gadgets(corpus, keep_gadget=True)
        dataset = encode_gadgets(gadgets, dim=8, w2v_epochs=1)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8,
                            pretrained=dataset.word2vec.vectors)
        return model, dataset

    def test_report_top_k(self, setup):
        model, dataset = setup
        report = attention_report(model, dataset.vocab,
                                  dataset.gadgets[0], top_k=5)
        assert len(report) == min(5, len(dataset.gadgets[0].tokens))
        weights = [t.weight for t in report]
        assert weights == sorted(weights, reverse=True)

    def test_percent_regularised_to_peak(self, setup):
        model, dataset = setup
        report = attention_report(model, dataset.vocab,
                                  dataset.gadgets[0], top_k=5)
        assert report[0].percent == 100.0
        assert all(0 < t.percent <= 100.0 for t in report)

    def test_weights_by_line_sums_to_one(self, setup):
        model, dataset = setup
        by_line = weights_by_line(model, dataset.vocab,
                                  dataset.gadgets[0])
        assert abs(sum(by_line.values()) - 1.0) < 1e-6

    def test_weights_by_line_requires_kept_gadget(self, setup):
        model, dataset = setup
        gadget = dataset.gadgets[0]
        bare = type(gadget)(tokens=gadget.tokens, label=gadget.label,
                            category=gadget.category,
                            case_name=gadget.case_name,
                            criterion=gadget.criterion,
                            kind=gadget.kind, gadget=None)
        with pytest.raises(ValueError):
            weights_by_line(model, dataset.vocab, bare)


class TestAttentionHookConsistency:
    def test_span_reconstruction_over_many_gadgets(self):
        """weights_by_line rebuilds per-line token spans with a fresh
        Normalizer; the reconstruction must agree with the stored token
        stream for every gadget, not just the case-study one."""
        from repro.core.attention_hook import weights_by_line
        from repro.core.encode import encode_gadgets
        from repro.core.extract import extract_gadgets
        corpus = generate_sard_corpus(15, seed=47)
        gadgets = extract_gadgets(corpus, keep_gadget=True,
                                  deduplicate=False)
        dataset = encode_gadgets(gadgets, dim=8, w2v_epochs=0)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        for gadget in gadgets[:25]:
            by_line = weights_by_line(model, dataset.vocab, gadget)
            assert abs(sum(by_line.values()) - 1.0) < 1e-6


class TestWeightFormat:
    """Model archives hold float32 weights and nothing else."""

    @pytest.mark.parametrize("dtype", ["float16", "int8"])
    def test_reduced_precision_archive_is_rejected_on_load(
            self, trained, tmp_path, dtype):
        # archives tagged with a reduced-precision inference dtype by
        # older code must fail loudly, naming the dtype
        import json

        from repro.nn.serialize import save_npz_atomic

        path = tmp_path / f"{dtype}.npz"
        trained.save(path)
        with np.load(path) as archive:
            metadata = json.loads(
                archive["__metadata__"].tobytes().decode())
            arrays = {k: archive[k] for k in archive.files
                      if k != "__metadata__"}
        metadata["inference_dtype"] = dtype
        save_npz_atomic(path, arrays, metadata)
        with pytest.raises(ValueError, match=dtype):
            SEVulDet(scale=trained.scale).load(path)
