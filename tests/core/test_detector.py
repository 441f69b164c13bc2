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


class TestQuantization:
    """Reduced-precision detector weights (quantize/save/load/token)."""

    @pytest.fixture()
    def fresh(self, trained, tmp_path):
        """A private float32 copy of the trained detector — the module
        fixture is shared, so quantization must not mutate it."""
        path = tmp_path / "detector.npz"
        trained.save(path)
        detector = SEVulDet(scale=trained.scale)
        detector.load(path)
        return detector

    def test_int8_dequantizes_to_float32_grid(self, fresh):
        report = fresh.quantize("int8",
                                generate_sard_corpus(10, seed=9091))
        assert fresh.inference_dtype == "int8"
        assert report.per_tensor  # every weight matrix recorded
        assert report.payload_nbytes < report.weights_nbytes_before
        # per-tensor int8 is coarse (the embedding matrix dominates):
        # individual probabilities can move visibly, but the verdict
        # contract — no flips at the operating threshold — must hold
        assert report.mean_abs_delta < 2e-2
        assert report.flips == 0
        assert all(p.data.dtype == np.float32
                   for p in fresh.model.parameters())

    def test_config_token_depends_on_inference_dtype(self, fresh):
        before = fresh.config_token()
        fresh.inference_dtype = "int8"  # tag alone must miss caches
        assert fresh.config_token() != before

    def test_double_quantization_raises(self, fresh):
        fresh.quantize("int8")
        with pytest.raises(ValueError, match="already int8"):
            fresh.quantize("float32")
        # re-applying the same dtype is allowed (idempotent)
        fresh.quantize("int8")

    def test_unknown_dtype_rejected(self, fresh):
        with pytest.raises(ValueError):
            fresh.quantize("bfloat16")

    def test_float16_archive_is_rejected_on_load(self, fresh, tmp_path):
        # float16 inference weights are no longer supported: an archive
        # tagged with them must fail loudly, naming the dtype
        fresh.inference_dtype = "float16"
        path = tmp_path / "f16.npz"
        fresh.save(path)
        with pytest.raises(ValueError, match="float16"):
            SEVulDet(scale=fresh.scale).load(path)

    def test_quantized_save_load_roundtrip(self, fresh, tmp_path):
        fresh.quantize("int8")
        saved_state = {k: v.copy()
                       for k, v in fresh.model.state_dict().items()}
        path = tmp_path / "int8.npz"
        fresh.save(path)
        restored = SEVulDet(scale=fresh.scale)
        restored.load(path)
        assert restored.inference_dtype == "int8"
        for key, value in restored.model.state_dict().items():
            assert value.dtype == saved_state[key].dtype, key
            assert np.array_equal(value, saved_state[key]), key
        case = generate_case(TEMPLATES[0], vulnerable=True, seed=995)
        original = [(f.line, f.score) for f in fresh.detect_case(case)]
        loaded = [(f.line, f.score)
                  for f in restored.detect_case(case)]
        assert original == loaded

    def test_scan_service_quantizes_and_keys_cache(self, fresh,
                                                   trained):
        from repro.core.serve import ScanService

        calibration = generate_sard_corpus(6, seed=9091)
        with ScanService(fresh, workers=1, dtype="int8",
                         calibration=calibration) as service:
            assert fresh.inference_dtype == "int8"
            assert fresh.quantization_report is not None
            assert service.config_token != trained.config_token()
            case = generate_case(TEMPLATES[0], vulnerable=True,
                                 seed=994)
            verdict = service.scan_case(case)
            assert verdict.status in ("flagged", "clean")
