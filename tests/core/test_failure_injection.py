"""Failure-injection tests: the pipeline must degrade gracefully.

Corrupted inputs, degenerate corpora, unknown tokens, and hostile
sources must produce clean errors or empty results — never crashes or
silent wrong answers.
"""

import numpy as np
import pytest

from repro.core.detector import SEVulDet
from repro.core.config import Scale
from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.core.score import predict_proba
from repro.core.train import train_classifier
from repro.datasets.manifest import TestCase
from repro.datasets.sard import generate_sard_corpus
from repro.models.sevuldet import SEVulDetNet
from repro.nn import Sample

TINY = Scale("tiny", cases_per_experiment=10, dim=8, channels=8,
             hidden=8, epochs=2, batch_size=8, time_steps=16,
             w2v_epochs=1)


def garbage_case(name: str, source: str) -> TestCase:
    return TestCase(name=name, source=source, vulnerable=False,
                    vulnerable_lines=frozenset(), cwe="", category="",
                    origin="garbage")


class TestHostileSources:
    @pytest.mark.parametrize("source", [
        "",                                  # empty
        "%%%%",                              # pure garbage
        "int f( {",                          # truncated
        "\x00\x01\x02",                      # binary
        "a" * 5000,                          # one giant token
        "int x = ((((((((((1))))))))));",    # deep nesting
    ])
    def test_extract_never_crashes(self, source):
        gadgets = extract_gadgets([garbage_case("g.c", source)])
        assert isinstance(gadgets, list)

    def test_mixed_corpus_skips_only_bad_cases(self):
        good = generate_sard_corpus(4, seed=5)
        bad = [garbage_case("bad.c", "not C {{{")]
        gadgets = extract_gadgets(good + bad)
        names = {g.case_name for g in gadgets}
        assert "bad.c" not in names
        assert len(names) >= 3

    def test_detector_on_unparseable_source(self):
        detector = SEVulDet(scale=TINY, seed=1)
        detector.fit(generate_sard_corpus(10, seed=5))
        assert detector.detect("garbage {{{", path="x.c") == []

    def test_detector_on_criterion_free_source(self):
        detector = SEVulDet(scale=TINY, seed=1)
        detector.fit(generate_sard_corpus(10, seed=5))
        assert detector.detect("int f() { return 1; }") == []


class TestDegenerateTraining:
    def test_single_class_corpus_trains(self):
        """All-benign training data must not crash (oversampling has
        nothing to balance)."""
        cases = generate_sard_corpus(8, seed=5,
                                     vulnerable_fraction=0.0)
        # force: filter any stratification-induced vulnerable cases
        cases = [c for c in cases if not c.vulnerable][:6]
        gadgets = extract_gadgets(cases)
        dataset = encode_gadgets(gadgets, dim=8, w2v_epochs=0)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        report = train_classifier(model, dataset.samples, epochs=1)
        assert len(report.losses) == 1

    def test_unknown_tokens_at_inference(self):
        """A gadget whose tokens are all out-of-vocabulary must score
        without crashing (everything encodes to UNK)."""
        gadgets = extract_gadgets(generate_sard_corpus(8, seed=5))
        dataset = encode_gadgets(gadgets, dim=8, w2v_epochs=0)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        alien = Sample(tuple(dataset.vocab.encode(
            ["zzz_unknown"] * 30)), 0)
        scores = predict_proba(model, [alien])
        assert scores.shape == (1,)
        assert np.isfinite(scores).all()

    def test_minimum_length_sample(self):
        gadgets = extract_gadgets(generate_sard_corpus(8, seed=5))
        dataset = encode_gadgets(gadgets, dim=8, w2v_epochs=0)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        short = Sample((2,), 1)  # single token
        scores = predict_proba(model, [short])
        assert np.isfinite(scores).all()

    def test_scores_always_finite_after_training(self):
        gadgets = extract_gadgets(generate_sard_corpus(12, seed=5))
        dataset = encode_gadgets(gadgets, dim=8, w2v_epochs=1)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        report = train_classifier(model, dataset.samples, epochs=3,
                                  lr=5e-3)
        assert all(np.isfinite(loss) for loss in report.losses)
        scores = predict_proba(model, dataset.samples)
        assert np.isfinite(scores).all()


class TestPersistenceFailures:
    def test_loading_garbage_model_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"definitely not an npz archive")
        detector = SEVulDet(scale=TINY)
        with pytest.raises((ValueError, OSError)):
            detector.load(path)

    def test_loading_missing_file_fails_cleanly(self, tmp_path):
        detector = SEVulDet(scale=TINY)
        with pytest.raises(FileNotFoundError):
            detector.load(tmp_path / "missing.npz")
