"""Tests for multiclass CWE typing (Fig 2(b) vulnerability type)."""

import numpy as np
import pytest

from repro.core.cwe_typing import CWETyper
from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.datasets.sard import generate_sard_corpus
from repro.models.multiclass import CWETypeNet
from repro.nn import Tensor, cross_entropy, set_default_dtype


class TestCrossEntropy:
    @pytest.fixture(autouse=True)
    def pin_float64(self):
        # Exact-reference and central-difference checks need float64;
        # the production default is float32 (repro.nn.dtype).
        previous = set_default_dtype(np.float64)
        yield
        set_default_dtype(previous)

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        targets = rng.integers(0, 4, size=5)
        loss = cross_entropy(logits, targets)
        z = logits.data
        shifted = z - z.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1,
                                                      keepdims=True)
        reference = -np.log(probs[np.arange(5), targets]).mean()
        assert abs(float(loss.data) - reference) < 1e-9

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 4))
        targets = np.array([0, 2, 1])
        logits = Tensor(data.copy(), requires_grad=True)
        cross_entropy(logits, targets).backward()
        eps = 1e-6
        numeric = np.zeros_like(data)
        for i in range(3):
            for j in range(4):
                data[i, j] += eps
                plus = float(cross_entropy(Tensor(data),
                                           targets).data)
                data[i, j] -= 2 * eps
                minus = float(cross_entropy(Tensor(data),
                                            targets).data)
                data[i, j] += eps
                numeric[i, j] = (plus - minus) / (2 * eps)
        assert np.abs(logits.grad - numeric).max() < 1e-6

    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) < 1e-6


class TestCWETypeNet:
    def test_forward_shape(self):
        model = CWETypeNet(vocab_size=30, num_classes=5, dim=8,
                           channels=8)
        ids = np.zeros((3, 12), dtype=np.int64)
        assert model(ids).shape == (3, 5)

    def test_predict_proba_rows_sum_to_one(self):
        model = CWETypeNet(vocab_size=30, num_classes=4, dim=8,
                           channels=8)
        probs = model.predict_proba(np.zeros((2, 9), dtype=np.int64))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            CWETypeNet(vocab_size=10, num_classes=1)


class TestCWETyper:
    @pytest.fixture(scope="class")
    def fitted(self):
        cases = generate_sard_corpus(120, seed=55)
        gadgets = extract_gadgets(cases)
        dataset = encode_gadgets(gadgets, dim=12, w2v_epochs=1,
                                 seed=5)
        typer = CWETyper(vocab=dataset.vocab, dim=12, channels=12,
                         seed=5)
        typer.fit(gadgets, epochs=10,
                  pretrained=dataset.word2vec.vectors)
        return typer, gadgets

    def test_learns_multiple_classes(self, fitted):
        typer, _ = fitted
        assert len(typer.classes) >= 4

    def test_training_accuracy_beats_majority(self, fitted):
        typer, gadgets = fitted
        vulnerable = [g for g in gadgets if g.label == 1 and g.cwe]
        counts = {}
        for gadget in vulnerable:
            counts[gadget.cwe] = counts.get(gadget.cwe, 0) + 1
        majority = max(counts.values()) / len(vulnerable)
        accuracy = typer.accuracy(gadgets)
        assert accuracy > majority + 0.1, (accuracy, majority)

    def test_classify_returns_known_class(self, fitted):
        typer, gadgets = fitted
        target = next(g for g in gadgets if g.label == 1)
        assert typer.classify(target) in typer.classes

    def test_untrained_raises(self):
        from repro.embedding.vocab import Vocabulary
        typer = CWETyper(vocab=Vocabulary())
        with pytest.raises(RuntimeError):
            typer.classify_tokens(["strcpy"])

    def test_fit_requires_vulnerable_gadgets(self):
        from repro.embedding.vocab import Vocabulary
        typer = CWETyper(vocab=Vocabulary())
        with pytest.raises(ValueError):
            typer.fit([])
