"""Tests for validation-driven early stopping in the trainer."""

import numpy as np
import pytest

from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.core.score import evaluate_classifier
from repro.core.train import train_classifier
from repro.datasets.sard import generate_sard_corpus
from repro.models.sevuldet import SEVulDetNet


@pytest.fixture(scope="module")
def dataset():
    gadgets = extract_gadgets(generate_sard_corpus(50, seed=81))
    return encode_gadgets(gadgets, dim=10, w2v_epochs=1, seed=2)


def fresh_model(dataset):
    return SEVulDetNet(len(dataset.vocab), dim=10, channels=10,
                       pretrained=dataset.word2vec.vectors, seed=2)


class TestEarlyStopping:
    def test_val_curve_recorded(self, dataset):
        split = len(dataset.samples) * 3 // 4
        report = train_classifier(
            fresh_model(dataset), dataset.samples[:split],
            epochs=5, seed=2,
            validation=dataset.samples[split:])
        assert len(report.val_f1) == len(report.losses)
        assert report.best_epoch >= 0

    def test_patience_stops_training(self, dataset):
        split = len(dataset.samples) * 3 // 4
        report = train_classifier(
            fresh_model(dataset), dataset.samples[:split],
            epochs=40, seed=2, lr=1e-2,
            validation=dataset.samples[split:], patience=2)
        assert report.stopped_early or len(report.losses) == 40
        # with a high lr and tiny data, 40 epochs should trip patience
        assert len(report.losses) < 40

    def test_best_weights_restored(self, dataset):
        split = len(dataset.samples) * 3 // 4
        model = fresh_model(dataset)
        validation = dataset.samples[split:]
        report = train_classifier(
            model, dataset.samples[:split], epochs=12, seed=2,
            validation=validation, patience=3)
        final = evaluate_classifier(model, validation)
        assert abs(final.f1 - max(report.val_f1)) < 1e-9

    def test_no_validation_keeps_old_behavior(self, dataset):
        report = train_classifier(fresh_model(dataset),
                                  dataset.samples, epochs=3, seed=2)
        assert report.val_f1 == []
        assert not report.stopped_early
        assert len(report.losses) == 3
