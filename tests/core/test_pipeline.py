"""Tests for the core pipeline: extraction, encoding, training."""

import numpy as np
import pytest

from repro.core.config import SCALE_PRESETS, current_scale
from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.core.score import evaluate_classifier, predict_proba
from repro.core.train import train_classifier
from repro.datasets.sard import generate_sard_corpus
from repro.models.sevuldet import SEVulDetNet


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(30, seed=21)


@pytest.fixture(scope="module")
def gadgets(corpus):
    return extract_gadgets(corpus, kind="path-sensitive")


class TestExtraction:
    def test_gadgets_extracted(self, gadgets):
        assert len(gadgets) > 30

    def test_both_labels_present(self, gadgets):
        labels = {g.label for g in gadgets}
        assert labels == {0, 1}

    def test_vulnerable_gadgets_from_vulnerable_cases(self, corpus,
                                                      gadgets):
        vulnerable_names = {c.name for c in corpus if c.vulnerable}
        for gadget in gadgets:
            if gadget.label == 1:
                assert gadget.case_name in vulnerable_names

    def test_categories_recorded(self, gadgets):
        assert {g.category for g in gadgets} <= {"FC", "AU", "PU", "AE"}

    def test_category_filter(self, corpus):
        only_fc = extract_gadgets(corpus, categories=("FC",))
        assert all(g.category == "FC" for g in only_fc)

    def test_classic_kind(self, corpus):
        classic = extract_gadgets(corpus, kind="classic")
        assert all(g.kind == "classic" for g in classic)

    def test_data_only_slicing_shrinks_gadgets(self, corpus):
        with_control = extract_gadgets(corpus, kind="classic",
                                       use_control=True)
        data_only = extract_gadgets(corpus, kind="classic",
                                    use_control=False)
        mean = lambda gs: np.mean([len(g.tokens) for g in gs])
        assert mean(data_only) < mean(with_control)

    def test_dedup_removes_exact_duplicates(self, corpus):
        deduped = extract_gadgets(corpus, deduplicate=True)
        raw = extract_gadgets(corpus, deduplicate=False)
        assert len(deduped) <= len(raw)
        keys = [(g.tokens, g.label) for g in deduped]
        assert len(keys) == len(set(keys))

    def test_unknown_kind_rejected(self, corpus):
        with pytest.raises(ValueError):
            extract_gadgets(corpus, kind="quantum")

    def test_unparseable_case_skipped(self):
        from repro.datasets.manifest import TestCase
        broken = TestCase("x.c", "not C at all {{{", False,
                          frozenset(), "", "FC")
        assert extract_gadgets([broken]) == []

    def test_keep_gadget_flag(self, corpus):
        kept = extract_gadgets(corpus[:3], keep_gadget=True)
        assert all(g.gadget is not None for g in kept)
        dropped = extract_gadgets(corpus[:3], keep_gadget=False)
        assert all(g.gadget is None for g in dropped)


class TestEncoding:
    def test_encode_builds_vocab_and_vectors(self, gadgets):
        dataset = encode_gadgets(gadgets[:50], dim=8, w2v_epochs=1)
        assert len(dataset.vocab) > 10
        assert dataset.word2vec.vectors.shape[1] == 8
        assert len(dataset.samples) == 50

    def test_samples_roundtrip_tokens(self, gadgets):
        dataset = encode_gadgets(gadgets[:10], dim=8, w2v_epochs=0)
        for gadget, sample in zip(dataset.gadgets, dataset.samples):
            decoded = dataset.vocab.decode(list(sample.token_ids))
            assert decoded == list(gadget.tokens)

    def test_existing_vocab_reused(self, gadgets):
        first = encode_gadgets(gadgets[:20], dim=8, w2v_epochs=0)
        second = encode_gadgets(gadgets[:20], dim=8,
                                vocab=first.vocab,
                                word2vec=first.word2vec)
        assert second.vocab is first.vocab

    def test_labels_property(self, gadgets):
        dataset = encode_gadgets(gadgets[:20], dim=8, w2v_epochs=0)
        assert dataset.labels.tolist() == \
            [g.label for g in gadgets[:20]]

    def test_id_aliases_route_rare_tokens_to_unk(self, gadgets):
        dataset = encode_gadgets(gadgets[:10], dim=8, w2v_epochs=0,
                                 min_count=2)
        aliases = dataset.id_aliases
        assert aliases is not None and len(aliases) == \
            len(dataset.vocab)
        counts = {}
        for sample in dataset.samples:
            for token_id in sample.token_ids:
                counts[token_id] = counts.get(token_id, 0) + 1
        for token_id, count in counts.items():
            expected = 1 if token_id >= 2 and count < 2 else token_id
            assert aliases[token_id] == expected
        # samples themselves stay lossless — aliasing is embedding-only
        assert all(1 not in s.token_ids for s in dataset.samples)

    def test_bind_embedding_aliases(self, gadgets):
        dataset = encode_gadgets(gadgets[:10], dim=8, w2v_epochs=0)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        assert model.embedding.id_aliases is None
        dataset.bind_embedding_aliases(model)
        assert model.embedding.id_aliases is dataset.id_aliases


class TestTraining:
    def test_training_reduces_loss(self, gadgets):
        dataset = encode_gadgets(gadgets, dim=8, w2v_epochs=1)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8,
                            seed=0)
        report = train_classifier(model, dataset.samples, epochs=6,
                                  lr=5e-3, seed=0)
        assert report.losses[-1] < report.losses[0]
        assert report.final_loss == report.losses[-1]

    def test_predict_proba_order_and_range(self, gadgets):
        dataset = encode_gadgets(gadgets[:30], dim=8, w2v_epochs=0)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        scores = predict_proba(model, dataset.samples)
        assert scores.shape == (30,)
        assert ((scores >= 0) & (scores <= 1)).all()
        # deterministic: same input, same output
        again = predict_proba(model, dataset.samples)
        assert np.allclose(scores, again)

    def test_evaluate_returns_metrics(self, gadgets):
        dataset = encode_gadgets(gadgets[:30], dim=8, w2v_epochs=0)
        model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8)
        metrics = evaluate_classifier(model, dataset.samples)
        assert 0.0 <= metrics.accuracy <= 1.0


class TestScaleConfig:
    def test_presets_exist(self):
        assert {"small", "medium", "paper"} <= set(SCALE_PRESETS)

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert current_scale().name == "medium"

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()

    def test_table4_hyperparams(self):
        from repro.core.config import FRAMEWORK_HYPERPARAMS
        sevuldet = FRAMEWORK_HYPERPARAMS["SEVulDet"]
        assert sevuldet.dimension == 30
        assert sevuldet.flexible_length
        assert sevuldet.learning_rate == 0.0001
        vuldee = FRAMEWORK_HYPERPARAMS["VulDeePecker"]
        assert vuldee.dimension == 50 and vuldee.epochs == 4
        sysevr = FRAMEWORK_HYPERPARAMS["SySeVR"]
        assert sysevr.batch_size == 16 and sysevr.dropout == 0.2
