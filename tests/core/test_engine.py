"""Equivalence tests for the training/extraction composition.

Paper Fig 2 runs as direct calls — ``extract_gadgets`` ->
``encode_gadgets`` -> ``train_classifier`` — with run-wide services
on a :class:`RunContext`, and the scan service extracts in chunks
through :class:`CorpusExtractor`.  The contract is that every one of
these compositions is *byte-identical* to the serial one-shot
functions: same gadgets in the same order, same trained weights, same
scores.  Everything here asserts exact equality.
"""

import numpy as np
import pytest

from repro.core.cache import GadgetCache
from repro.core.config import SCALE_PRESETS
from repro.core.context import RunContext
from repro.core.detector import SEVulDet
from repro.core.encode import encode_gadgets
from repro.core.extract import (CaseResult, CorpusExtractor,
                                GadgetDeduplicator, _make_config,
                                extract_gadgets)
from repro.core.resilience import Quarantine
from repro.core.score import predict_proba
from repro.core.telemetry import Telemetry
from repro.core.train import train_classifier
from repro.datasets.sard import generate_sard_corpus
from repro.embedding.vocab import Vocabulary
from repro.models.sevuldet import SEVulDetNet


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(40, seed=17)


@pytest.fixture(scope="module")
def reference_gadgets(corpus):
    return extract_gadgets(corpus)


def build_net(dataset):
    model = SEVulDetNet(len(dataset.vocab), dim=8, channels=8,
                        pretrained=dataset.word2vec.vectors, seed=3)
    dataset.bind_embedding_aliases(model)
    return model


def state_of(model):
    return {key: value.copy()
            for key, value in model.state_dict().items()}


def chunked(corpus, chunk_size):
    """Extract ``corpus`` chunk by chunk through one persistent
    extractor and a corpus-order deduplicator (the scan service's
    chunking plus the training diet's dedup)."""
    config = _make_config("path-sensitive", None, use_control=True,
                          keep_gadget=False, case_timeout=None)
    deduper = GadgetDeduplicator()
    gadgets = []
    with CorpusExtractor(config, keep_pool=True) as extractor:
        for start in range(0, len(corpus), chunk_size):
            for result in extractor.run(corpus[start:start + chunk_size]):
                gadgets.extend(deduper.filter(result.gadgets))
    return gadgets, deduper


class TestRunContext:
    def test_create_coerces_paths(self, tmp_path):
        ctx = RunContext.create(cache=tmp_path / "cache",
                                quarantine=tmp_path / "q.jsonl",
                                checkpoint_dir=str(tmp_path / "ckpt"))
        assert isinstance(ctx.cache, GadgetCache)
        assert isinstance(ctx.quarantine, Quarantine)
        assert ctx.checkpoint_dir == tmp_path / "ckpt"
        assert isinstance(ctx.telemetry, Telemetry)
        assert ctx.failures == []

    def test_create_passes_objects_through(self, tmp_path):
        telemetry = Telemetry()
        quarantine = Quarantine(tmp_path / "q.jsonl")
        ctx = RunContext.create(telemetry=telemetry,
                                quarantine=quarantine)
        assert ctx.telemetry is telemetry
        assert ctx.quarantine is quarantine
        assert ctx.cache is None
        assert ctx.checkpoint_dir is None

    def test_contexts_do_not_share_mutable_defaults(self):
        first, second = RunContext.create(), RunContext.create()
        assert first.failures is not second.failures
        assert first.telemetry is not second.telemetry


class TestExtractEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_chunked_extraction_matches_one_shot(
            self, corpus, reference_gadgets, chunk_size):
        gadgets, _ = chunked(corpus, chunk_size)
        assert gadgets == reference_gadgets

    def test_dedup_is_stateful_across_chunks(self, corpus,
                                             reference_gadgets):
        # chunk_size=1 puts every case in its own chunk; cross-case
        # duplicates must still be dropped exactly like the one-shot
        # corpus-order dedup does
        gadgets, deduper = chunked(corpus, 1)
        assert gadgets == reference_gadgets
        reference_telemetry = Telemetry()
        extract_gadgets(corpus, telemetry=reference_telemetry)
        assert (len(gadgets)
                == reference_telemetry.get("gadgets_emitted"))
        assert deduper.hits == reference_telemetry.get("dedup_hits")

    def test_per_case_results_carry_case_identity(self, corpus):
        config = _make_config("path-sensitive", None, use_control=True,
                              keep_gadget=False, case_timeout=None)
        results = CorpusExtractor(config).run(corpus)
        assert all(isinstance(r, CaseResult) for r in results)
        assert [r.case.name for r in results] == \
            [case.name for case in corpus]

    def test_cache_rides_the_context(self, corpus, tmp_path):
        ctx = RunContext.create(cache=tmp_path / "cache")
        extract_gadgets(corpus, **ctx.extract_kwargs())
        assert ctx.telemetry.get("cache_misses") == len(corpus)
        warm = RunContext.create(cache=tmp_path / "cache")
        extract_gadgets(corpus, **warm.extract_kwargs())
        assert warm.telemetry.get("cache_hits") == len(corpus)


class TestEncodeAndTrainEquivalence:
    def test_fit_dataset_matches_one_shot_encode(self, corpus,
                                                 reference_gadgets):
        scale = SCALE_PRESETS["small"]
        expected = encode_gadgets(reference_gadgets, dim=scale.dim,
                                  w2v_epochs=scale.w2v_epochs, seed=5)
        detector = SEVulDet(scale=scale, seed=5)
        detector.fit(corpus, epochs=1)
        dataset = detector.dataset
        assert len(dataset.samples) == len(expected.samples)
        for ours, theirs in zip(dataset.samples, expected.samples):
            assert np.array_equal(ours.token_ids, theirs.token_ids)
            assert ours.label == theirs.label
        assert np.array_equal(dataset.word2vec.vectors,
                              expected.word2vec.vectors)

    def test_encode_gadgets_encodes_each_gadget_once(
            self, reference_gadgets, monkeypatch):
        """The word2vec corpora and the samples share one encode per
        gadget."""
        calls = []
        encode = Vocabulary.encode

        def counted(vocab, tokens):
            calls.append(len(tokens))
            return encode(vocab, tokens)

        monkeypatch.setattr(Vocabulary, "encode", counted)
        dataset = encode_gadgets(reference_gadgets, dim=8, w2v_epochs=1,
                                 seed=5)
        assert len(calls) == len(reference_gadgets)
        assert [s.token_ids for s in dataset.samples] == \
            [tuple(dataset.vocab.encode(list(g.tokens)))
             for g in reference_gadgets]

    def test_fit_weights_match_explicit_composition(
            self, corpus, reference_gadgets):
        scale = SCALE_PRESETS["small"]
        expected_dataset = encode_gadgets(
            reference_gadgets, dim=scale.dim,
            w2v_epochs=scale.w2v_epochs, seed=5)
        expected_model = SEVulDetNet(
            len(expected_dataset.vocab), dim=scale.dim,
            channels=scale.channels,
            pretrained=expected_dataset.word2vec.vectors, seed=5)
        expected_dataset.bind_embedding_aliases(expected_model)
        train_classifier(expected_model, expected_dataset.samples,
                         epochs=2, batch_size=scale.batch_size,
                         lr=scale.learning_rate, seed=5)

        detector = SEVulDet(scale=scale, seed=5)
        detector.fit(corpus, epochs=2, ctx=RunContext.create())
        left = state_of(detector.model)
        right = state_of(expected_model)
        assert sorted(left) == sorted(right)
        for key in left:
            assert np.array_equal(left[key], right[key]), key

    def test_empty_corpus_raises(self):
        detector = SEVulDet(scale=SCALE_PRESETS["small"])
        with pytest.raises(ValueError, match="no gadgets"):
            detector.fit([], ctx=RunContext.create())


class TestScoreEquivalence:
    def test_chunked_scores_match_one_shot(self, reference_gadgets):
        dataset = encode_gadgets(reference_gadgets, dim=8,
                                 w2v_epochs=0, seed=13)
        model = build_net(dataset)
        chunks = [reference_gadgets[i:i + 5]
                  for i in range(0, len(reference_gadgets), 5)]
        scores = np.concatenate(
            [predict_proba(model, [g.sample(dataset.vocab)
                                   for g in chunk])
             for chunk in chunks])
        # within float tolerance of the one-shot full-corpus pass
        # (bitwise identity across *different* batch compositions is a
        # BLAS property we do not promise)
        one_shot = predict_proba(
            model, [g.sample(dataset.vocab) for g in reference_gadgets])
        assert np.allclose(scores, one_shot, atol=1e-6)
