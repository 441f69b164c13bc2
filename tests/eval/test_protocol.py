"""Tests for the five-fold cross-validation protocol driver."""

import numpy as np
import pytest

from repro.core.extract import extract_gadgets
from repro.datasets.sard import generate_sard_corpus
from repro.eval.protocol import cross_validate
from repro.models.sevuldet import SEVulDetNet


@pytest.fixture(scope="module")
def gadget_pool():
    return extract_gadgets(generate_sard_corpus(60, seed=71))


def build_model(vocab_size, pretrained):
    return SEVulDetNet(vocab_size, dim=12, channels=12,
                       pretrained=pretrained, seed=1)


class TestCrossValidate:
    def test_runs_k_folds(self, gadget_pool):
        report = cross_validate(gadget_pool, build_model, k=3,
                                dim=12, epochs=4, seed=1)
        assert len(report.folds) == 3
        assert [f.fold for f in report.folds] == [0, 1, 2]

    def test_folds_partition_pool(self, gadget_pool):
        report = cross_validate(gadget_pool, build_model, k=3,
                                dim=12, epochs=2, seed=1)
        total = sum(f.test_size for f in report.folds)
        assert total == len(gadget_pool)
        for fold in report.folds:
            assert fold.train_size + fold.test_size == \
                len(gadget_pool)

    def test_sampling_caps_pool(self, gadget_pool):
        report = cross_validate(gadget_pool, build_model, k=3,
                                sample=30, dim=12, epochs=2, seed=1)
        assert sum(f.test_size for f in report.folds) == 30

    def test_summary_fields(self, gadget_pool):
        report = cross_validate(gadget_pool, build_model, k=3,
                                dim=12, epochs=2, seed=1)
        summary = report.summary()
        assert set(summary) == {"FPR(%)", "FNR(%)", "A(%)", "P(%)",
                                "F1(%)", "F1 std(%)",
                                "train(s)", "eval(s)"}
        assert 0 <= summary["F1(%)"] <= 100
        assert summary["train(s)"] > 0.0

    def test_learns_above_chance(self, gadget_pool):
        report = cross_validate(gadget_pool, build_model, k=3,
                                dim=12, epochs=10, seed=1)
        assert report.mean_f1 > 0.5

    def test_too_few_gadgets_raises(self, gadget_pool):
        with pytest.raises(ValueError):
            cross_validate(gadget_pool[:2], build_model, k=5)

    def test_deterministic_given_seed(self, gadget_pool):
        first = cross_validate(gadget_pool[:40], build_model, k=2,
                               dim=12, epochs=2, seed=9)
        second = cross_validate(gadget_pool[:40], build_model, k=2,
                                dim=12, epochs=2, seed=9)
        assert np.isclose(first.mean_f1, second.mean_f1)


class TestCaseExtractionThroughContext:
    """cross_validate(cases=..., ctx=...) runs extraction through the
    shared RunContext's gadget cache."""

    def test_repeated_protocol_runs_hit_cache(self, tmp_path):
        from repro.core.context import RunContext
        from repro.datasets.sard import generate_sard_corpus

        cases = generate_sard_corpus(40, seed=5)
        ctx = RunContext.create(cache=tmp_path / "cache")
        first = cross_validate(None, build_model, cases=cases,
                               ctx=ctx, k=2, dim=12, epochs=2, seed=1)
        assert ctx.telemetry.get("cache_misses") == len(cases)
        assert ctx.telemetry.get("cache_hits") == 0
        second = cross_validate(None, build_model, cases=cases,
                                ctx=ctx, k=2, dim=12, epochs=2, seed=1)
        assert ctx.telemetry.get("cache_hits") == len(cases)
        assert np.isclose(first.mean_f1, second.mean_f1)

    def test_exactly_one_pool_source_required(self, gadget_pool):
        with pytest.raises(ValueError, match="exactly one"):
            cross_validate(gadget_pool, build_model, cases=[object()])
        with pytest.raises(ValueError, match="exactly one"):
            cross_validate(None, build_model)

    def test_every_fold_carries_private_telemetry(self, gadget_pool):
        report = cross_validate(gadget_pool, build_model, k=3,
                                dim=12, epochs=2, seed=1)
        assert all(f.telemetry is not None for f in report.folds)
        telemetries = [id(f.telemetry) for f in report.folds]
        assert len(set(telemetries)) == len(report.folds)
        assert all(f.telemetry.seconds("train") > 0.0
                   for f in report.folds)
