"""Parallel fan-out and content-addressed caching of extract_gadgets.

The contract under test: no matter how the per-case work is scheduled
(serial, process pool, cold cache, warm cache), the returned
LabeledGadget list is identical, and the telemetry counters expose
exactly what was computed versus served from cache.
"""

import pytest

from repro.core.cache import GadgetCache
from repro.core.extract import extract_gadgets
from repro.core.telemetry import Telemetry
from repro.datasets.manifest import TestCase
from repro.datasets.sard import generate_sard_corpus

BROKEN_CASE = TestCase("broken.c", "not C at all {{{", False,
                       frozenset(), "", "FC")


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(10, seed=33)


@pytest.fixture(scope="module")
def serial(corpus):
    return extract_gadgets(corpus)


class TestParallel:
    def test_parallel_matches_serial(self, corpus, serial):
        parallel = extract_gadgets(corpus, workers=2)
        assert parallel == serial

    def test_parallel_no_dedup_matches_serial(self, corpus):
        raw_serial = extract_gadgets(corpus, deduplicate=False)
        raw_parallel = extract_gadgets(corpus, deduplicate=False,
                                       workers=2)
        assert raw_parallel == raw_serial

    def test_workers_one_is_serial_path(self, corpus, serial):
        assert extract_gadgets(corpus, workers=1) == serial

    def test_parallel_skips_unparseable(self, corpus, serial):
        telemetry = Telemetry()
        mixed = [BROKEN_CASE] + list(corpus)
        result = extract_gadgets(mixed, workers=2, telemetry=telemetry)
        assert result == serial
        assert telemetry.get("cases_skipped") == 1
        assert telemetry.get("cases_parsed") == len(corpus)


class TestTelemetryCounters:
    def test_serial_counters(self, corpus, serial):
        telemetry = Telemetry()
        extract_gadgets(corpus, telemetry=telemetry)
        assert telemetry.get("cases_total") == len(corpus)
        assert telemetry.get("cases_parsed") == len(corpus)
        assert telemetry.get("cases_skipped") == 0
        assert telemetry.get("gadgets_emitted") == len(serial)
        assert telemetry.get("gadgets_extracted") == \
            len(serial) + telemetry.get("dedup_hits")
        assert telemetry.calls("analyze") == len(corpus)
        assert telemetry.seconds("extract") > 0.0

    def test_skip_logged(self, caplog):
        with caplog.at_level("WARNING", logger="repro.core.extract"):
            extract_gadgets([BROKEN_CASE])
        assert any("skipped 1/1" in record.getMessage()
                   for record in caplog.records)

    def test_caller_telemetry_accumulates(self, corpus):
        telemetry = Telemetry()
        extract_gadgets(corpus, telemetry=telemetry)
        extract_gadgets(corpus, telemetry=telemetry)
        assert telemetry.get("cases_parsed") == 2 * len(corpus)


class TestCache:
    def test_cold_then_warm(self, corpus, serial, tmp_path):
        cold, warm = Telemetry(), Telemetry()
        first = extract_gadgets(corpus, cache=tmp_path / "cache",
                                telemetry=cold)
        second = extract_gadgets(corpus, cache=tmp_path / "cache",
                                 telemetry=warm)
        assert first == serial
        assert second == serial
        assert cold.get("cache_misses") == len(corpus)
        assert cold.get("cache_hits") == 0
        assert warm.get("cache_hits") == len(corpus)
        assert warm.get("cache_misses") == 0
        # zero frontend re-analysis on the warm run
        assert warm.calls("analyze") == 0
        assert warm.calls("slice") == 0
        assert warm.calls("normalize") == 0

    def test_cache_with_workers(self, corpus, serial, tmp_path):
        telemetry = Telemetry()
        first = extract_gadgets(corpus, workers=2,
                                cache=tmp_path / "cache")
        second = extract_gadgets(corpus, workers=2,
                                 cache=tmp_path / "cache",
                                 telemetry=telemetry)
        assert first == serial and second == serial
        assert telemetry.get("cache_hits") == len(corpus)

    def test_cache_keyed_by_config(self, corpus, tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        extract_gadgets(corpus, kind="path-sensitive", cache=cache)
        telemetry = Telemetry()
        classic = extract_gadgets(corpus, kind="classic", cache=cache,
                                  telemetry=telemetry)
        assert telemetry.get("cache_misses") == len(corpus)
        assert all(g.kind == "classic" for g in classic)

    def test_cache_keyed_by_content(self, corpus, tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        extract_gadgets(corpus, cache=cache)
        edited = [TestCase(c.name, c.source + "\n", c.vulnerable,
                           c.vulnerable_lines, c.cwe, c.category,
                           c.origin)
                  for c in corpus]
        telemetry = Telemetry()
        extract_gadgets(edited, cache=cache, telemetry=telemetry)
        assert telemetry.get("cache_hits") == 0

    def test_parse_failures_not_cached(self, tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        first, second = Telemetry(), Telemetry()
        extract_gadgets([BROKEN_CASE], cache=cache, telemetry=first)
        extract_gadgets([BROKEN_CASE], cache=cache, telemetry=second)
        assert len(cache) == 0
        assert second.get("cache_hits") == 0
        assert second.get("cases_skipped") == 1

    def test_keep_gadget_bypasses_cache(self, corpus, tmp_path):
        telemetry = Telemetry()
        kept = extract_gadgets(corpus[:2], keep_gadget=True,
                               cache=tmp_path / "cache",
                               telemetry=telemetry)
        assert all(g.gadget is not None for g in kept)
        assert telemetry.get("cache_hits") == 0
        assert telemetry.get("cache_misses") == 0
        assert len(GadgetCache(tmp_path / "cache")) == 0

    def test_corrupt_shard_is_a_miss(self, corpus, serial, tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        extract_gadgets(corpus, cache=cache)
        for shard in sorted((tmp_path / "cache").glob("*/*.jsonl")):
            shard.write_text("not json\n")
        telemetry = Telemetry()
        result = extract_gadgets(corpus, cache=cache,
                                 telemetry=telemetry)
        assert result == serial
        assert telemetry.get("cache_misses") == len(corpus)


class TestGadgetCacheUnit:
    def test_len_and_clear(self, corpus, tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        assert len(cache) == 0
        extract_gadgets(corpus, cache=cache)
        assert len(cache) == len(corpus)
        assert cache.clear() == len(corpus)
        assert len(cache) == 0

    def test_contains(self, corpus, tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        key = cache.key_for(corpus[0], "kind=path-sensitive")
        assert key not in cache
        cache.put(key, [])
        assert key in cache
        assert cache.get(key, corpus[0].name) == []
