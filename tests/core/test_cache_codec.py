"""The gadget cache's shard codec and its write path.

A shard is one JSON document: the case's distinct token rows once and
one small array per gadget.  ``GadgetCache.get`` must give back equal
gadgets, attributed to the caller's case, with one shared ``tokens``
tuple per distinct row; anything that is not a readable document of
the current version is a miss that the next extraction overwrites.

The tier-1 suite runs the round-trip property at a small budget.  CI
runs the module's own profile, 1,000 examples:

    PYTHONPATH=src python -m tests.core.test_cache_codec
"""

import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import GadgetCache
from repro.core.extract import LabeledGadget, extract_gadgets
from repro.core.store import save_gadgets
from repro.core.telemetry import Telemetry
from repro.datasets.sard import generate_sard_corpus
from repro.slicing.special_tokens import SlicingCriterion, TokenCategory
from repro.testing import faults

settings.register_profile("cache-codec", max_examples=1000,
                          deadline=None)
if __name__ == "__main__":
    settings.load_profile("cache-codec")

CASE = "case.c"
CATEGORIES = [category.value for category in TokenCategory]
KINDS = ["classic", "path-sensitive"]

#: any text, non-ASCII and lone surrogates included
texts = st.text(max_size=6)
rows = st.lists(texts, max_size=6).map(tuple)


def _gadget(tokens, label=0, category="FC", kind="classic", cwe="",
            function="f", line=1, criterion="FC", token="t"):
    return LabeledGadget(
        tokens=tokens, label=label, category=category, case_name=CASE,
        criterion=SlicingCriterion(function, line,
                                   TokenCategory(criterion), token),
        kind=kind, cwe=cwe)


def _gadgets_over(pool):
    return st.lists(st.builds(
        _gadget, tokens=st.sampled_from(pool), label=st.integers(0, 1),
        category=st.sampled_from(CATEGORIES),
        kind=st.sampled_from(KINDS), cwe=texts, function=texts,
        line=st.integers(0, 2**31), criterion=st.sampled_from(CATEGORIES),
        token=texts), max_size=12)


#: gadget lists drawn over a small pool of rows, so rows repeat
gadget_lists = st.lists(rows, min_size=1, max_size=4).flatmap(
    _gadgets_over)

#: one gadget per category and kind, two of them sharing a row
EVERY_CATEGORY_AND_KIND = [
    _gadget(("ⅽhar", "VAR1", "[", "]"), label=1, category=category,
            kind=KINDS[index % 2], criterion=category,
            cwe="CWE-121", function="fünc", line=index + 1, token="é")
    for index, category in enumerate(CATEGORIES)
] + [_gadget(("ⅽhar", "VAR1", "[", "]"), category="AE",
             kind="path-sensitive", criterion="AE", token="+")]


def _roundtrip(gadgets, case_name=CASE):
    with tempfile.TemporaryDirectory() as root:
        cache = GadgetCache(root)
        cache.put("k" * 64, gadgets)
        return cache.get("k" * 64, case_name)


class TestRoundTrip:
    @given(gadget_lists)
    @example([])
    @example(EVERY_CATEGORY_AND_KIND)
    def test_get_returns_equal_gadgets_sharing_rows(self, gadgets):
        got = _roundtrip(gadgets)
        assert got == gadgets  # [] is a hit, not None
        by_row = {}
        for gadget in got:
            shared = by_row.setdefault(gadget.tokens, gadget.tokens)
            assert gadget.tokens is shared

    def test_gadgets_are_attributed_to_the_callers_case(self):
        got = _roundtrip(EVERY_CATEGORY_AND_KIND, case_name="other.c")
        assert {gadget.case_name for gadget in got} == {"other.c"}

    def test_each_distinct_row_is_stored_once(self, tmp_path):
        cache = GadgetCache(tmp_path)
        cache.put("k" * 64, EVERY_CATEGORY_AND_KIND)
        text = cache.path_for("k" * 64).read_text()
        assert text.count("VAR1") == 1
        assert CASE not in text
        assert text.count("\n") == 0


class TestWriteRace:
    def test_put_racing_a_put_of_the_same_key(self, tmp_path,
                                              monkeypatch):
        """Writer A has written its temp file when writer B runs a
        whole ``put`` of the same key; then A renames.  With one fixed
        temp name, B's rename took A's file away and A's rename raised
        FileNotFoundError."""
        cache = GadgetCache(tmp_path)
        key = "k" * 64
        real_replace = os.replace
        interleaved = []

        def replace(source, target):
            if not interleaved:
                interleaved.append(source)
                cache.put(key, EVERY_CATEGORY_AND_KIND)  # writer B
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        cache.put(key, EVERY_CATEGORY_AND_KIND)  # writer A
        assert interleaved
        assert cache.get(key, CASE) == EVERY_CATEGORY_AND_KIND
        assert [path.name for path in tmp_path.rglob("*")
                if path.is_file()] == [f"{key}.jsonl"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path,
                                              monkeypatch):
        cache = GadgetCache(tmp_path)

        def replace(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            cache.put("k" * 64, EVERY_CATEGORY_AND_KIND)
        assert not [path for path in tmp_path.rglob("*")
                    if path.is_file()]


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(6, seed=33)


@pytest.fixture(scope="module")
def serial(corpus):
    return extract_gadgets(corpus)


def _v1_shards(cache):
    """Rewrite every shard in the old one-record-per-line format."""
    for shard in cache.root.glob("*/*.jsonl"):
        save_gadgets(cache.get(shard.stem, CASE), shard)


def _truncate_shards(cache):
    for shard in cache.root.glob("*/*.jsonl"):
        data = shard.read_bytes()
        shard.write_bytes(data[:len(data) // 2])


class TestUnreadableShards:
    @pytest.mark.parametrize("damage", ["v1-jsonl", "truncated",
                                        "corrupt-fault"])
    def test_unreadable_shard_is_a_miss_then_overwritten(
            self, corpus, serial, tmp_path, damage):
        clean = GadgetCache(tmp_path / "clean")
        extract_gadgets(corpus, cache=clean)
        cache = GadgetCache(tmp_path / "cache")
        if damage == "corrupt-fault":
            with faults.injected("corrupt@shard:*"):
                extract_gadgets(corpus, cache=cache)
        else:
            extract_gadgets(corpus, cache=cache)
            {"v1-jsonl": _v1_shards,
             "truncated": _truncate_shards}[damage](cache)
        telemetry = Telemetry()
        assert extract_gadgets(corpus, cache=cache,
                               telemetry=telemetry) == serial
        assert telemetry.get("cache_misses") == len(corpus)
        assert telemetry.get("cache_hits") == 0
        # the misses rewrote every shard exactly as a clean run does
        shards = sorted(path.relative_to(cache.root)
                        for path in cache.root.glob("*/*.jsonl"))
        assert shards == sorted(path.relative_to(clean.root)
                                for path in clean.root.glob("*/*.jsonl"))
        for shard in shards:
            assert (cache.root / shard).read_bytes() == \
                (clean.root / shard).read_bytes()
        telemetry = Telemetry()
        assert extract_gadgets(corpus, cache=cache,
                               telemetry=telemetry) == serial
        assert telemetry.get("cache_hits") == len(corpus)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
