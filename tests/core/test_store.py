"""Tests for gadget-dataset persistence."""

import logging

import pytest

from repro.core.extract import extract_gadgets
from repro.core.store import iter_gadgets, load_gadgets, save_gadgets
from repro.datasets.sard import generate_sard_corpus


@pytest.fixture(scope="module")
def gadgets():
    return extract_gadgets(generate_sard_corpus(15, seed=91))


class TestStore:
    def test_roundtrip(self, gadgets, tmp_path):
        path = tmp_path / "gadgets.jsonl"
        count = save_gadgets(gadgets, path)
        assert count == len(gadgets)
        restored = load_gadgets(path)
        assert len(restored) == len(gadgets)
        for original, loaded in zip(gadgets, restored):
            assert loaded.tokens == original.tokens
            assert loaded.label == original.label
            assert loaded.category == original.category
            assert loaded.cwe == original.cwe
            assert loaded.criterion == original.criterion
            assert loaded.kind == original.kind

    def test_streaming_matches_bulk(self, gadgets, tmp_path):
        path = tmp_path / "gadgets.jsonl"
        save_gadgets(gadgets, path)
        streamed = [g.tokens for g in iter_gadgets(path)]
        assert streamed == [g.tokens for g in load_gadgets(path)]

    def test_restored_gadgets_encode(self, gadgets, tmp_path):
        from repro.core.encode import encode_gadgets
        path = tmp_path / "gadgets.jsonl"
        save_gadgets(gadgets, path)
        dataset = encode_gadgets(load_gadgets(path), dim=8,
                                 w2v_epochs=0)
        assert len(dataset.samples) == len(gadgets)

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("\nnot json\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_gadgets(path)

    def test_truncated_final_line_skipped_with_warning(
            self, gadgets, tmp_path, caplog):
        # the partial write of a process killed mid-append: every
        # complete record before it is served, the torn tail is not
        path = tmp_path / "torn.jsonl"
        save_gadgets(gadgets, path)
        with path.open("a") as handle:
            handle.write('{"v": 1, "tokens": ["tr')
        with caplog.at_level(logging.WARNING,
                             logger="repro.core.store"):
            restored = load_gadgets(path)
        assert len(restored) == len(gadgets)
        assert "truncated final line" in caplog.text

    def test_corruption_before_eof_still_raises(self, gadgets,
                                                tmp_path):
        # only the *final* line gets the torn-tail forgiveness
        path = tmp_path / "mid.jsonl"
        save_gadgets(gadgets, path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(1, "{torn\n")
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="mid.jsonl:2"):
            load_gadgets(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"v": 99}\n')
        with pytest.raises(ValueError, match="version"):
            load_gadgets(path)

    def test_save_replaces_existing(self, gadgets, tmp_path):
        path = tmp_path / "gadgets.jsonl"
        path.write_text("stale\n")
        save_gadgets(gadgets[:2], path)
        assert len(load_gadgets(path)) == 2

    def test_blank_lines_skipped(self, gadgets, tmp_path):
        path = tmp_path / "gaps.jsonl"
        save_gadgets(gadgets[:2], path)
        padded = path.read_text().replace("\n", "\n\n")
        path.write_text(padded)
        assert len(load_gadgets(path)) == 2
