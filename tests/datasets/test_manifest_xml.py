"""Tests for SARD-style manifest.xml round-tripping."""

from repro.datasets.manifest_xml import (export_corpus, import_corpus,
                                         read_manifest, write_manifest)
from repro.datasets.sard import generate_sard_corpus


class TestManifestRoundTrip:
    def test_write_read_roundtrip(self, tmp_path):
        cases = generate_sard_corpus(12, seed=9)
        manifest = tmp_path / "manifest.xml"
        write_manifest(cases, manifest)
        entries = read_manifest(manifest)
        assert len(entries) == len(cases)
        for case, entry in zip(cases, entries):
            assert entry["name"] == case.name
            assert entry["vulnerable"] == case.vulnerable
            assert entry["flaw_lines"] == case.vulnerable_lines
            assert entry["category"] == case.category

    def test_flaw_lines_carry_cwe(self, tmp_path):
        cases = [c for c in generate_sard_corpus(20, seed=10)
                 if c.vulnerable][:3]
        manifest = tmp_path / "m.xml"
        write_manifest(cases, manifest)
        for case, entry in zip(cases, read_manifest(manifest)):
            assert entry["cwe"] == case.cwe

    def test_export_import_full_corpus(self, tmp_path):
        cases = generate_sard_corpus(10, seed=11)
        export_corpus(cases, tmp_path / "corpus")
        restored = import_corpus(tmp_path / "corpus")
        assert len(restored) == len(cases)
        for original, loaded in zip(cases, restored):
            assert loaded.source == original.source
            assert loaded.vulnerable == original.vulnerable
            assert loaded.vulnerable_lines == original.vulnerable_lines
            assert loaded.cwe == original.cwe
            assert loaded.origin == original.origin

    def test_meta_entries_preserved_as_strings(self, tmp_path):
        cases = generate_sard_corpus(3, seed=12)
        export_corpus(cases, tmp_path / "corpus")
        restored = import_corpus(tmp_path / "corpus")
        for original, loaded in zip(cases, restored):
            assert loaded.meta["template"] == \
                original.meta["template"]

    def test_imported_corpus_feeds_pipeline(self, tmp_path):
        from repro.core.extract import extract_gadgets
        cases = generate_sard_corpus(6, seed=13)
        export_corpus(cases, tmp_path / "corpus")
        restored = import_corpus(tmp_path / "corpus")
        direct = extract_gadgets(cases)
        roundtripped = extract_gadgets(restored)
        assert [g.tokens for g in direct] == \
            [g.tokens for g in roundtripped]
        assert [g.label for g in direct] == \
            [g.label for g in roundtripped]
