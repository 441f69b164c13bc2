"""End-to-end tests for the batched scan service.

The load-bearing property is *byte identity*: the micro-batching
scheduler may pack gadgets from many cases into shared batches, but
every verdict must exactly equal what a serial
``detector.detect_case`` loop produces — same findings, same scores,
same ordering.  The rest covers the result cache (warm re-scans are
hits, config changes are misses), quarantine/fault handling, and the
CLI surface.
"""

import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import SCALE_PRESETS, Quarantine, SEVulDet
from repro.core.cache import FunctionGadgetCache, GadgetCache
from repro.core.extract import LabeledGadget, extract_gadgets
from repro.core.serve import CaseVerdict, ResultCache, ScanService
from repro.datasets.sard import generate_sard_corpus
from repro.testing import faults


#: two functions with the same body: their gadgets normalize to one
#: token row, so the scorer scores it once for both
TWIN_SOURCE = """\
void f(char *data) {
    char buf[4];
    strcpy(buf, data);
}
void g(char *data) {
    char buf[4];
    strcpy(buf, data);
}
"""

#: two gadgets with different token rows
DISTINCT_SOURCE = """\
void f(char *data) {
    char buf[4];
    strcpy(buf, data);
}
int main() {
    char line[64];
    fgets(line, 64, 0);
    f(line);
    return 0;
}
"""


def source_case(name, source):
    from repro.datasets.manifest import TestCase
    return TestCase(name=name, source=source, vulnerable=False,
                    vulnerable_lines=frozenset(), cwe="", category="",
                    origin="test")


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    det.fit(generate_sard_corpus(80, seed=31))
    return det


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(30, seed=99)


class TestByteIdentity:
    def test_batched_matches_serial_detect_case(self, detector,
                                                corpus):
        serial = [detector.detect_case(case) for case in corpus]
        with ScanService(detector, workers=2,
                         batch_size=16) as service:
            verdicts = service.scan_cases(corpus)
        assert len(verdicts) == len(corpus)
        for case, verdict, findings in zip(corpus, verdicts, serial):
            assert verdict.name == case.name
            assert list(verdict.findings) == findings
            assert verdict.flagged == bool(findings)

    def test_identity_across_batching_configs(self, detector, corpus):
        reference = None
        for workers, batch_size in ((1, 1), (2, 8), (4, 64)):
            with ScanService(detector, workers=workers,
                             batch_size=batch_size) as service:
                records = [v.as_record()
                           for v in service.scan_cases(corpus)]
            if reference is None:
                reference = records
            else:
                assert records == reference

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_scores_match_serial_exactly(self, detector, corpus,
                                         batch_size):
        """Every gadget's score is bit-equal to the serial one, and the
        findings come in the same order.  At threshold 0 every gadget
        is a finding, so this compares all scores (and the tie order
        of equal ones), not just those past the operating threshold;
        the service packs rows of many cases and lengths together, the
        serial path scores each case on its own."""
        original = detector.threshold
        detector.threshold = 0.0
        try:
            serial = [detector.detect_case(case) for case in corpus]
            with ScanService(detector, workers=2,
                             batch_size=batch_size) as service:
                verdicts = service.scan_cases(corpus)
        finally:
            detector.threshold = original
        assert sum(len(findings) for findings in serial) > len(corpus)
        for verdict, findings in zip(verdicts, serial):
            assert len(verdict.findings) == verdict.gadgets
            assert list(verdict.findings) == findings  # bit-equal

    def test_serial_detect_encodes_each_distinct_row_once(
            self, detector, monkeypatch):
        """``detect_case`` scores both twin gadgets but encodes their
        shared token row once, as the service does."""
        monkeypatch.setattr(detector, "threshold", 0.0)
        encoded = []
        sample = LabeledGadget.sample

        def counted(gadget, vocab):
            encoded.append(gadget.tokens)
            return sample(gadget, vocab)

        monkeypatch.setattr(LabeledGadget, "sample", counted)
        findings = detector.detect_case(source_case("twin.c", TWIN_SOURCE))
        assert len(findings) == 2
        assert findings[0].score == findings[1].score
        assert len(encoded) == 1


class TestWarmCacheParity:
    def test_warm_caches_match_cold_service_and_serial(
            self, detector, corpus, tmp_path, monkeypatch):
        """A service over a warm gadget cache or a warm function cache
        gives the verdicts of a cold service and of ``detect_case``,
        field for field, scores the same rows and gadgets, and encodes
        each distinct token row of a case once.  At threshold 0 every
        gadget is a finding, so every score is compared."""
        monkeypatch.setattr(detector, "threshold", 0.0)
        serial = [detector.detect_case(case) for case in corpus]
        expected_rows = sorted(
            {(g.case_name, g.tokens) for g in extract_gadgets(
                corpus, detector.gadget_kind, detector.categories,
                deduplicate=False)})
        encoded = []
        sample = LabeledGadget.sample

        def counted(gadget, vocab):
            encoded.append((gadget.case_name, gadget.tokens))
            return sample(gadget, vocab)

        monkeypatch.setattr(LabeledGadget, "sample", counted)

        def scan(**kwargs):
            encoded.clear()
            with ScanService(detector, workers=2, batch_size=16,
                             **kwargs) as service:
                # one case per scan, so each scorer drain holds one
                # case and the scored-row count is deterministic
                verdicts = [replace(service.scan_case(case), seconds=0.0)
                            for case in corpus]
                stats = service.stats()
                misses = sum(service.telemetry.get(name) for name
                             in ("cache_misses", "fn_cache_misses"))
            assert sorted(encoded) == expected_rows
            return (verdicts, stats["scored_rows"],
                    stats["scored_gadgets"]), misses

        cold, _ = scan()
        verdicts, rows, gadgets = cold
        assert rows == len(expected_rows) < gadgets  # rows repeat
        for verdict, findings in zip(verdicts, serial):
            assert list(verdict.findings) == findings
        monkeypatch.setattr(detector, "cache",
                            GadgetCache(tmp_path / "gadgets"))
        assert scan() == (cold, len(corpus))
        assert scan() == (cold, 0)  # warm gadget cache
        monkeypatch.setattr(detector, "cache", None)
        fn_cache = FunctionGadgetCache(tmp_path / "functions")
        assert scan(fn_cache=fn_cache)[0] == cold
        assert scan(fn_cache=fn_cache) == (cold, 0)  # warm


class TestThreadScorer:
    def test_failed_pack_fails_every_owner_of_its_rows(self):
        """B and C queue while the worker is held inside its first
        pack, so one drain takes both: their shared row reaches the
        kernel once, and the pack's failure reaches both cases."""
        from repro.core.serve import ThreadScorer
        from repro.core.telemetry import Telemetry

        release = threading.Event()
        packed: list[int] = []

        class Failing:
            def predict_proba(self, ids, lengths):
                packed.append(len(ids))
                release.wait(timeout=30)
                raise RuntimeError("kernel failed")

        scorer = ThreadScorer(Failing(), batch_size=8, workers=1,
                              telemetry=Telemetry())
        try:
            first = scorer.submit([[1, 2, 3, 4]])
            deadline = time.monotonic() + 30
            while not packed and time.monotonic() < deadline:
                time.sleep(0.01)
            second = scorer.submit([[5, 6, 7, 8], [5, 6, 7, 8]])
            third = scorer.submit([[5, 6, 7, 8], [9, 9, 9, 9]])
            release.set()
            for pending in (first, second, third):
                with pytest.raises(RuntimeError, match="kernel failed"):
                    pending.result()
        finally:
            release.set()
            scorer.close()
        assert packed == [1, 2]


class TestResultCaching:
    def test_rescan_hits_result_cache(self, detector, corpus):
        with ScanService(detector, workers=2,
                         batch_size=16) as service:
            cold = service.scan_cases(corpus)
            warm = service.scan_cases(corpus)
            stats = service.stats()
        assert all(not v.cached for v in cold)
        assert all(v.cached for v in warm)
        assert [v.as_record() for v in warm] == \
            [v.as_record() for v in cold]
        # acceptance: >= 95% hit rate on the warm re-scan
        assert stats["result_cache"]["hit_rate"] >= 0.5  # 30/60 here
        assert stats["result_cache"]["hits"] == len(corpus)

    def test_threshold_change_invalidates_shared_cache(self, detector,
                                                       corpus):
        shared = ResultCache(capacity=64)
        with ScanService(detector, workers=1, batch_size=16,
                         result_cache=shared) as service:
            service.scan_cases(corpus[:5])
        original = detector.threshold
        detector.threshold = 0.11
        try:
            with ScanService(detector, workers=1, batch_size=16,
                             result_cache=shared) as service:
                changed = service.scan_cases(corpus[:5])
        finally:
            detector.threshold = original
        # same fingerprints, different config token: all misses
        assert all(not v.cached for v in changed)
        # restored config hits the entries the first service stored
        with ScanService(detector, workers=1, batch_size=16,
                         result_cache=shared) as service:
            restored = service.scan_cases(corpus[:5])
        assert all(v.cached for v in restored)

    def test_lru_capacity_and_eviction(self):
        cache = ResultCache(capacity=2)
        token = "cfg"
        for i in range(3):
            cache.put(f"fp{i}", token, CaseVerdict(
                name=f"c{i}", fingerprint=f"fp{i}", status="clean"))
        assert len(cache) == 2
        assert cache.get("fp0", token) is None  # evicted
        assert cache.get("fp2", token) is not None
        assert cache.get("fp1", token) is not None

    def test_config_token_separates_entries(self):
        cache = ResultCache(capacity=8)
        verdict = CaseVerdict(name="c", fingerprint="fp",
                              status="clean")
        cache.put("fp", "model-a", verdict)
        assert cache.get("fp", "model-b") is None
        assert cache.get("fp", "model-a") is verdict

    def test_roundtrip_and_stats(self):
        cache = ResultCache(capacity=8)
        verdicts = {}
        for i in range(16):
            fingerprint = f"{i:08x}{'0' * 56}"
            verdict = CaseVerdict(name=f"c{i}",
                                  fingerprint=fingerprint,
                                  status="clean")
            cache.put(fingerprint, "cfg", verdict)
            verdicts[fingerprint] = verdict
        assert len(cache) == 8  # LRU bound holds
        for fingerprint, verdict in list(verdicts.items())[8:]:
            assert cache.get(fingerprint, "cfg") is verdict
        assert cache.get("f" * 64, "cfg") is None
        assert cache.hits == 8
        assert cache.misses == 1
        assert cache.hit_rate() == 8 / 9

    def test_services_share_one_cache(self, detector, corpus):
        shared = ResultCache(capacity=256)
        with ScanService(detector, workers=1, batch_size=8,
                         result_cache=shared) as service:
            cold = service.scan_cases(corpus[:6])
        with ScanService(detector, workers=1, batch_size=8,
                         result_cache=shared) as service:
            warm = service.scan_cases(corpus[:6])
        assert all(not v.cached for v in cold)
        assert all(v.cached for v in warm)
        assert [v.as_record() for v in warm] == \
            [v.as_record() for v in cold]


class TestFailureHandling:
    def test_quarantined_case_is_skipped(self, detector, corpus,
                                         tmp_path):
        quarantine = Quarantine(tmp_path / "quarantine.jsonl")
        quarantine.add(corpus[0], "timeout", "seeded for test")
        detector.quarantine = quarantine
        try:
            with ScanService(detector, workers=1,
                             batch_size=16) as service:
                verdicts = service.scan_cases(corpus[:3])
        finally:
            detector.quarantine = None
        assert verdicts[0].status == "skipped"
        assert verdicts[0].reason == "quarantined"
        assert verdicts[1].status in ("flagged", "clean")
        record = verdicts[0].as_record()
        assert record["status"] == "skipped"
        assert record["findings"] == []

    def test_fault_injected_case_quarantined_scan_completes(
            self, detector, corpus, tmp_path):
        poisoned = corpus[1].name
        quarantine = Quarantine(tmp_path / "quarantine.jsonl")
        detector.quarantine = quarantine
        try:
            with faults.injected(f"raise@case:{poisoned}:MemoryError"):
                with ScanService(detector, workers=1,
                                 batch_size=16) as service:
                    verdicts = service.scan_cases(corpus[:4])
        finally:
            detector.quarantine = None
        assert verdicts[1].status == "skipped"
        assert verdicts[1].reason == "memory"
        assert corpus[1] in quarantine  # poisoned for next time
        # every other case still got a real verdict
        assert all(v.status in ("flagged", "clean")
                   for i, v in enumerate(verdicts) if i != 1)

    def test_zero_gadget_source_is_clean(self, detector):
        with ScanService(detector, workers=1,
                         batch_size=16) as service:
            verdict = service.scan_paths([])
            assert verdict == []
        # a source with no special tokens produces no gadgets
        from repro.datasets.manifest import TestCase
        trivial = TestCase(name="t.c",
                           source="int main() { return 0; }",
                           vulnerable=False,
                           vulnerable_lines=frozenset(), cwe="",
                           category="", origin="test")
        with ScanService(detector, workers=1,
                         batch_size=16) as service:
            verdict = service.scan_case(trivial)
        assert verdict.status == "clean"
        assert verdict.gadgets == 0
        assert verdict.max_score == 0.0


class TestServiceLifecycle:
    def test_closed_service_rejects_scans(self, detector, corpus):
        service = ScanService(detector, workers=1, batch_size=4)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.scan_cases(corpus[:1])
        service.close()  # idempotent

    def test_stats_shape(self, detector, corpus):
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            service.scan_cases(corpus[:5])
            stats = service.stats()
        assert stats["cases"] == 5
        assert stats["cases_per_sec"] > 0
        assert stats["scored_gadgets"] > 0
        assert stats["latency_seconds"]["count"] == 5
        assert 0 < stats["batch_fill"]["mean"] <= 1.0

    @pytest.mark.parametrize("source,repeats", [
        (TWIN_SOURCE, True), (DISTINCT_SOURCE, False)],
        ids=["repeated", "distinct"])
    def test_scored_rows_count_distinct_rows(self, detector, source,
                                             repeats):
        """One case is one scorer submission, so its repeated rows
        reach the kernel once; ``scored_gadgets`` still counts every
        gadget."""
        with ScanService(detector, workers=1,
                         batch_size=8) as service:
            verdict = service.scan_case(source_case("s.c", source))
            stats = service.stats()
        assert verdict.gadgets == stats["scored_gadgets"] == 2
        if repeats:
            assert stats["scored_rows"] < stats["scored_gadgets"]
        else:
            assert stats["scored_rows"] == stats["scored_gadgets"]

    def test_case_timeout_is_refused(self, detector):
        # the SIGALRM budget cannot fire on the extraction drain
        # thread, so the service refuses it instead of ignoring it
        detector.case_timeout = 0.5
        try:
            with pytest.raises(ValueError, match="case_timeout"):
                ScanService(detector, workers=1)
        finally:
            detector.case_timeout = None

    def test_missing_path_raises(self, detector, tmp_path):
        with ScanService(detector, workers=1,
                         batch_size=4) as service:
            with pytest.raises(FileNotFoundError):
                service.scan_paths([tmp_path / "nope.c"])


class TestExtractionThread:
    """A scan extracts its misses on exactly one thread,
    ``scan-extract-drain``, 16 cases per chunk."""

    def test_one_extraction_thread_per_scan(self, detector, corpus,
                                            monkeypatch):
        from repro.core.extract import CorpusExtractor

        calls = []
        original = CorpusExtractor.run

        def spy(extractor, cases, failures=None, programs=None):
            calls.append((threading.current_thread().name, len(cases),
                          [t.name for t in threading.enumerate()]))
            return original(extractor, cases, failures, programs)

        monkeypatch.setattr(CorpusExtractor, "run", spy)
        with ScanService(detector, workers=2,
                         batch_size=16) as service:
            service.scan_cases(corpus)
        assert [size for _, size, _ in calls] == [16, 14]
        for thread_name, _, alive in calls:
            assert thread_name == "scan-extract-drain"
            assert alive.count("scan-extract-drain") == 1
            assert "engine-prefetch" not in alive
        assert not [t for t in threading.enumerate()
                    if t.name == "scan-extract-drain"]

    def test_abandoned_scan_joins_its_thread(self, detector, corpus):
        # a caller that stops reading mid-stream must not leave the
        # extraction thread running against a closed service
        with ScanService(detector, workers=1,
                         batch_size=8) as service:
            stream = service.scan_stream(corpus)
            next(stream)
            stream.close()
            assert not [t for t in threading.enumerate()
                        if t.name == "scan-extract-drain"]
            # the service keeps serving after an abandoned scan
            assert service.scan_case(corpus[-1]).name == corpus[-1].name

    def test_extraction_error_reaches_the_caller(self, detector,
                                                 corpus, monkeypatch):
        from repro.core.extract import CorpusExtractor

        def boom(extractor, cases, failures=None, programs=None):
            raise RuntimeError("extraction exploded")

        monkeypatch.setattr(CorpusExtractor, "run", boom)
        with ScanService(detector, workers=1,
                         batch_size=8) as service:
            with pytest.raises(RuntimeError, match="exploded"):
                service.scan_cases(corpus[:3])
        assert not [t for t in threading.enumerate()
                    if t.name == "scan-extract-drain"]


class TestScanCLI:
    @pytest.fixture(scope="class")
    def model_path(self, detector, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.npz"
        detector.save(path)
        return path

    def test_scan_directory_jsonl_and_stats(self, detector,
                                            model_path, corpus,
                                            tmp_path, capsys):
        from repro.cli import main

        src_dir = tmp_path / "src"
        src_dir.mkdir()
        for case in corpus[:4]:
            stem = case.name.rsplit("/", 1)[-1]
            (src_dir / stem).write_text(case.source)
        jsonl = tmp_path / "verdicts.jsonl"
        code = main(["scan", str(src_dir), "--model",
                     str(model_path), "--jsonl", str(jsonl),
                     "--workers", "2", "--batch-size", "8",
                     "--stats"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "scanned 4 case(s):" in out
        assert "distinct row(s) in" in out
        assert "result cache:" in out
        records = [json.loads(line)
                   for line in jsonl.read_text().splitlines()]
        assert len(records) == 4
        assert all(r["status"] in ("flagged", "clean", "skipped")
                   for r in records)

    def test_warm_rescan_jsonl_byte_identical(self, model_path,
                                              corpus, tmp_path,
                                              capsys):
        from repro.cli import main

        target = tmp_path / "case.c"
        target.write_text(corpus[0].source)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        main(["scan", str(target), "--model", str(model_path),
              "--jsonl", str(first)])
        main(["scan", str(target), "--model", str(model_path),
              "--jsonl", str(second)])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestConcurrentCallers:
    """Regression: ``scan_cases`` used to hold ``_submit_lock`` across
    the whole extract+submit pass, so one caller stuck in extraction
    serialized every other thread behind it.  The lock now covers only
    the cache-lookup/dedup bookkeeping."""

    def test_fast_caller_is_not_serialized_behind_slow_one(
            self, detector, corpus):
        slow_case, fast_case = corpus[0], corpus[1]
        results: dict[str, list] = {}
        with ScanService(detector, workers=1,
                         batch_size=4) as service:
            def scan(tag, case):
                results[tag] = service.scan_cases([case])

            with faults.injected(
                    f"hang@case:{slow_case.name}:6"):
                slow = threading.Thread(
                    target=scan, args=("slow", slow_case))
                slow.start()
                time.sleep(0.5)  # let the slow scan enter extraction
                fast = threading.Thread(
                    target=scan, args=("fast", fast_case))
                started = time.perf_counter()
                fast.start()
                fast.join(timeout=3.0)
                fast_seconds = time.perf_counter() - started
                stuck = fast.is_alive()
                slow.join(timeout=20.0)
        assert not stuck, (
            "concurrent caller waited on the submission lock for the "
            "whole extract pass")
        assert fast_seconds < 3.0
        assert results["fast"][0].status in ("flagged", "clean")
        assert results["slow"][0].status in ("flagged", "clean")

    def test_concurrent_callers_byte_identical(self, detector,
                                               corpus):
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            expected = [v.as_record()
                        for v in service.scan_cases(corpus)]
        outcomes: list[list] = [None] * 4
        with ScanService(detector, workers=2,
                         batch_size=8) as service:
            def scan(slot):
                outcomes[slot] = [v.as_record()
                                  for v in service.scan_cases(corpus)]

            threads = [threading.Thread(target=scan, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert all(records == expected for records in outcomes)

    def test_duplicate_fingerprints_are_single_flighted(
            self, detector, corpus):
        with ScanService(detector, workers=1,
                         batch_size=8) as service:
            baseline = service.scan_cases(corpus[:2])
            scored_unique = service.telemetry.get(
                "scan_scored_gadgets")
        with ScanService(detector, workers=1,
                         batch_size=8) as service:
            verdicts = service.scan_cases(
                [corpus[0], corpus[1], corpus[0], corpus[0]])
            assert service.telemetry.get("scan_dedup_hits") == 2
            # the duplicates were never re-extracted or re-scored
            assert (service.telemetry.get("scan_scored_gadgets")
                    == scored_unique)
        records = [v.as_record() for v in verdicts]
        assert records[0] == records[2] == records[3]
        assert records[0] == baseline[0].as_record()
        assert records[1] == baseline[1].as_record()
