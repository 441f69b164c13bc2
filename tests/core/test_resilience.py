"""Fault-injected tests for the extraction resilience layer.

The contract: one pathological case (hang, crash, recursion blow-up,
corrupt cache shard) costs at most its own result.  Every surviving
case's gadgets are byte-identical to a fully-serial, fault-free run,
every recovery step shows up in telemetry, and poison cases land in
the persistent quarantine so later runs skip them for pennies.
"""

import json
import logging
import time

import numpy as np
import pytest

from repro.core.cache import GadgetCache
from repro.core.detector import SEVulDet
from repro.core.config import Scale
from repro.core.extract import extract_gadgets
from repro.core.resilience import (CaseTimeout, Quarantine, time_limit)
from repro.core.telemetry import Telemetry
from repro.datasets.sard import generate_sard_corpus
from repro.testing import faults

TINY = Scale("tiny", cases_per_experiment=10, dim=8, channels=8,
             hidden=8, epochs=2, batch_size=8, time_steps=16,
             w2v_epochs=1)


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(10, seed=33)


@pytest.fixture(scope="module")
def serial(corpus):
    return extract_gadgets(corpus)


def extract_without(corpus, victim_name):
    return extract_gadgets(
        [case for case in corpus if case.name != victim_name])


class TestTimeLimit:
    def test_cuts_off_a_sleep(self):
        with pytest.raises(CaseTimeout):
            with time_limit(0.1):
                time.sleep(5)

    def test_none_and_zero_disable_the_budget(self):
        with time_limit(None):
            pass
        with time_limit(0):
            pass

    def test_timer_cleared_after_the_block(self):
        with time_limit(0.2):
            pass
        time.sleep(0.3)  # must not blow up after the block exits


class TestQuarantineUnit:
    def test_add_contains_reload(self, corpus, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        quarantine = Quarantine(path)
        assert corpus[0] not in quarantine
        assert quarantine.add(corpus[0], "timeout", "budget 0.5s")
        assert not quarantine.add(corpus[0], "timeout")  # dedup
        assert corpus[0] in quarantine
        assert corpus[1] not in quarantine
        # a fresh instance reloads from disk
        reloaded = Quarantine(path)
        assert corpus[0] in reloaded
        assert len(reloaded) == 1
        record = reloaded.records()[0]
        assert record["name"] == corpus[0].name
        assert record["reason"] == "timeout"

    def test_corrupt_lines_are_tolerated(self, corpus, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        quarantine = Quarantine(path)
        quarantine.add(corpus[0], "timeout")
        with path.open("a") as handle:
            handle.write("{torn json\n")
            handle.write("42\n")
        reloaded = Quarantine(path)
        assert corpus[0] in reloaded
        assert len(reloaded) == 1

    def test_corrupt_lines_warn_on_load(self, corpus, tmp_path,
                                        caplog):
        path = tmp_path / "quarantine.jsonl"
        Quarantine(path).add(corpus[0], "timeout")
        with path.open("a") as handle:
            handle.write("{torn json\n")
        with caplog.at_level(logging.WARNING,
                             logger="repro.core.resilience"):
            assert corpus[0] in Quarantine(path)
        assert "corrupt quarantine line" in caplog.text

    def test_keyed_by_content_not_name(self, corpus, tmp_path):
        quarantine = Quarantine(tmp_path / "q.jsonl")
        quarantine.add(corpus[0], "timeout")
        edited = type(corpus[0])(
            corpus[0].name, corpus[0].source + "\n",
            corpus[0].vulnerable, corpus[0].vulnerable_lines,
            corpus[0].cwe, corpus[0].category, corpus[0].origin)
        assert corpus[0] in quarantine
        assert edited not in quarantine  # new content, new chance


class TestTimeoutAndQuarantine:
    def test_hanging_case_times_out_and_is_quarantined(
            self, corpus, tmp_path):
        victim = corpus[4]
        qpath = tmp_path / "quarantine.jsonl"
        telemetry = Telemetry()
        failures = []
        with faults.injected(f"hang@case:{victim.name}:30"):
            result = extract_gadgets(
                corpus, case_timeout=0.5, quarantine=qpath,
                telemetry=telemetry, failures=failures)
        assert result == extract_without(corpus, victim.name)
        assert telemetry.get("case_timeouts") == 1
        assert telemetry.get("skip_timeout") == 1
        assert telemetry.get("quarantined_cases") == 1
        assert [f.reason for f in failures] == ["timeout"]
        assert failures[0].case_name == victim.name
        assert failures[0].quarantined
        assert any(event["kind"] == "case-skip"
                   and event["reason"] == "timeout"
                   for event in telemetry.events)
        assert victim in Quarantine(qpath)

    def test_quarantined_case_is_skipped_cheaply_next_run(
            self, corpus, tmp_path):
        victim = corpus[4]
        qpath = tmp_path / "quarantine.jsonl"
        Quarantine(qpath).add(victim, "timeout")
        telemetry = Telemetry()
        failures = []
        result = extract_gadgets(corpus, quarantine=qpath,
                                 telemetry=telemetry,
                                 failures=failures)
        assert result == extract_without(corpus, victim.name)
        assert telemetry.get("quarantine_skips") == 1
        # the poison case never reached the frontend
        assert telemetry.calls("analyze") == len(corpus) - 1
        assert [f.reason for f in failures] == ["quarantined"]
        assert failures[0].attempts == 0

    def test_hang_in_a_pool_worker_times_out_too(self, corpus,
                                                 tmp_path):
        victim = corpus[6]
        telemetry = Telemetry()
        with faults.injected(f"hang@case:{victim.name}:30"):
            result = extract_gadgets(corpus, workers=2,
                                     case_timeout=0.5,
                                     quarantine=tmp_path / "q.jsonl",
                                     telemetry=telemetry)
        assert result == extract_without(corpus, victim.name)
        assert telemetry.get("case_timeouts") == 1


class TestWorkerCrash:
    def test_crashed_worker_retries_inline_byte_identical(
            self, corpus, serial):
        victim = corpus[2]
        telemetry = Telemetry()
        failures = []
        with faults.injected(f"crash@case:{victim.name}"):
            result = extract_gadgets(corpus, workers=2,
                                     telemetry=telemetry,
                                     failures=failures)
        # full recovery: nothing lost, ordering untouched
        assert result == serial
        assert failures == []
        assert telemetry.get("pool_breaks") == 1
        assert telemetry.get("case_retries") >= 1
        assert any(event["kind"] == "inline-fallback"
                   for event in telemetry.events)

    def test_retries_zero_records_structured_failures(
            self, corpus, serial, tmp_path):
        victim = corpus[2]
        telemetry = Telemetry()
        failures = []
        qpath = tmp_path / "q.jsonl"
        with faults.injected(f"crash@case:{victim.name}"):
            result = extract_gadgets(corpus, workers=2, retries=0,
                                     quarantine=qpath,
                                     telemetry=telemetry,
                                     failures=failures)
        assert failures
        assert all(f.reason == "worker-crash" for f in failures)
        lost = {f.case_name for f in failures}
        assert victim.name in lost
        survivors = [g for g in serial if g.case_name not in lost]
        assert [g.case_name for g in result] == \
            [g.case_name for g in survivors]
        # pool breakage cannot name the guilty case, so nobody is
        # quarantined on its account
        assert len(Quarantine(qpath)) == 0


class TestWidenedBoundary:
    def test_recursion_error_skips_only_that_case(self, corpus,
                                                  caplog):
        victim = corpus[1]
        telemetry = Telemetry()
        failures = []
        with faults.injected(
                f"raise@case:{victim.name}:RecursionError"):
            with caplog.at_level(logging.WARNING,
                                 logger="repro.core.extract"):
                result = extract_gadgets(corpus, telemetry=telemetry,
                                         failures=failures)
        assert result == extract_without(corpus, victim.name)
        assert telemetry.get("cases_skipped") == 1
        assert telemetry.get("skip_recursion") == 1
        assert [f.reason for f in failures] == ["recursion"]
        assert any(victim.name in record.getMessage()
                   for record in caplog.records)

    def test_memory_error_is_quarantined(self, corpus, tmp_path):
        victim = corpus[3]
        qpath = tmp_path / "q.jsonl"
        failures = []
        with faults.injected(f"raise@case:{victim.name}:MemoryError"):
            result = extract_gadgets(corpus, quarantine=qpath,
                                     failures=failures)
        assert result == extract_without(corpus, victim.name)
        assert failures[0].reason == "memory"
        assert failures[0].quarantined
        assert victim in Quarantine(qpath)

    def test_parse_error_not_quarantined(self, tmp_path):
        from repro.datasets.manifest import TestCase
        broken = TestCase("broken.c", "not C at all {{{", False,
                          frozenset(), "", "FC")
        qpath = tmp_path / "q.jsonl"
        failures = []
        extract_gadgets([broken], quarantine=qpath, failures=failures)
        assert failures[0].reason == "parse-error"
        assert not failures[0].quarantined
        assert len(Quarantine(qpath)) == 0


class TestCorruptShard:
    def test_corrupted_shards_degrade_to_misses(self, corpus, serial,
                                                tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        with faults.injected("corrupt@shard:*"):
            first = extract_gadgets(corpus, cache=cache)
        assert first == serial
        telemetry = Telemetry()
        second = extract_gadgets(corpus, cache=cache,
                                 telemetry=telemetry)
        assert second == serial
        assert telemetry.get("cache_misses") == len(corpus)
        assert telemetry.get("cache_hits") == 0


class TestCacheRaces:
    def test_clear_tolerates_concurrently_unlinked_shards(
            self, corpus, tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        extract_gadgets(corpus, cache=cache)
        shards = sorted(cache.root.glob("*/*.jsonl"))
        shards[0].unlink()  # somebody else got there first
        assert cache.clear() == len(shards) - 1
        assert len(cache) == 0

    def test_clear_prunes_empty_fanout_directories(self, corpus,
                                                   tmp_path):
        cache = GadgetCache(tmp_path / "cache")
        extract_gadgets(corpus, cache=cache)
        assert any(cache.root.iterdir())
        cache.clear()
        assert not any(cache.root.iterdir())

    def test_len_of_vanished_root(self, tmp_path):
        cache = GadgetCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.clear() == 0


class TestLoadValidation:
    @pytest.fixture(scope="class")
    def saved_model(self, tmp_path_factory):
        detector = SEVulDet(scale=TINY, seed=1)
        detector.fit(generate_sard_corpus(10, seed=5))
        path = tmp_path_factory.mktemp("model") / "model.npz"
        detector.save(path)
        return path

    @staticmethod
    def _tamper(path, out, **metadata_updates):
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files
                      if key != "__metadata__"}
            metadata = json.loads(
                archive["__metadata__"].tobytes().decode())
        metadata.update(metadata_updates)
        arrays["__metadata__"] = np.frombuffer(
            json.dumps(metadata).encode(), dtype=np.uint8)
        np.savez(out, **arrays)

    def test_roundtrip_still_loads(self, saved_model):
        detector = SEVulDet(scale=TINY)
        detector.load(saved_model)
        assert detector.model is not None

    def test_pipeline_version_mismatch_is_named(self, saved_model,
                                                tmp_path):
        stale = tmp_path / "stale.npz"
        self._tamper(saved_model, stale, pipeline_version=1)
        detector = SEVulDet(scale=TINY)
        with pytest.raises(ValueError, match="pipeline_version"):
            detector.load(stale)

    def test_normalize_version_mismatch_is_named(self, saved_model,
                                                 tmp_path):
        stale = tmp_path / "stale.npz"
        self._tamper(saved_model, stale, normalize_version=-1)
        detector = SEVulDet(scale=TINY)
        with pytest.raises(ValueError, match="normalize_version"):
            detector.load(stale)

    def test_vocab_size_mismatch_is_named(self, saved_model,
                                          tmp_path):
        with np.load(saved_model) as archive:
            metadata = json.loads(
                archive["__metadata__"].tobytes().decode())
        broken = tmp_path / "broken.npz"
        self._tamper(saved_model, broken,
                     tokens=metadata["tokens"][:-3])
        detector = SEVulDet(scale=TINY)
        with pytest.raises(ValueError, match="vocabulary"):
            detector.load(broken)


class TestQuarantineRetry:
    """The retry-after-N escape hatch and the --requarantine reset.

    A quarantined case whose failure was environmental (load spike
    tripping the timeout) deserves another chance: with
    ``retry_after=N`` an entry stops matching after N skips, the case
    is retried, and a clean pass *discharges* it from the list.  A
    repeat failure re-quarantines it with a fresh skip budget.  The
    default (``retry_after=None``) keeps the legacy skip-forever
    behavior bit-for-bit.
    """

    def test_entry_expires_after_n_skips(self, corpus, tmp_path):
        quarantine = Quarantine(tmp_path / "q.jsonl", retry_after=2)
        quarantine.add(corpus[0], "timeout")
        assert corpus[0] in quarantine
        quarantine.note_skip(corpus[0])
        assert corpus[0] in quarantine  # 1 of 2 skips spent
        quarantine.note_skip(corpus[0])
        assert corpus[0] not in quarantine  # budget spent: retry
        assert quarantine.listed(corpus[0])  # but still on the books

    def test_skip_budget_survives_reload(self, corpus, tmp_path):
        path = tmp_path / "q.jsonl"
        quarantine = Quarantine(path, retry_after=2)
        quarantine.add(corpus[0], "timeout")
        quarantine.note_skip(corpus[0])
        reloaded = Quarantine(path, retry_after=2)
        assert corpus[0] in reloaded
        reloaded.note_skip(corpus[0])
        assert corpus[0] not in reloaded

    def test_readd_resets_the_budget(self, corpus, tmp_path):
        quarantine = Quarantine(tmp_path / "q.jsonl", retry_after=1)
        quarantine.add(corpus[0], "timeout")
        quarantine.note_skip(corpus[0])
        assert corpus[0] not in quarantine
        # the retry failed again: re-quarantine with a fresh budget
        assert quarantine.add(corpus[0], "timeout")
        assert corpus[0] in quarantine

    def test_discharge_clears_the_entry(self, corpus, tmp_path):
        path = tmp_path / "q.jsonl"
        quarantine = Quarantine(path, retry_after=1)
        quarantine.add(corpus[0], "timeout")
        quarantine.note_skip(corpus[0])
        assert quarantine.discharge(corpus[0])
        assert not quarantine.listed(corpus[0])
        assert corpus[0] not in quarantine
        # discharge replays from the op log
        reloaded = Quarantine(path, retry_after=1)
        assert not reloaded.listed(corpus[0])
        assert not reloaded.discharge(corpus[0])  # already gone

    def test_default_is_skip_forever(self, corpus, tmp_path):
        quarantine = Quarantine(tmp_path / "q.jsonl")
        quarantine.add(corpus[0], "timeout")
        for _ in range(50):
            quarantine.note_skip(corpus[0])
        assert corpus[0] in quarantine

    def test_reset_truncates(self, corpus, tmp_path):
        path = tmp_path / "q.jsonl"
        quarantine = Quarantine(path)
        quarantine.add(corpus[0], "timeout")
        quarantine.add(corpus[1], "crash")
        assert quarantine.reset() == 2
        assert len(quarantine) == 0
        assert corpus[0] not in quarantine
        assert path.read_text() == ""
        assert len(Quarantine(path)) == 0

    def test_retried_case_that_recovers_is_discharged(
            self, corpus, tmp_path):
        victim = corpus[4]
        path = tmp_path / "q.jsonl"
        quarantine = Quarantine(path, retry_after=1)
        quarantine.add(victim, "timeout", "budget 0.5s")
        # run 1: still quarantined -> skipped, burning the budget
        telemetry = Telemetry()
        result = extract_gadgets(corpus, quarantine=quarantine,
                                 telemetry=telemetry)
        assert result == extract_without(corpus, victim.name)
        assert telemetry.get("quarantine_skips") == 1
        # run 2: budget spent -> retried; the hang was environmental
        # and is gone, so the case extracts and is discharged
        telemetry = Telemetry()
        result = extract_gadgets(corpus, quarantine=quarantine,
                                 telemetry=telemetry)
        assert result == extract_gadgets(corpus)
        assert telemetry.get("quarantine_skips") in (None, 0)
        assert telemetry.get("quarantine_discharges") == 1
        assert not Quarantine(path).listed(victim)

    def test_retried_case_that_still_hangs_is_requarantined(
            self, corpus, tmp_path):
        victim = corpus[4]
        path = tmp_path / "q.jsonl"
        quarantine = Quarantine(path, retry_after=1)
        quarantine.add(victim, "timeout")
        quarantine.note_skip(victim)  # budget spent: next run retries
        telemetry = Telemetry()
        with faults.injected(f"hang@case:{victim.name}:30"):
            result = extract_gadgets(corpus, case_timeout=0.5,
                                     quarantine=quarantine,
                                     telemetry=telemetry)
        assert result == extract_without(corpus, victim.name)
        assert telemetry.get("case_timeouts") == 1
        assert telemetry.get("quarantined_cases") == 1
        # fresh budget: the immediate next run skips it again
        reloaded = Quarantine(path, retry_after=1)
        assert victim in reloaded
