"""Persistent batched scan service (the detection phase as a service).

The one-shot CLI workflow pays the model load, gadget extraction, and
an unbatched forward pass for every scanned file.  :class:`ScanService`
amortizes all three for scan-heavy workloads (CI gates, corpus sweeps,
editor integrations):

* the trained :class:`~repro.core.detector.SEVulDet` is loaded once
  and shared across every scan;
* extraction runs through the detector's content-addressed
  :class:`~repro.core.cache.GadgetCache` and
  :class:`~repro.core.resilience.Quarantine` exactly like ``fit``, so
  repeated scans of unchanged files skip the frontend and known-poison
  cases are skipped up front;
* gadget scoring flows through a micro-batching
  :class:`ThreadScorer`: submissions from any number of cases are
  drained from a bounded queue and their distinct token rows scored
  once each, in drain order, as ragged packs of up to ``batch_size``
  rows of mixed lengths under ``no_grad``.  The model's scoring
  kernel makes a row's score depend only on its own token ids
  (fixed-shape product tiles, per-row reductions), never on which
  pack it lands in, its position there or its neighbours: verdicts
  are byte-identical to serial
  :meth:`~repro.core.detector.SEVulDet.detect_case` calls at any
  batch size (pinned by ``tests/core/test_serve.py`` and
  ``tests/models/test_batch_invariance.py``);
* whole-case verdicts are memoized in a thread-safe LRU
  (:class:`ResultCache`) keyed on the case's content fingerprint plus
  the detector's :meth:`~repro.core.detector.SEVulDet.config_token`,
  so re-scanning an unchanged corpus against unchanged weights is
  near-free and a weight/threshold change can never serve a stale
  verdict.

Telemetry (queue depth, batch fill, per-case latency, cases/sec, cache
hit rates) accumulates on a service-lifetime
:class:`~repro.core.telemetry.Telemetry`; :meth:`ScanService.stats`
summarizes it and the CLI prints it under ``scan --stats``.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..datasets.manifest import TestCase
from ..nn import no_grad
from .detector import Finding, SEVulDet
from .extract import (CaseResult, CorpusExtractor, _make_config,
                      encode_rows)
from .score import distinct_rows, pack_rows
from .telemetry import Telemetry

__all__ = ["CaseVerdict", "ResultCache", "ScanService", "ThreadScorer",
           "expand_scan_paths", "case_for_file"]


def expand_scan_paths(paths: Iterable[str | Path],
                      pattern: str = "*.c") -> list[Path]:
    """Flatten files / directories into a sorted scan work-list
    (directories recurse over ``pattern``); missing paths raise
    ``FileNotFoundError``.  Shared by local and remote scanning so
    ``scan`` and ``scan --connect`` walk identical file sets."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob(pattern)))
        elif path.exists():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file: {path}")
    return files


def case_for_file(path: Path, name: str | None = None) -> TestCase:
    """An unlabeled scan :class:`TestCase` for one source file.

    ``name`` defaults to ``str(path)``; diff/watch scanning passes the
    tree-relative path instead so a case's fingerprint — and with it
    every verdict- and gadget-cache key — is identical across two
    checkouts of the same content.
    """
    return TestCase(
        name=name if name is not None else str(path),
        source=path.read_text(encoding="utf-8", errors="replace"),
        vulnerable=False, vulnerable_lines=frozenset(),
        cwe="", category="", origin="scan")


@dataclass(frozen=True)
class CaseVerdict:
    """One scanned case's complete result.

    Attributes:
        name: case / file name.
        fingerprint: content hash of the case (cache key component).
        status: 'flagged' (>= threshold finding), 'clean', or
            'skipped' (quarantined or extraction failed).
        findings: threshold-passing findings, highest score first.
        gadgets: number of gadgets extracted and scored.
        max_score: highest gadget score (0.0 when no gadgets).
        reason: skip reason for status='skipped', else ''.
        cached: served from the result cache (run metadata, not part
            of the verdict record).
        seconds: wall time this service spent producing the verdict.
    """

    name: str
    fingerprint: str
    status: str
    findings: tuple[Finding, ...] = ()
    gadgets: int = 0
    max_score: float = 0.0
    reason: str = ""
    cached: bool = False
    seconds: float = 0.0

    @property
    def flagged(self) -> bool:
        return self.status == "flagged"

    def as_record(self) -> dict:
        """JSONL-ready dict. Run metadata (``cached``, ``seconds``)
        is excluded so a warm re-scan emits byte-identical records."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "gadgets": self.gadgets,
            "max_score": round(self.max_score, 6),
            "reason": self.reason,
            "findings": [
                {"function": f.function, "line": f.line,
                 "category": f.category,
                 "score": round(f.score, 6),
                 "cwe_hint": f.cwe_hint}
                for f in self.findings
            ],
        }


class ResultCache:
    """Thread-safe LRU of :class:`CaseVerdict` keyed by
    ``(case fingerprint, detector config token)``."""

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], CaseVerdict] = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: str, token: str) -> CaseVerdict | None:
        with self._lock:
            verdict = self._entries.get((fingerprint, token))
            if verdict is None:
                self.misses += 1
                return None
            self._entries.move_to_end((fingerprint, token))
            self.hits += 1
            return verdict

    def put(self, fingerprint: str, token: str,
            verdict: CaseVerdict) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            key = (fingerprint, token)
            self._entries[key] = verdict
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Pending:
    """One submitted case's rows awaiting their scores.

    Completion is a countdown over the case's rows: worker threads may
    score a case's rows across several packs, and the waiter wakes
    once the last row lands.
    """

    __slots__ = ("rows", "scores", "error", "done", "_lock",
                 "_remaining")

    def __init__(self, rows: list[Sequence[int]]):
        self.rows = rows  # token-id rows
        self.scores = np.zeros(len(rows))
        self.error: BaseException | None = None
        self.done = threading.Event()
        self._lock = threading.Lock()
        self._remaining = len(rows)
        if not rows:
            self.done.set()

    def _complete(self, index: int, score: float) -> None:
        self.scores[index] = score
        with self._lock:
            self._remaining -= 1
            if self._remaining <= 0:
                self.done.set()

    def _fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()

    def result(self) -> np.ndarray:
        """Block until every row is scored; (n_rows,) scores in
        submission order."""
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.scores


_STOP = object()


class ThreadScorer:
    """Micro-batching scorer behind :class:`ScanService`.

    Case submissions land in a bounded queue; each of ``workers``
    threads blocks for one, then greedily takes more until it holds
    ``batch_size * 4`` rows — under load packs fill to
    ``batch_size``, under trickle traffic a lone case is scored
    immediately (no latency-vs-throughput timer to tune).  The
    distinct rows of all drained cases
    (:func:`~repro.core.score.distinct_rows`) are taken in drain order
    and scored in ragged packs (:func:`~repro.core.score.pack_rows`)
    of up to ``batch_size`` rows of any lengths under ``no_grad``;
    each score goes to every gadget of the drain that shares the row.
    A row's score does not depend on its pack, so scores are
    byte-identical to :func:`~repro.core.score.predict_proba` however
    submissions interleave.
    """

    def __init__(self, model, batch_size: int, workers: int,
                 telemetry):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.model = model
        self.batch_size = batch_size
        self.workers = workers
        self.telemetry = telemetry
        self._queue: queue.Queue = queue.Queue(
            maxsize=max(workers * 16, 64))
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"scan-scorer-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, samples: Sequence[Sequence[int]]) -> _Pending:
        """Queue one case's token-id sequences for scoring."""
        if self._closed:
            raise RuntimeError("scorer is closed")
        pending = _Pending(list(samples))
        if pending.rows:
            self.telemetry.observe("scan_queue_depth",
                                   self._queue.qsize())
            self._queue.put(pending)
        return pending

    def close(self) -> None:
        """Drain queued submissions, then join the workers."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()

    def _drain(self) -> list[_Pending] | None:
        """Block for one submission, then greedily take more; None
        when the poison pill arrives (left queued for siblings)."""
        item = self._queue.get()
        if item is _STOP:
            self._queue.put(_STOP)
            return None
        jobs = [item]
        rows = len(item.rows)
        row_limit = self.batch_size * 4
        while rows < row_limit:
            try:
                extra = self._queue.get_nowait()
            except queue.Empty:
                break
            if extra is _STOP:
                self._queue.put(_STOP)  # keep poison for siblings
                break
            jobs.append(extra)
            rows += len(extra.rows)
        return jobs

    def _packs(self, jobs: list[_Pending]
               ) -> Iterator[tuple[list[list[tuple[_Pending, int]]],
                                   tuple[np.ndarray, np.ndarray]]]:
        """Chunk the drain's distinct rows, in drain order, into
        ragged packs; each pack comes with the ``(pending, index)``
        owners of each of its rows."""
        entries = [(pending, index) for pending in jobs
                   for index in range(len(pending.rows))]
        rows, inverse = distinct_rows(
            [pending.rows[index] for pending, index in entries])
        owners: list[list[tuple[_Pending, int]]] = [[] for _ in rows]
        for entry, slot in zip(entries, inverse):
            owners[slot].append(entry)
        for start in range(0, len(rows), self.batch_size):
            yield (owners[start : start + self.batch_size],
                   pack_rows(rows[start : start + self.batch_size]))

    def _worker(self) -> None:
        while True:
            jobs = self._drain()
            if jobs is None:
                return
            with no_grad():
                for owners, pack in self._packs(jobs):
                    try:
                        scores = self.model.predict_proba(*pack)
                    except BaseException as error:  # surface to caller
                        for row_owners in owners:
                            for pending, _ in row_owners:
                                pending._fail(error)
                        continue
                    self.telemetry.observe("scan_batch_fill",
                                           len(owners) / self.batch_size)
                    self.telemetry.count("scan_batches")
                    self.telemetry.count("scan_scored_rows", len(owners))
                    self.telemetry.count(
                        "scan_scored_gadgets",
                        sum(len(row_owners) for row_owners in owners))
                    for row_owners, score in zip(owners, scores):
                        for pending, index in row_owners:
                            pending._complete(index, float(score))


@dataclass
class _CaseWork:
    """Bookkeeping for one submitted case between the two passes."""

    case: TestCase
    fingerprint: str
    started: float
    verdict: CaseVerdict | None = None  # resolved without scoring
    gadgets: list = field(default_factory=list)
    pending: _Pending | None = None
    #: single-flight dedup: a later duplicate fingerprint in the same
    #: scan rides the first occurrence instead of re-extracting
    leader: "_CaseWork | None" = None
    #: set once _admit has attached a verdict or scorer submission —
    #: the buffer-and-release gate :meth:`ScanService.scan_stream`
    #: waits on to emit verdicts in input order
    ready: threading.Event = field(default_factory=threading.Event)


class ScanService:
    """Long-lived batched scanning facade over a trained detector.

    Usage::

        with ScanService(detector, workers=2, batch_size=64) as scans:
            verdicts = scans.scan_cases(cases)

    The service is safe to call from multiple threads; per-case
    verdicts are returned in submission order and are byte-identical
    to serial ``detector.detect_case`` results.
    """

    def __init__(self, detector: SEVulDet, *, workers: int = 2,
                 batch_size: int = 64,
                 result_cache_size: int = 1024,
                 result_cache: ResultCache | None = None,
                 telemetry: Telemetry | None = None,
                 fn_cache=None):
        if detector.case_timeout is not None:
            # serial extraction (the default) runs on the
            # scan-extract-drain thread, where the SIGALRM-based budget
            # cannot fire: refuse it loudly rather than advertise a
            # limit that is not enforced
            raise ValueError(
                "ScanService cannot enforce case_timeout: extraction "
                "runs off the main thread; unset detector.case_timeout")
        model, self._vocab = detector._require_trained()
        model.eval()  # deterministic scoring: dropout off, once
        self.detector = detector
        # Service-lifetime telemetry: stats() reflects this service's
        # scans, not whatever the detector accumulated during fit.
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.config_token = detector.config_token()
        # A caller-supplied cache outlives this service (e.g. across
        # restarts); config tokens keep shared entries safe.
        self.results = (result_cache if result_cache is not None
                        else ResultCache(result_cache_size))
        #: function-level incremental extraction cache (a
        #: FunctionGadgetCache or a directory path); when set, changed
        #: files re-slice only their edited call components
        self.fn_cache = fn_cache
        self._scorer = ThreadScorer(model, batch_size, workers,
                                    self.telemetry)
        self._submit_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain and join the scoring workers (idempotent)."""
        if not self._closed:
            self._closed = True
            self._scorer.close()

    def __enter__(self) -> "ScanService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- scanning ------------------------------------------------------------

    def scan_case(self, case: TestCase) -> CaseVerdict:
        """Scan one case (convenience wrapper)."""
        return self.scan_cases([case])[0]

    def scan_cases(self, cases: Sequence[TestCase]
                   ) -> list[CaseVerdict]:
        """Scan a corpus; verdicts come back in submission order.

        Materialized :meth:`scan_stream` — same verdicts, same order.
        """
        return list(self.scan_stream(cases))

    def scan_stream(self, cases: Sequence[TestCase],
                    programs=None) -> Iterator[CaseVerdict]:
        """Scan a corpus, yielding verdicts *in input order* as they
        resolve.

        Pass 1 resolves what it can from the result cache; the
        remaining cases are extracted on one ``scan-extract-drain``
        thread, 16 cases at a time, through a
        :class:`~repro.core.extract.CorpusExtractor` that shares the
        detector's gadget cache and quarantine and the service's
        function-level ``fn_cache``.  Each extracted case is handed to
        the scorer at once, so extraction of later chunks overlaps
        scoring of earlier ones on the scorer's own threads.  This
        generator releases each case as soon as *it and everything
        before it* is admitted: buffer-and-release by case index, so
        the stream order is the input order no matter how extraction
        chunks or scorer batches interleave — the stability diff/watch
        verdict-delta computation depends on (workers only change
        timing, never order; pinned by the ``--workers 4`` determinism
        test).

        Concurrent calls are *not* serialized: the submission lock
        covers only the cheap cache-lookup/dedup bookkeeping, so one
        caller's extraction pass overlaps another's (extraction is
        safe to run concurrently — the gadget cache writes with
        atomic replace and the quarantine log is append-only, and the
        scorer queue is shared by design).  Duplicate fingerprints
        within one call are single-flighted: the first occurrence is
        extracted and scored, later ones copy its verdict — a case's
        fingerprint covers its name and content, so the copies are
        byte-identical to scoring each duplicate independently.

        ``programs`` maps case fingerprints to programs the caller
        already analyzed (diff mode's frontier) for extraction to use.
        """
        if self._closed:
            raise RuntimeError("scan service is closed")
        scan_start = time.perf_counter()
        cases = list(cases)
        work: list[_CaseWork] = []
        misses: list[_CaseWork] = []
        with self._submit_lock:
            leaders: dict[str, _CaseWork] = {}
            for case in cases:
                entry = self._lookup_case(case)
                work.append(entry)
                if entry.verdict is not None:
                    continue
                leader = leaders.get(entry.fingerprint)
                if leader is not None:
                    entry.leader = leader
                    self.telemetry.count("scan_dedup_hits")
                    continue
                leaders[entry.fingerprint] = entry
                misses.append(entry)
        drain: threading.Thread | None = None
        drain_error: list[BaseException] = []
        if misses:
            detector = self.detector
            config = _make_config(detector.gadget_kind,
                                  detector.categories, use_control=True,
                                  keep_gadget=False, case_timeout=None)

            def _drain() -> None:
                try:
                    with CorpusExtractor(
                            config, workers=detector.workers,
                            cache=detector.cache,
                            quarantine=detector.quarantine,
                            telemetry=self.telemetry, keep_pool=True,
                            fn_cache=self.fn_cache) as extractor:
                        for start in range(0, len(misses), 16):
                            chunk = misses[start:start + 16]
                            results = extractor.run(
                                [entry.case for entry in chunk],
                                programs=programs)
                            for entry, result in zip(chunk, results):
                                self._admit(entry, result)
                                entry.ready.set()
                except BaseException as error:
                    drain_error.append(error)
                finally:
                    # unblock the release loop even on failure; any
                    # entry left un-admitted re-raises below
                    for entry in misses:
                        entry.ready.set()

            drain = threading.Thread(target=_drain, daemon=True,
                                     name="scan-extract-drain")
            drain.start()
        try:
            for entry in work:
                if entry.verdict is None:
                    (entry.leader or entry).ready.wait()
                    if drain_error and entry.pending is None \
                            and entry.verdict is None \
                            and entry.leader is None:
                        raise drain_error[0]
                yield self._resolve_case(entry)
            if drain is not None:
                drain.join()
                if drain_error:
                    raise drain_error[0]
        finally:
            if drain is not None:
                drain.join()
            self.telemetry.add_stage(
                "scan", time.perf_counter() - scan_start)
            self.telemetry.count("scan_cases", len(cases))

    def scan_paths(self, paths: Iterable[str | Path],
                   pattern: str = "*.c") -> list[CaseVerdict]:
        """Scan files / directories (directories recurse over
        ``pattern``); missing paths raise ``FileNotFoundError``."""
        files = expand_scan_paths(paths, pattern)
        return self.scan_cases([case_for_file(path) for path in files])

    # -- internals -----------------------------------------------------------

    def _lookup_case(self, case: TestCase) -> _CaseWork:
        """Pass-1 head: resolve from the result cache or mark the
        entry for extraction (``verdict`` stays None)."""
        started = time.perf_counter()
        fingerprint = case.fingerprint()
        entry = _CaseWork(case, fingerprint, started)
        cached = self.results.get(fingerprint, self.config_token)
        if cached is not None:
            self.telemetry.count("scan_result_hits")
            entry.verdict = replace(cached, cached=True,
                                    seconds=time.perf_counter()
                                    - started)
            return entry
        self.telemetry.count("scan_result_misses")
        return entry

    def _admit(self, entry: _CaseWork, result: CaseResult) -> None:
        """Pass-1 tail: turn one extraction result into a skipped
        verdict or a scorer submission."""
        if result.failure is not None:
            entry.verdict = self._finish(
                entry, CaseVerdict(
                    name=entry.case.name,
                    fingerprint=entry.fingerprint,
                    status="skipped", reason=result.failure.reason))
            return
        entry.gadgets = result.gadgets
        entry.pending = self._scorer.submit(
            encode_rows(result.gadgets, self._vocab))

    def _resolve_case(self, entry: _CaseWork) -> CaseVerdict:
        if entry.verdict is not None:
            return entry.verdict
        if entry.leader is not None:
            # single-flight follower: same fingerprint means same
            # name and content, so the leader's verdict IS this
            # case's verdict
            entry.verdict = self._resolve_case(entry.leader)
            return entry.verdict
        assert entry.pending is not None
        scores = entry.pending.result()
        findings = self.detector.findings_from(
            entry.case.name, entry.gadgets, scores)
        verdict = CaseVerdict(
            name=entry.case.name, fingerprint=entry.fingerprint,
            status="flagged" if findings else "clean",
            findings=tuple(findings), gadgets=len(entry.gadgets),
            max_score=float(scores.max()) if len(scores) else 0.0)
        entry.verdict = self._finish(entry, verdict)
        return entry.verdict

    def _finish(self, entry: _CaseWork,
                verdict: CaseVerdict) -> CaseVerdict:
        """Stamp latency, record it, and memoize the verdict."""
        seconds = time.perf_counter() - entry.started
        verdict = replace(verdict, seconds=seconds)
        self.telemetry.observe("scan_case_seconds", seconds)
        self.results.put(entry.fingerprint, self.config_token,
                         verdict)
        return verdict

    # -- introspection -------------------------------------------------------

    def health(self) -> dict:
        """Service health for the server's ``health`` op: ``ready``
        while serving, ``draining`` once closed."""
        return {"status": "draining" if self._closed else "ready"}

    def stats(self) -> dict:
        """Service-level scan statistics (summary + benchmarks)."""
        telemetry = self.telemetry
        return {
            "cases": telemetry.get("scan_cases"),
            "cases_per_sec": telemetry.rate("scan_cases", "scan"),
            "batches": telemetry.get("scan_batches"),
            "scored_gadgets": telemetry.get("scan_scored_gadgets"),
            "scored_rows": telemetry.get("scan_scored_rows"),
            "result_cache": {
                "hits": self.results.hits,
                "misses": self.results.misses,
                "hit_rate": self.results.hit_rate(),
                "size": len(self.results),
            },
            "latency_seconds":
                telemetry.observation_stats("scan_case_seconds"),
            "batch_fill":
                telemetry.observation_stats("scan_batch_fill"),
            "queue_depth":
                telemetry.observation_stats("scan_queue_depth"),
        }
