"""Gadget extraction (paper Steps I-III's data path).

Turns :class:`~repro.datasets.manifest.TestCase` programs into labeled,
normalized gadgets: slice -> path-sensitive assembly (Algorithm 1) ->
label -> normalize.  The per-case work is pure, so it runs identically
inline, in a process pool, or from the content-addressed cache; the
:class:`CorpusExtractor` core is shared by the one-shot
:func:`extract_gadgets` wrapper, evaluation's per-case prediction,
and the scan service's chunked extraction thread.
"""

from __future__ import annotations

import logging
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from ..datasets.manifest import TestCase
from ..embedding.vocab import Vocabulary
from ..lang.callgraph import analyze
from ..lang.parser import ParseError
from ..nn import Sample
from ..slicing.gadget import CodeGadget, classic_gadget
from ..slicing.labeling import label_gadget
from ..slicing.normalize import normalize_gadget
from ..slicing.path_sensitive import path_sensitive_gadget
from ..slicing.special_tokens import (SlicingCriterion, TokenCategory,
                                      find_special_tokens)
from ..testing import faults
from .fingerprint import component_digests, program_fingerprints
from .resilience import (QUARANTINE_REASONS, CaseFailure, CaseTimeout,
                         coerce_quarantine, time_limit)
from .telemetry import Telemetry

__all__ = ["PIPELINE_VERSION", "LabeledGadget", "CaseResult",
           "CorpusExtractor", "GadgetDeduplicator", "extract_gadgets"]

logger = logging.getLogger(__name__)

#: Bump when extraction semantics change (slicing order, labeling,
#: gadget assembly, ...) — folded into extraction cache keys so stale
#: cached gadgets are never served across pipeline revisions.
PIPELINE_VERSION = 4

_CATEGORY_MAP = {
    "FC": TokenCategory.FUNCTION_CALL,
    "AU": TokenCategory.ARRAY_USAGE,
    "PU": TokenCategory.POINTER_USAGE,
    "AE": TokenCategory.ARITHMETIC_EXPR,
}


@dataclass
class LabeledGadget:
    """A normalized gadget with label and provenance."""

    tokens: tuple[str, ...]
    label: int
    category: str
    case_name: str
    criterion: SlicingCriterion
    kind: str  # 'classic' | 'path-sensitive'
    gadget: CodeGadget | None = None
    cwe: str = ""  # CWE id of the originating case ('' when unknown)

    def sample(self, vocab: Vocabulary) -> Sample:
        return Sample(tuple(vocab.encode(list(self.tokens))), self.label)


def encode_rows(gadgets: Sequence[LabeledGadget],
                vocab: Vocabulary) -> list[tuple[int, ...]]:
    """Token ids of each gadget, in order.

    Normalized gadgets often share a token row: each distinct row is
    encoded once and its ids reused for every repeat.
    """
    ids: dict[tuple[str, ...], tuple[int, ...]] = {}
    rows = []
    for gadget in gadgets:
        row = ids.get(gadget.tokens)
        if row is None:
            row = ids[gadget.tokens] = gadget.sample(vocab).token_ids
        rows.append(row)
    return rows


@dataclass(frozen=True)
class _ExtractConfig:
    """Per-run extraction knobs, picklable for worker processes."""

    kind: str
    wanted: frozenset[TokenCategory] | None
    use_control: bool
    keep_gadget: bool
    case_timeout: float | None = None

    def cache_token(self) -> str:
        """Stable string folded into extraction cache keys.

        ``case_timeout`` is deliberately excluded: the budget changes
        *whether* a case finishes, never what it produces.
        """
        categories = ("*" if self.wanted is None else
                      ",".join(sorted(c.value for c in self.wanted)))
        return (f"kind={self.kind};categories={categories};"
                f"control={int(self.use_control)}")


def _make_config(kind: str, categories: tuple[str, ...] | None, *,
                 use_control: bool, keep_gadget: bool,
                 case_timeout: float | None) -> _ExtractConfig:
    if kind not in ("path-sensitive", "classic"):
        raise ValueError(f"unknown gadget kind {kind!r}")
    wanted = None
    if categories is not None:
        wanted = frozenset(_CATEGORY_MAP[c] for c in categories)
    return _ExtractConfig(kind=kind, wanted=wanted,
                          use_control=use_control,
                          keep_gadget=keep_gadget,
                          case_timeout=case_timeout)


#: One per-case extraction result: (gadgets, telemetry snapshot,
#: failure record or None).  All three are picklable.
_CaseOutcome = tuple


def _line_gadget(program, criterion, manifest, config: _ExtractConfig,
                 local: Telemetry, labeled: dict
                 ) -> tuple[CodeGadget, tuple[str, ...]] | None:
    """Slice/label/normalize at a criterion's function and line, all
    they read of it (None if it slices empty).  Labels and texts are
    functions of line numbers, so ``labeled`` keeps one label and
    normalization per line sequence of the case."""
    with local.stage("slice"):
        if config.kind == "path-sensitive":
            gadget = path_sensitive_gadget(program, criterion)
        else:
            gadget = classic_gadget(program, criterion,
                                    use_control=config.use_control)
    if not gadget.lines:
        return None
    key = tuple(gadget.line_numbers())
    if key not in labeled:
        with local.stage("normalize"):
            tokens = tuple(normalize_gadget(gadget).tokens)
        labeled[key] = (label_gadget(gadget, manifest), tokens)
    gadget.label, tokens = labeled[key]
    return gadget, tokens


def _extract_case(case: TestCase, config: _ExtractConfig,
                  fn_cache=None, programs=None) -> _CaseOutcome:
    """Pure per-case body of :func:`extract_gadgets`.

    Analyzes, slices, labels, and normalizes one program, returning its
    un-deduplicated gadgets in deterministic criterion order plus a
    telemetry snapshot and an optional :class:`CaseFailure`.  Depends
    only on its arguments, so it runs identically inline or in a worker
    process.  The exception boundary is deliberately wide: a messy
    real-world case may blow the recursion stack, exhaust memory, or
    hang past its wall-clock budget, and none of those may take the
    run (or the worker's siblings) down with it.

    Criteria are handled per function.  With a
    :class:`~repro.core.cache.FunctionGadgetCache`, a function whose
    call-graph component digest is unchanged since the last run reuses
    its cached gadget list without building a single PDG (analysis
    builds PDGs on demand), so a warm re-scan of a large file pays
    only for its edited neighbourhood.  Criteria arrive globally
    sorted by ``(function, line, category, token)`` — function groups
    are contiguous, so concatenating per-function lists (cached or
    fresh) reproduces the cache-free gadget order byte for byte.
    Criteria on one line share one :func:`_line_gadget`, and gadgets
    with one line sequence share one label and normalization.

    ``programs`` maps case fingerprints to programs already analyzed
    (by a diff's frontier); such a case is sliced from its program.
    """
    local = Telemetry()
    gadgets: list[LabeledGadget] = []
    labeled: dict[tuple[int, ...], tuple] = {}
    failure: CaseFailure | None = None
    try:
        with time_limit(config.case_timeout):
            faults.fire("case", case.name)
            program = programs.get(case.fingerprint()) if programs else None
            if program is None:
                with local.stage("analyze"):
                    program = analyze(case.source, path=case.name)
            manifest = case.manifest()
            criteria = find_special_tokens(program, config.wanted)
            if config.keep_gadget:
                fn_cache = None  # cached records drop the raw gadgets
            if fn_cache is not None:
                digests = component_digests(
                    program_fingerprints(program),
                    program.call_graph.edges)
                token = config.cache_token()
            for fn_name, fn_criteria in groupby(
                    criteria, key=attrgetter("function")):
                if fn_cache is not None:
                    key = fn_cache.key_for_function(
                        case, fn_name, token, digests.get(fn_name, ""))
                    hit = fn_cache.get_function(key, case.name)
                    if hit is not None:
                        local.count("fn_cache_hits")
                        gadgets.extend(hit)
                        continue
                    local.count("fn_cache_misses")
                fresh: list[LabeledGadget] = []
                per_line: dict[int, tuple | None] = {}
                for criterion in fn_criteria:
                    if criterion.line not in per_line:
                        per_line[criterion.line] = _line_gadget(
                            program, criterion, manifest, config, local,
                            labeled)
                    made = per_line[criterion.line]
                    if made is None:
                        continue
                    gadget, tokens = made
                    fresh.append(LabeledGadget(
                        tokens=tokens,
                        label=gadget.label,
                        category=criterion.category.value,
                        case_name=case.name,
                        criterion=criterion,
                        kind=config.kind,
                        gadget=(replace(gadget, criterion=criterion)
                                if config.keep_gadget else None),
                        cwe=case.cwe))
                if fn_cache is not None:
                    fn_cache.put_function(key, fresh)
                gadgets.extend(fresh)
    except ParseError as error:
        failure = CaseFailure(case.name, "parse-error", str(error))
    except CaseTimeout:
        failure = CaseFailure(
            case.name, "timeout",
            f"exceeded the {config.case_timeout:g}s case budget")
    except RecursionError:
        failure = CaseFailure(case.name, "recursion",
                              "recursion limit while parsing/slicing")
    except MemoryError:
        failure = CaseFailure(case.name, "memory",
                              "out of memory while extracting")
    except (UnicodeError, OverflowError) as error:
        failure = CaseFailure(case.name, "error", repr(error))
    if failure is not None:
        local.count("cases_skipped")
        return [], local.as_dict(), failure
    local.count("cases_parsed")
    local.count("gadgets_extracted", len(gadgets))
    return gadgets, local.as_dict(), None


def _extract_chunk(cases: list[TestCase], config: _ExtractConfig,
                   fn_cache=None) -> list[_CaseOutcome]:
    """Worker-side batch body: one pickle round-trip per chunk."""
    return [_extract_case(case, config, fn_cache) for case in cases]


def _pool_extract(cases: Sequence[TestCase], pending: list[int],
                  config: _ExtractConfig, workers: int,
                  telemetry: Telemetry,
                  pool: ProcessPoolExecutor | None = None,
                  fn_cache=None
                  ) -> tuple[dict[int, _CaseOutcome], list[int]]:
    """Fan ``pending`` out over a process pool, chunk by chunk.

    Returns the per-index outcomes plus the indices whose chunk was
    lost to pool breakage (a worker died mid-chunk); the caller decides
    whether to retry those inline.  Unlike ``pool.map``, per-chunk
    futures keep every already-completed chunk when the pool breaks.
    A caller-owned ``pool`` is reused across calls (the scan service
    amortizes worker startup over many chunks); when None, a
    temporary pool lives for just this call.
    """
    outcomes: dict[int, _CaseOutcome] = {}
    lost: list[int] = []
    chunksize = max(1, len(pending) // (workers * 4))
    chunks = [pending[i:i + chunksize]
              for i in range(0, len(pending), chunksize)]
    broke = False

    def note_break() -> None:
        nonlocal broke
        if not broke:
            broke = True
            telemetry.count("pool_breaks")
            logger.warning(
                "extract_gadgets: process pool broke (worker died); "
                "unfinished cases fall back to inline extraction")

    own_pool = pool is None
    if own_pool:
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        submitted: list[tuple] = []
        for chunk in chunks:
            try:
                future = pool.submit(_extract_chunk,
                                     [cases[i] for i in chunk], config,
                                     fn_cache)
            except (BrokenExecutor, RuntimeError):
                # a previous run broke this (persistent) pool
                note_break()
                lost.extend(chunk)
                continue
            submitted.append((future, chunk))
        for future, chunk in submitted:
            try:
                results = future.result()
            except BrokenExecutor:
                note_break()
                lost.extend(chunk)
            else:
                outcomes.update(zip(chunk, results))
    finally:
        if own_pool:
            pool.shutdown()
    return outcomes, lost


def _coerce_cache(cache):
    """Accept a GadgetCache, a directory path, or None."""
    if cache is None:
        return None
    if isinstance(cache, (str, Path)):
        from .cache import GadgetCache
        return GadgetCache(cache)
    return cache


def _coerce_fn_cache(fn_cache):
    """Accept a FunctionGadgetCache, a directory path, or None."""
    if fn_cache is None:
        return None
    if isinstance(fn_cache, (str, Path)):
        from .cache import FunctionGadgetCache
        return FunctionGadgetCache(fn_cache)
    return fn_cache


@dataclass
class CaseResult:
    """One case's extraction outcome: its gadgets or its failure."""

    case: TestCase
    gadgets: list[LabeledGadget]
    failure: CaseFailure | None = None


class CorpusExtractor:
    """Reusable per-case extraction core (cache, pool, quarantine).

    One :meth:`run` call reproduces the scheduling-independent
    semantics of :func:`extract_gadgets` over its cases: quarantine
    pre-skips, cache lookups, optional process-pool fan-out with
    inline retry of chunks lost to pool breakage, per-reason failure
    accounting, and cache stores — returning *per-case* results in
    corpus order (no deduplication; that is corpus-level policy).

    With ``keep_pool=True`` the process pool survives across
    :meth:`run` calls, so a streaming consumer extracting chunk after
    chunk pays worker startup once; a pool broken by a dying worker is
    discarded and lazily recreated for the next call.  Call
    :meth:`close` (or use as a context manager) to release it.
    """

    def __init__(self, config: _ExtractConfig, *, workers: int = 0,
                 cache=None, quarantine=None,
                 telemetry: Telemetry | None = None, retries: int = 1,
                 keep_pool: bool = False, fn_cache=None):
        self.config = config
        self.workers = workers
        self.cache = _coerce_cache(cache)
        # per-function incremental cache; persists raw gadget objects
        # no better than the case cache does, so keep_gadget runs
        # bypass it inside _extract_case
        self.fn_cache = _coerce_fn_cache(fn_cache)
        self.quarantine = coerce_quarantine(quarantine)
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.retries = retries
        self.keep_pool = keep_pool
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the persistent pool, if one was created."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CorpusExtractor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _acquire_pool(self) -> ProcessPoolExecutor | None:
        if not self.keep_pool:
            return None  # _pool_extract manages a temporary pool
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    # -- extraction ----------------------------------------------------------

    def run(self, cases: Sequence[TestCase],
            failures: list[CaseFailure] | None = None,
            programs=None) -> list[CaseResult]:
        """Extract every case; results come back in corpus order.
        Inline extraction reads ``programs`` as ``_extract_case`` does."""
        telemetry = self.telemetry
        config = self.config
        quarantine = self.quarantine
        gadget_cache = self.cache

        telemetry.count("cases_total", len(cases))
        per_case: list[list[LabeledGadget] | None] = [None] * len(cases)
        case_failure: list[CaseFailure | None] = [None] * len(cases)
        keys: list[str | None] = [None] * len(cases)
        case_failures: list[CaseFailure] = []
        skipped_names: list[str] = []

        pending: list[int] = []
        for index, case in enumerate(cases):
            if quarantine is not None and case in quarantine:
                per_case[index] = []
                quarantine.note_skip(case)
                telemetry.count("cases_skipped")
                telemetry.count("quarantine_skips")
                telemetry.event("case-skip", case=case.name,
                                reason="quarantined")
                failure = CaseFailure(
                    case.name, "quarantined",
                    f"listed in {quarantine.path}", attempts=0,
                    quarantined=True)
                case_failure[index] = failure
                case_failures.append(failure)
                skipped_names.append(case.name)
            else:
                pending.append(index)

        if gadget_cache is not None:
            lookup, pending = pending, []
            with telemetry.stage("cache-lookup"):
                for index in lookup:
                    key = gadget_cache.key_for(cases[index],
                                               config.cache_token())
                    keys[index] = key
                    hit = gadget_cache.get(key, cases[index].name)
                    if hit is None:
                        telemetry.count("cache_misses")
                        pending.append(index)
                    else:
                        telemetry.count("cache_hits")
                        per_case[index] = hit

        outcomes: dict[int, _CaseOutcome] = {}
        if self.workers > 1 and len(pending) > 1:
            with telemetry.stage("extract"):
                pool = self._acquire_pool()
                outcomes, lost = _pool_extract(cases, pending, config,
                                               self.workers, telemetry,
                                               pool=pool,
                                               fn_cache=self.fn_cache)
                if lost and pool is not None:
                    # a broken persistent pool poisons later runs too
                    pool.shutdown(wait=False)
                    self._pool = None
                for index in lost:
                    case = cases[index]
                    if self.retries > 0:
                        telemetry.count("case_retries")
                        telemetry.event("inline-fallback",
                                        case=case.name)
                        outcome = _extract_case(case, config,
                                                self.fn_cache)
                        if outcome[2] is not None:
                            outcome[2].attempts = 2
                        outcomes[index] = outcome
                    else:
                        outcomes[index] = (
                            [], {"counters": {"cases_skipped": 1}},
                            CaseFailure(case.name, "worker-crash",
                                        "process pool broke while "
                                        "extracting this chunk"))
        elif pending:
            with telemetry.stage("extract"):
                for index in pending:
                    outcomes[index] = _extract_case(
                        cases[index], config, self.fn_cache, programs)

        for index in sorted(outcomes):
            gadgets, stats, failure = outcomes[index]
            per_case[index] = gadgets
            telemetry.merge_dict(stats)
            case = cases[index]
            if failure is not None:
                skipped_names.append(case.name)
                telemetry.count(
                    "skip_" + failure.reason.replace("-", "_"))
                if failure.reason == "timeout":
                    telemetry.count("case_timeouts")
                if (quarantine is not None
                        and failure.reason in QUARANTINE_REASONS):
                    if quarantine.add(case, failure.reason,
                                      failure.detail):
                        telemetry.count("quarantined_cases")
                    failure.quarantined = True
                telemetry.event("case-skip", case=case.name,
                                reason=failure.reason,
                                detail=failure.detail)
                logger.warning("extract_gadgets: %s skipped (%s%s)%s",
                               case.name, failure.reason,
                               f": {failure.detail}" if failure.detail
                               else "",
                               "; quarantined" if failure.quarantined
                               else "")
                case_failure[index] = failure
                case_failures.append(failure)
                continue
            if quarantine is not None and quarantine.listed(case):
                # a formerly-quarantined case made it through a retry:
                # retire the entry so future runs stop re-litigating it
                quarantine.discharge(case)
                telemetry.count("quarantine_discharges")
                telemetry.event("quarantine-discharge", case=case.name)
            if gadget_cache is not None:
                # failed cases are deliberately not cached: parse
                # failures are cheap to re-fail and poison cases belong
                # to the quarantine, so skip diagnostics stay visible
                # on reruns
                with telemetry.stage("cache-store"):
                    gadget_cache.put(keys[index], gadgets)

        if failures is not None:
            failures.extend(case_failures)
        if skipped_names:
            shown = ", ".join(skipped_names[:5])
            if len(skipped_names) > 5:
                shown += ", ..."
            logger.warning("extract_gadgets: skipped %d/%d case(s): %s",
                           len(skipped_names), len(cases), shown)
        return [CaseResult(case, gadgets or [], case_failure[index])
                for index, (case, gadgets)
                in enumerate(zip(cases, per_case))]


class GadgetDeduplicator:
    """Corpus-order (tokens, label) exact-duplicate filter.

    Stateful across calls so a streaming consumer filtering chunk
    after chunk drops exactly the duplicates a one-shot pass over the
    concatenated corpus would (pinned by ``tests/core/test_engine.py``).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.hits = 0
        self._seen: set[tuple[tuple[str, ...], int]] = set()

    def filter(self, gadgets: Sequence[LabeledGadget]
               ) -> list[LabeledGadget]:
        if not self.enabled:
            return list(gadgets)
        kept: list[LabeledGadget] = []
        for labeled in gadgets:
            key = (labeled.tokens, labeled.label)
            if key in self._seen:
                self.hits += 1
                continue
            self._seen.add(key)
            kept.append(labeled)
        return kept


def extract_gadgets(
    cases: Sequence[TestCase],
    kind: str = "path-sensitive",
    categories: tuple[str, ...] | None = None,
    *,
    use_control: bool = True,
    deduplicate: bool = True,
    keep_gadget: bool = False,
    workers: int = 0,
    cache=None,
    telemetry: Telemetry | None = None,
    case_timeout: float | None = None,
    retries: int = 1,
    quarantine=None,
    failures: list[CaseFailure] | None = None,
) -> list[LabeledGadget]:
    """Steps I-III: slice, assemble, label, and normalize every case.

    Cases are processed independently (optionally fanned out over a
    process pool and/or served from a content-addressed cache) and the
    per-case gadget lists are concatenated in corpus order before
    deduplication, so the output is byte-identical no matter how the
    work was scheduled — including runs where workers crashed and
    their cases were re-extracted inline.

    A pathological case can only ever cost its own result: hangs are
    cut off by ``case_timeout``, crashes break at most one pool chunk
    (whose cases fall back to inline extraction), deep nesting and
    memory exhaustion are caught at the per-case boundary, and cases
    listed in the ``quarantine`` are skipped before any work happens.

    Args:
        cases: corpus programs.
        kind: 'path-sensitive' (Algorithm 1) or 'classic' (the CG
            baseline the paper compares against in Table II).
        categories: restrict criteria to these families.
        use_control: follow control-dependence edges while slicing
            (False reproduces VulDeePecker's data-only gadgets; only
            meaningful for kind='classic').
        deduplicate: drop exact (tokens, label) duplicates, as the
            paper does after merging corpora.
        keep_gadget: retain the raw gadget object (needed by the
            attention visualization, costs memory otherwise).
        workers: fan the per-case work out over this many processes
            (0 or 1 keeps the serial in-process path).
        cache: a :class:`~repro.core.cache.GadgetCache`, a cache
            directory path, or None.  Hits skip the frontend entirely;
            ignored when ``keep_gadget`` is set because the on-disk
            record format does not persist raw gadget objects.
        telemetry: optional accumulator for stage timings and counters
            (cases parsed/skipped, gadgets, dedup and cache hits, and
            every recovery event).
        case_timeout: per-case wall-clock budget in seconds; a case
            that exceeds it is recorded as a 'timeout' failure (and
            quarantined, when a quarantine is attached) instead of
            hanging the run.  None disables the budget.
        retries: inline re-extraction attempts for cases lost to a
            broken process pool (0 records them as 'worker-crash'
            failures instead).
        quarantine: a :class:`~repro.core.resilience.Quarantine`, a
            JSONL path, or None.  Known-poison cases are skipped
            cheaply; new timeouts/crashes are appended for next time.
        failures: optional list that receives one structured
            :class:`CaseFailure` per case that produced no gadgets.
    """
    config = _make_config(kind, categories, use_control=use_control,
                          keep_gadget=keep_gadget,
                          case_timeout=case_timeout)
    if cache is not None and keep_gadget:
        logger.warning("extract_gadgets: cache disabled because "
                       "keep_gadget=True retains raw gadget objects "
                       "the cache format does not persist")
    extractor = CorpusExtractor(
        config, workers=workers,
        cache=None if keep_gadget else cache,
        quarantine=quarantine, telemetry=telemetry,
        retries=retries)
    telemetry = extractor.telemetry
    case_results = extractor.run(cases, failures=failures)

    deduper = GadgetDeduplicator(enabled=deduplicate)
    results: list[LabeledGadget] = []
    for case_result in case_results:
        results.extend(deduper.filter(case_result.gadgets))
    telemetry.count("dedup_hits", deduper.hits)
    telemetry.count("gadgets_emitted", len(results))
    return results
