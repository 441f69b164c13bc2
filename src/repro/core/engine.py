"""Streaming stage engine: the pipeline as composable typed stages.

The monolithic pipeline ran as full-materialize barriers: extract the
whole corpus, then encode all of it, then train/score.  The engine
recasts the same work as :class:`Stage` objects composed over a
generator chain, with a prefetch thread at every streaming boundary —
so extraction of chunk N+1 overlaps encoding/scoring of chunk N
(extraction waits on worker processes or parses in pure Python while
scoring crunches numpy, so the overlap is real wall-clock, measured by
``scripts/bench_engine.py``).

Outputs are byte-identical to the serial one-shot paths: chunking
never changes results because per-case extraction is pure, the
deduplicator is stateful across chunks (corpus-order semantics), and
scoring buckets by *exact* length so a row's score never depends on
its batch-mates (pinned by ``tests/core/test_engine.py``).

All run-wide services ride in one :class:`RunContext` — the gadget
cache, quarantine, telemetry, checkpoint directory, and the fault
budget (case timeout, worker count, retries) — instead of five loose
keyword arguments threaded through every call.

Typical composition (what :meth:`repro.core.detector.SEVulDet.fit`
does)::

    ctx = RunContext.create(cache=cache_dir, workers=4)
    engine = Engine(ExtractStage(), EncodeStage(dim=30),
                    TrainStage(build_model), ctx=ctx)
    result = engine.run(cases)   # TrainResult(model, report, dataset)
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..datasets.manifest import TestCase
from .encode import EncodedDataset, encode_gadgets
from .extract import (CaseResult, CorpusExtractor, GadgetDeduplicator,
                      LabeledGadget, _coerce_cache, _coerce_fn_cache,
                      _make_config)
from .resilience import CaseFailure, Quarantine, coerce_quarantine
from .score import predict_proba
from .telemetry import Telemetry
from .train import TrainReport, train_classifier

__all__ = ["RunContext", "Stage", "ExtractStage", "EncodeStage",
           "TrainStage", "TrainResult", "ScoreStage", "Engine"]


@dataclass
class RunContext:
    """Run-wide services and fault budget, shared by every stage.

    One context per logical run (a fit, a scan sweep, a CV protocol):
    stages read their cache/quarantine/telemetry from it, failure
    records accumulate on it, and sharing one context across several
    engines (e.g. per-fold extraction in cross-validation) shares the
    warm cache and the accumulated counters.

    Build instances with :meth:`create`, which coerces the convenience
    forms (cache directory path, quarantine JSONL path) the CLI deals
    in; the raw constructor expects already-coerced objects.
    """

    cache: Any = None  # GadgetCache | None
    fn_cache: Any = None  # FunctionGadgetCache | None
    quarantine: Quarantine | None = None
    telemetry: Telemetry = field(default_factory=Telemetry)
    checkpoint_dir: Path | None = None
    case_timeout: float | None = None
    workers: int = 0
    retries: int = 1
    resume: bool = False
    failures: list[CaseFailure] = field(default_factory=list)

    @classmethod
    def create(cls, *, cache=None, fn_cache=None, quarantine=None,
               telemetry: Telemetry | None = None,
               checkpoint_dir: str | Path | None = None,
               case_timeout: float | None = None, workers: int = 0,
               retries: int = 1, resume: bool = False,
               failures: list[CaseFailure] | None = None
               ) -> "RunContext":
        """Coercing constructor: accepts a cache directory path for
        ``cache``/``fn_cache``, a JSONL path for ``quarantine``, and
        None for ``telemetry``/``failures`` (fresh instances are
        made)."""
        return cls(
            cache=_coerce_cache(cache),
            fn_cache=_coerce_fn_cache(fn_cache),
            quarantine=coerce_quarantine(quarantine),
            telemetry=telemetry if telemetry is not None else Telemetry(),
            checkpoint_dir=(Path(checkpoint_dir)
                            if checkpoint_dir is not None else None),
            case_timeout=case_timeout,
            workers=workers,
            retries=retries,
            resume=resume,
            failures=failures if failures is not None else [])


class Stage:
    """One pipeline step in an :class:`Engine` chain.

    A stage transforms the upstream chunk iterator into its own output
    iterator via :meth:`pipe`.  Streaming stages (``streaming=True``)
    emit one output per input chunk and may be separated from their
    consumer by a prefetch thread; barrier stages consume the entire
    upstream before emitting (encoding needs the whole vocabulary,
    training the whole sample set).

    Lifecycle: :meth:`open` before the first chunk, :meth:`close`
    after the output is drained (or the run fails) — in reverse stage
    order, like nested context managers.
    """

    name = "stage"
    #: True when the stage emits per input chunk (eligible for a
    #: prefetch boundary); False for whole-input barriers.
    streaming = True

    def open(self, ctx: RunContext) -> None:
        """Acquire per-run resources (pools, dedup state)."""

    def close(self, ctx: RunContext) -> None:
        """Release resources and flush run-level accounting."""

    def pipe(self, upstream: Iterator, ctx: RunContext) -> Iterator:
        """Transform the upstream iterator (default: map process)."""
        for chunk in upstream:
            yield self.process(chunk, ctx)

    def process(self, chunk, ctx: RunContext):
        raise NotImplementedError


class ExtractStage(Stage):
    """Steps I-III per chunk of cases: slice, assemble, label,
    normalize — through the context's cache/quarantine/pool.

    Emits deduplicated :class:`LabeledGadget` lists by default (the
    training diet); ``per_case=True`` emits the raw per-case
    :class:`CaseResult` lists instead (the scan service needs each
    case's gadgets and failure individually, with no cross-case
    dedup).

    The underlying :class:`CorpusExtractor` keeps its process pool
    across chunks, so streaming pays worker startup once; the
    deduplicator is stateful across chunks, so the concatenated output
    equals a one-shot :func:`~repro.core.extract.extract_gadgets` call
    byte for byte.
    """

    name = "extract"
    streaming = True

    def __init__(self, kind: str = "path-sensitive",
                 categories: tuple[str, ...] | None = None, *,
                 use_control: bool = True, deduplicate: bool = True,
                 keep_gadget: bool = False, per_case: bool = False):
        self._base_config = _make_config(
            kind, categories, use_control=use_control,
            keep_gadget=keep_gadget, case_timeout=None)
        self.deduplicate = deduplicate
        self.per_case = per_case
        self._extractor: CorpusExtractor | None = None
        self._deduper: GadgetDeduplicator | None = None
        self._emitted = 0

    def open(self, ctx: RunContext) -> None:
        config = replace(self._base_config,
                         case_timeout=ctx.case_timeout)
        # the on-disk cache format does not persist raw gadget objects
        cache = None if config.keep_gadget else ctx.cache
        fn_cache = None if config.keep_gadget else ctx.fn_cache
        self._extractor = CorpusExtractor(
            config, workers=ctx.workers, cache=cache,
            quarantine=ctx.quarantine, telemetry=ctx.telemetry,
            retries=ctx.retries, keep_pool=True, fn_cache=fn_cache)
        self._deduper = GadgetDeduplicator(enabled=self.deduplicate)
        self._emitted = 0

    def process(self, chunk: Sequence[TestCase], ctx: RunContext
                ) -> list[CaseResult] | list[LabeledGadget]:
        assert self._extractor is not None, "stage not opened"
        results = self._extractor.run(chunk, failures=ctx.failures)
        if self.per_case:
            return results
        kept: list[LabeledGadget] = []
        for result in results:
            kept.extend(self._deduper.filter(result.gadgets))
        self._emitted += len(kept)
        return kept

    def close(self, ctx: RunContext) -> None:
        if self._extractor is not None:
            self._extractor.close()
            self._extractor = None
        if self._deduper is not None and not self.per_case:
            ctx.telemetry.count("dedup_hits", self._deduper.hits)
            ctx.telemetry.count("gadgets_emitted", self._emitted)
        self._deduper = None


class EncodeStage(Stage):
    """Step IV input side (barrier): vocabulary + word2vec + samples.

    Consumes every upstream gadget chunk (the vocabulary must see the
    whole corpus), then emits one :class:`EncodedDataset`.
    """

    name = "encode"
    streaming = False

    def __init__(self, *, dim: int = 30, w2v_epochs: int = 2,
                 seed: int = 13, min_count: int = 2,
                 vocab=None, word2vec=None):
        self.dim = dim
        self.w2v_epochs = w2v_epochs
        self.seed = seed
        self.min_count = min_count
        self.vocab = vocab
        self.word2vec = word2vec

    def pipe(self, upstream: Iterator, ctx: RunContext) -> Iterator:
        gadgets: list[LabeledGadget] = []
        for chunk in upstream:
            gadgets.extend(chunk)
        if not gadgets:
            raise ValueError("no gadgets could be extracted from the "
                             "training corpus")
        yield encode_gadgets(
            gadgets, dim=self.dim, w2v_epochs=self.w2v_epochs,
            seed=self.seed, vocab=self.vocab, word2vec=self.word2vec,
            min_count=self.min_count, telemetry=ctx.telemetry)


@dataclass
class TrainResult:
    """What a :class:`TrainStage` emits: the trained model, its loss
    trajectory, and the dataset it was trained on."""

    model: Any
    report: TrainReport
    dataset: EncodedDataset


class TrainStage(Stage):
    """Step V learning loop (barrier) over an :class:`EncodedDataset`.

    ``build_model`` receives the dataset (vocabulary size, pretrained
    embedding vectors) and returns a fresh model; binding the rare-id
    alias table is the builder's business so ablations can opt out.
    The checkpoint directory and resume flag come from the context.
    ``samples_of`` narrows training to a subset (cross-validation
    trains on fold indices of the shared dataset).
    """

    name = "train"
    streaming = False

    def __init__(self, build_model: Callable[[EncodedDataset], Any], *,
                 epochs: int = 8, batch_size: int = 16,
                 lr: float = 3e-3, seed: int = 0,
                 class_balance: bool = True, validation=None,
                 patience: int | None = None,
                 checkpoint_every: int = 1,
                 samples_of: Callable[[EncodedDataset], Sequence]
                 | None = None):
        self.build_model = build_model
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.class_balance = class_balance
        self.validation = validation
        self.patience = patience
        self.checkpoint_every = checkpoint_every
        self.samples_of = samples_of

    def pipe(self, upstream: Iterator, ctx: RunContext) -> Iterator:
        for dataset in upstream:
            model = self.build_model(dataset)
            samples = (dataset.samples if self.samples_of is None
                       else self.samples_of(dataset))
            report = train_classifier(
                model, samples, epochs=self.epochs,
                batch_size=self.batch_size, lr=self.lr,
                seed=self.seed, class_balance=self.class_balance,
                validation=self.validation, patience=self.patience,
                telemetry=ctx.telemetry,
                checkpoint_dir=ctx.checkpoint_dir,
                checkpoint_every=self.checkpoint_every,
                resume=ctx.resume)
            yield TrainResult(model, report, dataset)


class ScoreStage(Stage):
    """Step V inference side, per chunk of gadgets.

    Emits one ``(gadgets, scores)`` pair per upstream gadget chunk.
    Scores are byte-identical to a one-shot
    :func:`~repro.core.score.predict_proba` over the concatenated
    corpus because bucketing groups by *exact* length — a row's padded
    representation never depends on its batch-mates.
    """

    name = "score"
    streaming = True

    def __init__(self, model, vocab, *, batch_size: int = 128):
        self.model = model
        self.vocab = vocab
        self.batch_size = batch_size

    def process(self, chunk: Sequence[LabeledGadget], ctx: RunContext
                ) -> tuple[list[LabeledGadget], np.ndarray]:
        gadgets = list(chunk)
        samples = [g.sample(self.vocab) for g in gadgets]
        scores = predict_proba(self.model, samples,
                               batch_size=self.batch_size)
        return gadgets, scores


_DONE = object()


class _Prefetch:
    """Iterator decoupled from its source by a bounded queue.

    A daemon thread eagerly drains ``source`` into the queue (at most
    ``depth`` items ahead), so the upstream stage keeps working while
    the consumer processes earlier output — the engine's overlap
    mechanism.  Source exceptions are re-raised at the consuming end.

    An abandoned consumer (an ``Engine.stream`` generator dropped
    mid-iteration) must call :meth:`close`: without it the pump thread
    can stay blocked forever on ``queue.put`` against a full queue,
    leaking the thread and racing stage cleanup (the closed
    ``CorpusExtractor``).  ``close`` poisons the pump, drains the
    queue until the thread exits, and leaves a ``_DONE`` sentinel so
    any downstream pump blocked on :meth:`__next__` unblocks too.
    """

    def __init__(self, source: Iterator, depth: int):
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, depth))
        self._error: BaseException | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._pump, args=(source,), daemon=True,
            name="engine-prefetch")
        self._thread.start()

    def _pump(self, source: Iterator) -> None:
        try:
            for item in source:
                self._queue.put(item)
                if self._closed:
                    return
        except BaseException as error:  # propagate to the consumer
            self._error = error
        finally:
            self._queue.put(_DONE)

    def close(self) -> None:
        """Stop the pump and join it (idempotent).

        Safe while the pump is blocked on a full queue: the drain loop
        below keeps freeing slots until the thread notices the poison
        flag (or finishes its final ``_DONE`` put) and exits.
        """
        self._closed = True
        while self._thread.is_alive():
            try:
                self._queue.get_nowait()
            except queue.Empty:
                pass
            self._thread.join(timeout=0.01)
        # wake any downstream consumer blocked in __next__
        try:
            self._queue.put_nowait(_DONE)
        except queue.Full:
            pass  # a sentinel (or data it will skip past) is queued

    def __iter__(self) -> "_Prefetch":
        return self

    def __next__(self):
        item = self._queue.get()
        if item is _DONE:
            self._thread.join()
            if self._error is not None and not self._closed:
                raise self._error
            raise StopIteration
        return item


class Engine:
    """Compose stages into a streaming pipeline over chunked input.

    ``stream(items)`` chunks the input (``chunk_size`` cases per
    chunk), threads the chunk iterator through every stage's
    :meth:`Stage.pipe`, and inserts a :class:`_Prefetch` boundary
    after each streaming stage that has a consumer — that thread is
    what lets extraction of chunk N+1 overlap the downstream work on
    chunk N.  ``streaming=False`` disables the prefetch boundaries
    (the serial barrier execution the benchmark compares against);
    results are identical either way.

    ``run(items)`` drains the stream: it returns the single item for
    barrier-terminated chains (a :class:`TrainResult`, an
    :class:`EncodedDataset`) and the list of emitted chunks otherwise.
    """

    def __init__(self, *stages: Stage, ctx: RunContext | None = None,
                 chunk_size: int = 64, prefetch: int = 2,
                 streaming: bool = True):
        if not stages:
            raise ValueError("an Engine needs at least one stage")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.stages = stages
        self.ctx = ctx if ctx is not None else RunContext.create()
        self.chunk_size = chunk_size
        self.prefetch = prefetch
        self.streaming = streaming

    def _chunks(self, items: Iterable) -> Iterator[list]:
        chunk: list = []
        for item in items:
            chunk.append(item)
            if len(chunk) >= self.chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def stream(self, items: Iterable) -> Iterator:
        """Lazily run the pipeline; yields the last stage's output."""
        opened: list[Stage] = []
        prefetches: list[_Prefetch] = []
        try:
            flow: Iterator = self._chunks(items)
            last = len(self.stages) - 1
            for position, stage in enumerate(self.stages):
                stage.open(self.ctx)
                opened.append(stage)
                flow = stage.pipe(flow, self.ctx)
                if (self.streaming and stage.streaming
                        and position < last):
                    flow = _Prefetch(flow, self.prefetch)
                    prefetches.append(flow)
            for item in flow:
                yield item
        finally:
            # Join pump threads before closing stages: an abandoned
            # consumer (early break / gen.close()) leaves pumps
            # running, and closing stages first would race them
            # against a shut-down extractor.  Upstream-first so each
            # closed pump's _DONE sentinel unblocks the next pump's
            # pending __next__.
            for prefetch in prefetches:
                prefetch.close()
            for stage in reversed(opened):
                stage.close(self.ctx)

    def run(self, items: Iterable):
        """Drain the stream; single item for barrier-ended chains."""
        outputs = list(self.stream(items))
        if not self.stages[-1].streaming:
            if len(outputs) != 1:
                raise RuntimeError(
                    f"barrier stage {self.stages[-1].name!r} emitted "
                    f"{len(outputs)} items (expected exactly 1)")
            return outputs[0]
        return outputs
