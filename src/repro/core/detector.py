"""SEVulDet — the end-to-end detector (paper Fig 2, both phases).

Training phase: programs -> path-sensitive code gadgets (Steps I-III)
-> word2vec + token attention embedding (Step IV) -> CNN/SPP/CBAM model
(Step V).  Detection phase: the same preprocessing without labels; a
gadget scoring above the 0.8 threshold is reported with its criterion
location (vulnerability type and line number, as Fig 2(b) describes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..datasets.manifest import TestCase
from ..embedding.vocab import Vocabulary
from ..models.sevuldet import DECISION_THRESHOLD, SEVulDetNet
from ..nn import Sample
from ..nn.serialize import load_model, save_model
from ..slicing.normalize import NORMALIZE_VERSION
from .config import Scale, current_scale
from .cwe_typing import CWETyper
from .context import RunContext
from .encode import EncodedDataset, encode_gadgets
from .extract import (PIPELINE_VERSION, LabeledGadget, encode_rows,
                      extract_gadgets)
from .score import predict_proba
from .train import TrainReport, train_classifier
from .resilience import CaseFailure
from .telemetry import Telemetry

__all__ = ["Finding", "SEVulDet"]


@dataclass(frozen=True)
class Finding:
    """One reported (suspected) vulnerability."""

    path: str
    function: str
    line: int
    category: str
    score: float
    cwe_hint: str = ""

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.path}:{self.line} [{self.category}] "
                f"{self.function}() score={self.score:.2f}")


@dataclass
class SEVulDet:
    """High-level detector facade.

    Typical use::

        detector = SEVulDet()
        detector.fit(training_cases)
        findings = detector.detect(source_code, path="foo.c")

    Attributes:
        scale: sizing preset (dims/epochs); defaults to REPRO_SCALE.
        threshold: decision threshold (paper: 0.8).
        gadget_kind: 'path-sensitive' (default) or 'classic' for
            ablation studies.
        workers: fan gadget extraction out over this many processes
            during :meth:`fit` (0 keeps the serial path).
        cache: extraction cache (GadgetCache or directory path) that
            lets repeated fits *and* repeated detection skip the
            frontend for unchanged cases.
        case_timeout: per-case extraction wall-clock budget in
            seconds (None disables); a hanging case is skipped and
            quarantined instead of wedging :meth:`fit`.
            :class:`~repro.core.serve.ScanService` refuses a detector
            with a budget set: it cannot enforce one.
        quarantine: poison-case list (Quarantine or JSONL path) shared
            by :meth:`fit` and :meth:`detect_case`.
        telemetry: extraction + training stage timings and counters,
            accumulated across :meth:`fit` / :meth:`detect_case` calls.
        extraction_failures: structured :class:`CaseFailure` records
            from the most recent :meth:`fit`.
    """

    scale: Scale = field(default_factory=current_scale)
    threshold: float = DECISION_THRESHOLD
    gadget_kind: str = "path-sensitive"
    seed: int = 7
    categories: tuple[str, ...] | None = None
    model: SEVulDetNet | None = None
    dataset: EncodedDataset | None = None
    typer: CWETyper | None = None
    workers: int = 0
    cache: object | None = None
    case_timeout: float | None = None
    quarantine: object | None = None
    telemetry: Telemetry = field(default_factory=Telemetry)
    extraction_failures: list[CaseFailure] = field(default_factory=list)

    def run_context(self, *, checkpoint_dir: str | Path | None = None,
                    resume: bool = False) -> RunContext:
        """The detector's settings bundled as a :class:`RunContext`
        (fresh failure list; shared cache/quarantine/telemetry)."""
        return RunContext.create(
            cache=self.cache, quarantine=self.quarantine,
            telemetry=self.telemetry, checkpoint_dir=checkpoint_dir,
            case_timeout=self.case_timeout, workers=self.workers,
            resume=resume)

    def _build_net(self, dataset: EncodedDataset) -> SEVulDetNet:
        model = SEVulDetNet(
            len(dataset.vocab), dim=self.scale.dim,
            channels=self.scale.channels,
            pretrained=dataset.word2vec.vectors, seed=self.seed)
        dataset.bind_embedding_aliases(model)
        return model

    def fit(self, cases: Sequence[TestCase],
            epochs: int | None = None, *,
            checkpoint_dir: str | Path | None = None,
            resume: bool = False, ctx=None) -> TrainReport:
        """Train on labelled corpus programs.

        Paper Fig 2's training phase as three direct calls:
        :func:`~repro.core.extract.extract_gadgets` (Steps I-III),
        :func:`~repro.core.encode.encode_gadgets` (Step IV) and
        :func:`~repro.core.train.train_classifier` (Step V), each
        drawing its cache/quarantine/telemetry and fault budget from
        one :class:`RunContext` (``ctx``, or :meth:`run_context`).

        With a ``checkpoint_dir``, training writes atomic per-epoch
        checkpoints and ``resume=True`` continues an interrupted fit
        from the last completed epoch (the extraction and embedding
        steps are deterministic — and typically cache-warm — so only
        the remaining classifier epochs are re-run), ending with the
        same weights as an uninterrupted fit.
        """
        if ctx is None:
            ctx = self.run_context(checkpoint_dir=checkpoint_dir,
                                   resume=resume)
        self.extraction_failures = ctx.failures
        gadgets = extract_gadgets(cases, self.gadget_kind,
                                  self.categories, **ctx.extract_kwargs())
        if not gadgets:
            raise ValueError("no gadgets could be extracted from the "
                             "training corpus")
        dataset = encode_gadgets(gadgets, dim=self.scale.dim,
                                 w2v_epochs=self.scale.w2v_epochs,
                                 seed=self.seed, telemetry=ctx.telemetry)
        model = self._build_net(dataset)
        report = train_classifier(
            model, dataset.samples,
            epochs=epochs if epochs is not None else self.scale.epochs,
            batch_size=self.scale.batch_size,
            lr=self.scale.learning_rate, seed=self.seed,
            telemetry=ctx.telemetry, checkpoint_dir=ctx.checkpoint_dir,
            resume=ctx.resume)
        self.dataset = dataset
        self.model = model
        return report

    def fit_typer(self, epochs: int = 12) -> list[float]:
        """Train the CWE-type head (Fig 2(b) "vulnerability type") on
        the binary detector's vulnerable training gadgets."""
        if self.dataset is None:
            raise RuntimeError("call fit() before fit_typer()")
        self.typer = CWETyper(vocab=self.dataset.vocab,
                              dim=self.scale.dim,
                              channels=self.scale.channels,
                              seed=self.seed)
        return self.typer.fit(
            self.dataset.gadgets, epochs=epochs,
            pretrained=self.dataset.word2vec.vectors,
            id_aliases=self.dataset.id_aliases)

    def _require_trained(self) -> tuple[SEVulDetNet, Vocabulary]:
        if self.model is None or self.dataset is None:
            raise RuntimeError("detector is not trained; call fit() or "
                               "load() first")
        return self.model, self.dataset.vocab

    def score_gadgets(self, gadgets: Sequence[LabeledGadget]
                      ) -> np.ndarray:
        """Raw sigmoid scores for pre-extracted gadgets."""
        model, vocab = self._require_trained()
        samples = [Sample(row, g.label) for row, g
                   in zip(encode_rows(gadgets, vocab), gadgets)]
        return predict_proba(model, samples)

    def detect(self, source: str, path: str = "<memory>"
               ) -> list[Finding]:
        """Detection phase on raw source text."""
        case = TestCase(name=path, source=source, vulnerable=False,
                        vulnerable_lines=frozenset(), cwe="",
                        category="", origin="detect")
        return self.detect_case(case)

    def detect_case(self, case: TestCase) -> list[Finding]:
        """Detection phase on a corpus case (labels ignored).

        Shares the detector's extraction ``cache`` and ``telemetry``
        with :meth:`fit`, so repeated detection over the same corpus
        gets the same warm-cache win as training.
        """
        self._require_trained()
        gadgets = extract_gadgets([case], kind=self.gadget_kind,
                                  categories=self.categories,
                                  deduplicate=False,
                                  cache=self.cache,
                                  telemetry=self.telemetry,
                                  case_timeout=self.case_timeout,
                                  quarantine=self.quarantine)
        if not gadgets:
            return []
        scores = self.score_gadgets(gadgets)
        return self.findings_from(case.name, gadgets, scores)

    def findings_from(self, case_name: str,
                      gadgets: Sequence[LabeledGadget],
                      scores: np.ndarray) -> list[Finding]:
        """Threshold + rank pre-scored gadgets into findings.

        The shared tail of :meth:`detect_case` and the batched scan
        service (:mod:`repro.core.serve`) — one implementation so both
        paths report identical findings for identical scores.
        """
        findings = [
            Finding(path=case_name, function=g.criterion.function,
                    line=g.criterion.line, category=g.category,
                    score=float(score),
                    cwe_hint=(self.typer.classify(g)
                              if self.typer is not None else ""))
            for g, score in zip(gadgets, scores)
            if score >= self.threshold
        ]
        findings.sort(key=lambda f: -f.score)
        return findings

    def config_token(self) -> str:
        """Digest of everything that determines a case's verdict.

        Result caches (the scan service's LRU) key on
        ``(case fingerprint, config_token)``: model weights, decision
        threshold, extraction settings, and the pipeline/normalizer
        versions all change the verdict, so any of them changing must
        miss the cache.
        """
        model, vocab = self._require_trained()
        digest = hashlib.sha256()
        digest.update(f"threshold={self.threshold};"
                      f"kind={self.gadget_kind};"
                      f"categories={self.categories};"
                      f"pipeline={PIPELINE_VERSION};"
                      f"normalize={NORMALIZE_VERSION};"
                      f"vocab={len(vocab)};"
                      f"typer={self.typer is not None}".encode())
        for name, array in sorted(model.state_dict().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def flags_case(self, case: TestCase) -> bool:
        """Program-level verdict: any gadget above threshold."""
        return bool(self.detect_case(case))

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the binary model's weights + vocabulary.

        The optional CWE-type head (:meth:`fit_typer`) is not part of
        the archive; retrain it after :meth:`load` when type hints are
        needed.
        """
        model, vocab = self._require_trained()
        aliases = model.embedding.id_aliases
        rare_ids = ([] if aliases is None else
                    [int(i) for i in np.flatnonzero(
                        aliases != np.arange(len(aliases)))])
        save_model(model, path, metadata={
            "tokens": vocab.id_to_token,
            "threshold": self.threshold,
            "gadget_kind": self.gadget_kind,
            "dim": self.scale.dim,
            "channels": self.scale.channels,
            "rare_token_ids": rare_ids,
            "pipeline_version": PIPELINE_VERSION,
            "normalize_version": NORMALIZE_VERSION,
        })

    def load(self, path: str | Path) -> None:
        """Restore a detector persisted with :meth:`save`.

        Reads the metadata first to size the model, then loads
        weights.  Archives written by a different pipeline/normalize
        version, or whose vocabulary disagrees with the stored
        embedding, are rejected with a ``ValueError`` naming the
        mismatch instead of surfacing as a downstream shape error or
        silently mis-tokenized scans; so are archives tagged with a
        reduced-precision ``inference_dtype`` (``int8``, ``float16``),
        which this code no longer reads.
        """
        import json

        from ..embedding.word2vec import Word2Vec

        with np.load(Path(path)) as archive:
            metadata = json.loads(
                archive["__metadata__"].tobytes().decode())
            embedding_shape = (
                archive["embedding.weight"].shape
                if "embedding.weight" in archive.files else None)
        inference_dtype = metadata.get("inference_dtype", "float32")
        if inference_dtype != "float32":
            raise ValueError(
                f"model archive {path} holds {inference_dtype} weights, "
                f"but only float32 archives are supported; load the "
                f"float32 archive it was quantized from instead")
        for field_name, current in (
                ("pipeline_version", PIPELINE_VERSION),
                ("normalize_version", NORMALIZE_VERSION)):
            saved = metadata.get(field_name)
            if saved is not None and saved != current:
                raise ValueError(
                    f"model archive {path} was built with "
                    f"{field_name}={saved} but this code uses "
                    f"{field_name}={current}; its gadget tokenization "
                    f"is incompatible — re-train the model")
        if embedding_shape is not None:
            n_tokens = len(metadata["tokens"])
            if embedding_shape[0] != n_tokens:
                raise ValueError(
                    f"model archive {path} is inconsistent: the "
                    f"embedding matrix has {embedding_shape[0]} rows "
                    f"but the metadata lists {n_tokens} vocabulary "
                    f"tokens — the archive is corrupt or mixes files "
                    f"from different runs")
            if embedding_shape[1] != metadata["dim"]:
                raise ValueError(
                    f"model archive {path} is inconsistent: the "
                    f"embedding width is {embedding_shape[1]} but the "
                    f"metadata says dim={metadata['dim']}")
        vocab = Vocabulary()
        for token in metadata["tokens"][2:]:  # skip PAD/UNK
            vocab.add(token)
        model = SEVulDetNet(len(vocab), dim=metadata["dim"],
                            channels=metadata["channels"])
        load_model(model, path)
        rare_ids = metadata.get("rare_token_ids", [])
        id_aliases = None
        if rare_ids:
            id_aliases = np.arange(len(vocab), dtype=np.int64)
            id_aliases[rare_ids] = 1
            model.embedding.id_aliases = id_aliases
        self.model = model
        self.threshold = metadata["threshold"]
        self.gadget_kind = metadata["gadget_kind"]
        word2vec = Word2Vec(vocab, dim=metadata["dim"])
        word2vec.input_vectors = model.embedding.weight.data.copy()
        self.dataset = EncodedDataset([], vocab, word2vec,
                                      id_aliases=id_aliases)
