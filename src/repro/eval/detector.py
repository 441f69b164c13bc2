"""Detector adapters: one protocol over every evaluated system.

The repo historically ran deep-learning frameworks through
:func:`repro.eval.comparison.train_and_evaluate` and classical
scanners through :func:`~repro.eval.comparison.evaluate_static_tool` —
two disjoint code paths re-wired by hand in every table benchmark.
This module closes that gap: every system is a :class:`Detector`
(``name`` / optional ``fit`` / ``predict``) and the matrix runner
(:mod:`repro.eval.matrix`) treats them uniformly.

Three adapter families cover the existing systems:

* :class:`FrameworkDetector` — any :data:`FRAMEWORKS` entry, trained
  and scored by direct extract/encode/train calls against a shared
  :class:`~repro.core.context.RunContext`, so the gadget caches,
  quarantine, and telemetry are reused across matrix cells.  The
  training and scoring path is pinned to produce metrics *identical*
  to ``train_and_evaluate`` on the same seeds.
* :class:`StaticToolDetector` — flawfinder/RATS/checkmarx/vuddy.
  Verdicts route through the context's telemetry (per-tool wall time
  and cases/sec), which the old ``evaluate_static_tool`` never did.
* :class:`FuzzDetector` — the AFL-style fuzzer, bounded per case.

Every adapter returns a :class:`Prediction` carrying *per-case*
verdicts (aligned with the input cases — the common denominator the
paired bootstrap compares across detector families) plus, for gadget
models, the per-gadget scores/labels whose metrics match the
historical gadget-level tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from ..baselines import AFLFuzzer
from ..core.config import Scale, current_scale
from ..core.context import RunContext
from ..core.encode import encode_gadgets
from ..core.extract import (CorpusExtractor, GadgetDeduplicator,
                            LabeledGadget, _make_config, extract_gadgets)
from ..core.score import predict_proba
from ..core.train import train_classifier
from ..datasets.adapters import derive_seed
from ..datasets.manifest import TestCase
from ..models.bgru import BGRUNet
from ..models.blstm import BLSTMNet
from .comparison import FRAMEWORKS, FrameworkSpec, StaticTool
from .metrics import Metrics, confusion_from, metrics_from

__all__ = ["Detector", "Prediction", "FrameworkDetector",
           "StaticToolDetector", "FuzzDetector", "build_detector",
           "default_detectors"]


@dataclass
class Prediction:
    """One detector's output over one test corpus.

    Attributes:
        detector: the producing detector's name.
        verdicts: per-case 0/1 decisions, aligned with the input cases
            — the cross-family common denominator (bootstrap
            significance compares these).
        scores: per-case scores behind the verdicts (max gadget score
            for gadget models; 0/1 for binary tools).
        basis: which granularity :meth:`metrics` reports — ``gadget``
            for deep models (matching the paper's gadget-level tables)
            or ``case`` for program-level tools.
        gadget_scores / gadget_labels: the deduplicated test-gadget
            scores and ground truth (gadget basis only).
        threshold: decision threshold the verdicts used.
    """

    detector: str
    verdicts: list[int]
    scores: list[float]
    basis: str = "case"
    gadget_scores: list[float] | None = None
    gadget_labels: list[int] | None = None
    threshold: float = 0.5

    def metrics(self, labels: Sequence[int]) -> Metrics:
        """Metrics at the prediction's native granularity.

        ``labels`` are the per-case ground truth; gadget-basis
        predictions ignore them in favour of their own gadget labels
        (that is what makes the numbers comparable with the historical
        ``train_and_evaluate`` tables).
        """
        if self.basis == "gadget":
            assert self.gadget_scores is not None
            assert self.gadget_labels is not None
            decisions = [1 if score >= self.threshold else 0
                         for score in self.gadget_scores]
            return metrics_from(
                confusion_from(decisions, list(self.gadget_labels)))
        return metrics_from(
            confusion_from(list(self.verdicts), list(labels)))

    def case_metrics(self, labels: Sequence[int]) -> Metrics:
        """Metrics over the per-case verdicts (every basis has these)."""
        return metrics_from(
            confusion_from(list(self.verdicts), list(labels)))


@runtime_checkable
class Detector(Protocol):
    """What the matrix needs from an evaluated system.

    ``fit`` is optional — the matrix runner calls it only when the
    adapter defines it (classical scanners are training-free, VUDDY
    consumes only the vulnerable half of the train split).
    """

    name: str

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        """Score/decide every case; aligned with the input order."""
        ...


class FrameworkDetector:
    """A :data:`FRAMEWORKS` entry behind the :class:`Detector` protocol.

    Fitting makes the same extract/encode/train calls as
    ``train_and_evaluate`` — same extraction configuration, same
    ``encode_gadgets`` parameters, same builder and alias binding,
    same batch-size policy — so the resulting weights and test metrics
    are equal on equal seeds.  Prediction extracts the test corpus per
    case (so verdicts can be attributed to programs), re-applies
    corpus-order deduplication to recover the one-shot gadget list,
    and scores that list once; each case's score is the max over its
    gadgets' scores, via a tokens-keyed map so duplicate gadgets share
    their survivor's score by construction.
    """

    def __init__(self, spec: FrameworkSpec | str,
                 scale: Scale | None = None, *, seed: int = 7,
                 threshold: float = 0.5,
                 categories: tuple[str, ...] | None = None,
                 use_spec_categories: bool = True,
                 gadget_kind: str | None = None,
                 name: str | None = None):
        self.spec = FRAMEWORKS[spec] if isinstance(spec, str) else spec
        self.scale = scale if scale is not None else current_scale()
        self.seed = seed
        self.threshold = threshold
        self.kind = gadget_kind or self.spec.gadget_kind
        if categories is not None:
            self.categories: tuple[str, ...] | None = categories
        elif use_spec_categories:
            self.categories = self.spec.categories
        else:
            self.categories = None
        self.name = name if name is not None else self.spec.name
        self._model = None
        self._vocab = None

    def fit(self, cases: Sequence[TestCase], ctx: RunContext) -> None:
        spec, scale, seed = self.spec, self.scale, self.seed
        gadgets = extract_gadgets(cases, self.kind, self.categories,
                                  use_control=spec.use_control,
                                  **ctx.extract_kwargs())
        if not gadgets:
            raise ValueError("no gadgets could be extracted from the "
                             "training corpus")
        dataset = encode_gadgets(gadgets, dim=scale.dim,
                                 w2v_epochs=scale.w2v_epochs, seed=seed,
                                 telemetry=ctx.telemetry)
        model = spec.build_model(len(dataset.vocab), scale,
                                 dataset.word2vec.vectors, seed)
        dataset.bind_embedding_aliases(model)
        # Fixed-length BRNNs batch at 64 (train_and_evaluate's policy).
        batch_size = (64 if spec.builder in (BLSTMNet, BGRUNet)
                      else scale.batch_size)
        train_classifier(model, dataset.samples, epochs=scale.epochs,
                         batch_size=batch_size, lr=scale.learning_rate,
                         seed=seed, telemetry=ctx.telemetry,
                         checkpoint_dir=ctx.checkpoint_dir,
                         resume=ctx.resume)
        self._model = model
        self._vocab = dataset.vocab

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        if self._model is None or self._vocab is None:
            raise RuntimeError(
                f"{self.name}: predict() before fit()")
        config = _make_config(self.kind, self.categories,
                              use_control=self.spec.use_control,
                              keep_gadget=False,
                              case_timeout=ctx.case_timeout)
        per_case = CorpusExtractor(
            config, workers=ctx.workers, cache=ctx.cache,
            quarantine=ctx.quarantine, telemetry=ctx.telemetry,
            retries=ctx.retries).run(cases, failures=ctx.failures)
        # Corpus-order dedup over the per-case stream reconstructs the
        # one-shot extract_gadgets() list exactly, so gadget metrics
        # match the historical serial path byte for byte.
        deduper = GadgetDeduplicator(enabled=True)
        deduped: list[LabeledGadget] = []
        for result in per_case:
            deduped.extend(deduper.filter(result.gadgets))
        gadget_scores: list[float] = []
        score_of: dict[tuple, float] = {}
        if deduped:
            samples = [g.sample(self._vocab) for g in deduped]
            raw = predict_proba(self._model, samples)
            gadget_scores = [float(s) for s in raw]
            score_of = {(g.tokens, g.label): score
                        for g, score in zip(deduped, gadget_scores)}
        verdicts: list[int] = []
        scores: list[float] = []
        for result in per_case:
            case_score = max(
                (score_of[(g.tokens, g.label)] for g in result.gadgets),
                default=0.0)
            scores.append(case_score)
            verdicts.append(1 if case_score >= self.threshold else 0)
        return Prediction(
            detector=self.name, verdicts=verdicts, scores=scores,
            basis="gadget", gadget_scores=gadget_scores,
            gadget_labels=[g.label for g in deduped],
            threshold=self.threshold)


class StaticToolDetector:
    """A classical scanner behind the :class:`Detector` protocol.

    Predictions run inside a telemetry stage (``tool:<name>``) and
    bump a per-tool case counter, so matrix runs can report each
    tool's wall time and cases/sec — ``evaluate_static_tool`` was
    invisible to :class:`~repro.core.telemetry.Telemetry`.
    """

    def __init__(self, tool: StaticTool, name: str | None = None):
        self.tool = tool
        self.name = name if name is not None else tool.name

    def fit(self, cases: Sequence[TestCase], ctx: RunContext) -> None:
        """Feed clone-hash tools their vulnerable reference corpus."""
        add = getattr(self.tool, "add_vulnerable", None)
        if add is None:
            return
        with ctx.telemetry.stage(f"tool_fit:{self.name}"):
            for case in cases:
                if case.vulnerable:
                    add(case.source)

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        verdicts: list[int] = []
        with ctx.telemetry.stage(f"tool:{self.name}"):
            for case in cases:
                verdicts.append(1 if self.tool.flags(case.source) else 0)
                ctx.telemetry.count(f"tool_cases:{self.name}")
        return Prediction(
            detector=self.name, verdicts=verdicts,
            scores=[float(v) for v in verdicts], basis="case")


class FuzzDetector:
    """Coverage-guided fuzzing behind the :class:`Detector` protocol.

    Each case gets a bounded fuzzing campaign; a case whose source the
    fuzzer's frontend cannot parse counts as a clean (0) verdict and a
    ``fuzz_unparsed`` telemetry tick rather than an error — the matrix
    treats detector limitations as misses, not crashes.
    """

    def __init__(self, *, max_execs: int = 150, max_steps: int = 2500,
                 seed: int = 0, name: str = "AFL"):
        self.max_execs = max_execs
        self.max_steps = max_steps
        self.seed = seed
        self.name = name

    def predict(self, cases: Sequence[TestCase],
                ctx: RunContext) -> Prediction:
        verdicts: list[int] = []
        with ctx.telemetry.stage(f"tool:{self.name}"):
            for case in cases:
                try:
                    fuzzer = AFLFuzzer(
                        case.source, max_execs=self.max_execs,
                        max_steps=self.max_steps,
                        seed=derive_seed(self.seed, case.name))
                    report = fuzzer.run()
                    found = bool(report.found_anything)
                except Exception:
                    ctx.telemetry.count("fuzz_unparsed")
                    found = False
                verdicts.append(1 if found else 0)
                ctx.telemetry.count(f"tool_cases:{self.name}")
        return Prediction(
            detector=self.name, verdicts=verdicts,
            scores=[float(v) for v in verdicts], basis="case")


def _static_tools() -> dict[str, object]:
    from ..baselines import (CheckmarxScanner, FlawfinderScanner,
                             RatsScanner, VuddyScanner)

    return {
        "flawfinder": FlawfinderScanner,
        "rats": RatsScanner,
        "checkmarx": CheckmarxScanner,
        "vuddy": VuddyScanner,
    }


def build_detector(name: str, *, scale: Scale | None = None,
                   seed: int = 7, threshold: float = 0.5,
                   fuzz_execs: int = 150,
                   fuzz_steps: int = 2500) -> Detector:
    """Construct a detector by registry name.

    Framework names (``SEVulDet``, ``VulDeePecker``, ``SySeVR``,
    ``BLSTM``, ...) match :data:`FRAMEWORKS` case-insensitively;
    static tools are ``flawfinder``/``rats``/``checkmarx``/``vuddy``;
    the fuzzer is ``afl`` (alias ``fuzzer``).
    """
    key = name.lower()
    for framework_name, spec in FRAMEWORKS.items():
        if framework_name.lower() == key:
            return FrameworkDetector(spec, scale, seed=seed,
                                     threshold=threshold)
    tools = _static_tools()
    if key in tools:
        return StaticToolDetector(tools[key]())
    if key in ("afl", "fuzzer"):
        return FuzzDetector(max_execs=fuzz_execs, max_steps=fuzz_steps,
                            seed=seed)
    known = sorted([*FRAMEWORKS, *tools, "afl"], key=str.lower)
    raise ValueError(f"unknown detector {name!r}; choose from {known}")


#: The acceptance grid: SEVulDet, one BRNN framework, four static
#: tools, and the fuzzer.
DEFAULT_DETECTOR_NAMES = ("SEVulDet", "SySeVR", "flawfinder", "rats",
                         "checkmarx", "vuddy", "afl")


def default_detectors(*, scale: Scale | None = None, seed: int = 7
                      ) -> list[Detector]:
    """Fresh instances of the standard detector lineup."""
    return [build_detector(name, scale=scale, seed=seed)
            for name in DEFAULT_DETECTOR_NAMES]
