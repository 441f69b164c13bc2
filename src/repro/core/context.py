"""Run-wide services and fault budget for one logical run.

A fit, an extraction sweep, or a cross-validation protocol reads its
gadget cache, quarantine, telemetry, checkpoint directory, and fault
budget (case timeout, worker count, retries) from one
:class:`RunContext` instead of five loose keyword arguments threaded
through every call.  The paper's Fig 2 flow is then a straight line of
direct calls::

    ctx = RunContext.create(cache=cache_dir, workers=4)
    gadgets = extract_gadgets(cases, kind, **ctx.extract_kwargs())
    dataset = encode_gadgets(gadgets, dim=30, telemetry=ctx.telemetry)
    report = train_classifier(model, dataset.samples,
                              telemetry=ctx.telemetry, ...)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .extract import _coerce_cache
from .resilience import CaseFailure, Quarantine, coerce_quarantine
from .telemetry import Telemetry

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """Run-wide services and fault budget, shared by every step.

    Failure records accumulate on the context, and sharing one context
    across several calls (e.g. per-cell extraction in the evaluation
    matrix) shares the warm cache and the accumulated counters.

    Build instances with :meth:`create`, which coerces the convenience
    forms (cache directory path, quarantine JSONL path) the CLI deals
    in; the raw constructor expects already-coerced objects.
    """

    cache: Any = None  # GadgetCache | None
    quarantine: Quarantine | None = None
    telemetry: Telemetry = field(default_factory=Telemetry)
    checkpoint_dir: Path | None = None
    case_timeout: float | None = None
    workers: int = 0
    retries: int = 1
    resume: bool = False
    failures: list[CaseFailure] = field(default_factory=list)

    @classmethod
    def create(cls, *, cache=None, quarantine=None,
               telemetry: Telemetry | None = None,
               checkpoint_dir: str | Path | None = None,
               case_timeout: float | None = None, workers: int = 0,
               retries: int = 1, resume: bool = False,
               failures: list[CaseFailure] | None = None
               ) -> "RunContext":
        """Coercing constructor: accepts a cache directory path for
        ``cache``, a JSONL path for ``quarantine``, and None for
        ``telemetry``/``failures`` (fresh instances are made)."""
        return cls(
            cache=_coerce_cache(cache),
            quarantine=coerce_quarantine(quarantine),
            telemetry=telemetry if telemetry is not None else Telemetry(),
            checkpoint_dir=(Path(checkpoint_dir)
                            if checkpoint_dir is not None else None),
            case_timeout=case_timeout,
            workers=workers,
            retries=retries,
            resume=resume,
            failures=failures if failures is not None else [])

    def extract_kwargs(self) -> dict[str, Any]:
        """The context's share of
        :func:`~repro.core.extract.extract_gadgets`'s keyword
        arguments: cache, quarantine, telemetry, fault budget, and the
        failure list that receives one record per skipped case."""
        return {"workers": self.workers, "cache": self.cache,
                "telemetry": self.telemetry,
                "case_timeout": self.case_timeout,
                "retries": self.retries, "quarantine": self.quarantine,
                "failures": self.failures}
