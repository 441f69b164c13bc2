"""The detectors × datasets benchmark matrix.

:class:`MatrixRunner` executes every (detector, dataset) cell of a
grid, computes :class:`~repro.eval.metrics.Metrics` per cell, runs
paired-bootstrap significance against a chosen baseline detector per
dataset, and emits one leaderboard (text + markdown via
:class:`~repro.eval.report.Table`) plus a stable JSON artifact for
regression tracking.

Design points the table benchmarks and CI rely on:

* **Cells are independent and resumable.**  Each finished cell is
  written atomically to ``<out>/cells/<detector>__<dataset>.json``;
  a rerun with ``resume=True`` loads finished cells instead of
  recomputing them.  Significance is recomputed from stored verdicts,
  so a resumed grid reports the same comparisons as a fresh one.
* **Failures are cell errors, not aborts.**  A detector that blows up
  on one dataset yields an ``error`` cell; the rest of the grid runs.
* **One dataset split per dataset, shared across detectors.**  The
  paired bootstrap requires verdict vectors aligned on the *same*
  test cases, so the dataset is loaded once per grid seed and every
  detector in that column predicts on the identical split.
* **Per-cell seeds.**  Detectors built from registry names get a seed
  derived from (grid seed, detector, dataset), so each cell's
  randomness is independent yet reproducible.  Caller-supplied
  detector instances/factories keep their own seeds — that is how the
  table benchmarks pin the historical seeds for parity checks.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..core.context import RunContext
from ..datasets.adapters import DatasetAdapter, DatasetSplit, derive_seed
from ..datasets.manifest import TestCase
from .detector import Detector, Prediction, build_detector
from .metrics import Metrics
from .report import Table, atomic_write_text
from .significance import paired_bootstrap

__all__ = ["MatrixCell", "MatrixResult", "MatrixRunner", "run_matrix"]

#: Bump when the cell JSON layout changes; resume ignores other versions.
CELL_SCHEMA = 1


@dataclass
class MatrixCell:
    """One (detector, dataset) evaluation outcome."""

    detector: str
    dataset: str
    status: str = "ok"  # 'ok' | 'error'
    basis: str = "case"
    metrics: Metrics | None = None
    case_metrics: Metrics | None = None
    verdicts: list[int] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    gadgets: int = 0
    seconds: float = 0.0
    error: str | None = None
    significance: dict | None = None  # vs the dataset baseline

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        payload = {
            "schema": CELL_SCHEMA,
            "detector": self.detector,
            "dataset": self.dataset,
            "status": self.status,
            "basis": self.basis,
            "metrics": asdict(self.metrics) if self.metrics else None,
            "case_metrics": (asdict(self.case_metrics)
                             if self.case_metrics else None),
            "verdicts": self.verdicts,
            "labels": self.labels,
            "gadgets": self.gadgets,
            "error": self.error,
        }
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "MatrixCell":
        def metrics(value):
            return Metrics(**value) if value else None

        return cls(
            detector=payload["detector"], dataset=payload["dataset"],
            status=payload["status"], basis=payload["basis"],
            metrics=metrics(payload.get("metrics")),
            case_metrics=metrics(payload.get("case_metrics")),
            verdicts=list(payload.get("verdicts", [])),
            labels=list(payload.get("labels", [])),
            gadgets=int(payload.get("gadgets", 0)),
            error=payload.get("error"))


@dataclass
class MatrixResult:
    """The full grid outcome."""

    cells: list[MatrixCell]
    baseline: str
    seed: int
    dataset_summaries: list[dict] = field(default_factory=list)

    def cell(self, detector: str, dataset: str) -> MatrixCell:
        """Look up one cell (detector name matched case-insensitively)."""
        for cell in self.cells:
            if (cell.detector.lower() == detector.lower()
                    and cell.dataset == dataset):
                return cell
        raise KeyError(f"no cell ({detector!r}, {dataset!r})")

    def leaderboard(self) -> Table:
        """One row per cell, ranked by F1 within each dataset."""
        table = Table(
            "matrix_leaderboard",
            f"Benchmark matrix (baseline: {self.baseline}, "
            f"seed {self.seed})")
        ordered = sorted(
            self.cells,
            key=lambda c: (c.dataset,
                           -(c.metrics.f1 if c.ok and c.metrics
                             else -1.0)))
        for cell in ordered:
            if not cell.ok:
                table.add(dataset=cell.dataset, detector=cell.detector,
                          basis="-",
                          **{key: "-" for key in
                             ("FPR(%)", "FNR(%)", "A(%)", "P(%)",
                              "F1(%)")},
                          dF1="-", p="-", sig="-",
                          note=f"error: {cell.error}")
                continue
            sig = cell.significance or {}
            table.add(
                dataset=cell.dataset, detector=cell.detector,
                basis=cell.basis,
                **cell.metrics.as_percentages(),
                dF1=(round(sig["delta"], 3)
                     if "delta" in sig else "-"),
                p=(round(sig["p_value"], 3)
                   if "p_value" in sig else "-"),
                sig=("yes" if sig.get("significant") else "no")
                if sig else "-",
                note="baseline"
                if cell.detector.lower() == self.baseline.lower()
                else "")
        return table

    def to_json(self) -> dict:
        """Stable artifact: cells first (regression-tracked), then
        environment facts that may drift (timings)."""
        return {
            "schema": CELL_SCHEMA,
            "baseline": self.baseline,
            "seed": self.seed,
            "datasets": self.dataset_summaries,
            "cells": [
                {**cell.to_json(),
                 "significance": cell.significance}
                for cell in self.cells
            ],
            "timing": {
                f"{cell.detector}__{cell.dataset}":
                    round(cell.seconds, 3)
                for cell in self.cells
            },
        }


def _cell_path(out_dir: Path, detector: str, dataset: str) -> Path:
    # Lowercased so registry names ('flawfinder') and display names
    # ('Flawfinder') address the same artifact across resumes.
    safe = f"{detector}__{dataset}".lower().replace("/", "_")
    return out_dir / "cells" / f"{safe}.json"


class MatrixRunner:
    """Execute a detectors × datasets grid.

    Args:
        detectors: detector sources — registry names (fresh instance
            per cell, with a per-cell derived seed), zero-argument
            factories (called once per cell), or ready instances
            (refit per cell; avoid instances whose ``fit`` accumulates
            state across calls, like VUDDY's reference corpus).
        datasets: the dataset adapters (columns).
        baseline: detector *name* significance is computed against,
            per dataset.
        ctx: shared :class:`RunContext`; one context across all cells
            shares the gadget caches, quarantine, and telemetry.
        out_dir: artifact directory (leaderboard, JSON, cell files);
            None disables persistence (and resume).
        resume: load finished cell files instead of recomputing.
        resamples: bootstrap iterations (0 degrades gracefully to
            point estimates, see ``paired_bootstrap``).
    """

    def __init__(self, detectors: Sequence, datasets: Sequence[DatasetAdapter],
                 *, baseline: str = "flawfinder", seed: int = 7,
                 ctx: RunContext | None = None,
                 out_dir: str | Path | None = None, resume: bool = True,
                 resamples: int = 500,
                 progress: Callable[[str], None] | None = None):
        self.detectors = list(detectors)
        self.datasets = list(datasets)
        self.baseline = baseline
        self.seed = seed
        self.ctx = ctx if ctx is not None else RunContext.create()
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.resume = resume
        self.resamples = resamples
        self.progress = progress or (lambda message: None)

    # -- detector construction -------------------------------------

    def _detector_name(self, source) -> str:
        if isinstance(source, str):
            return source
        name = getattr(source, "name", None)
        if isinstance(name, str):
            return name
        # Bare factory without a .name attribute: build one just to
        # read the name (adapters are cheap to construct).
        return source().name

    def _make_detector(self, source, dataset_name: str) -> Detector:
        if isinstance(source, str):
            return build_detector(
                source,
                seed=derive_seed(self.seed, "cell", source,
                                 dataset_name))
        if callable(source) and not hasattr(source, "predict"):
            return source()
        return source

    # -- cell execution --------------------------------------------

    def _load_cached(self, detector: str, dataset: str
                     ) -> MatrixCell | None:
        if self.out_dir is None or not self.resume:
            return None
        path = _cell_path(self.out_dir, detector, dataset)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if payload.get("schema") != CELL_SCHEMA:
            return None
        cell = MatrixCell.from_json(payload)
        cell.seconds = 0.0  # cached; not this run's time
        return cell

    def _save_cell(self, cell: MatrixCell) -> None:
        if self.out_dir is None:
            return
        atomic_write_text(
            _cell_path(self.out_dir, cell.detector, cell.dataset),
            json.dumps(cell.to_json(), indent=2, sort_keys=True))

    def _run_cell(self, source, split: DatasetSplit) -> MatrixCell:
        name = self._detector_name(source)
        cached = self._load_cached(name, split.name)
        if cached is not None:
            self.progress(f"cell {name} × {split.name}: cached")
            return cached
        self.progress(f"cell {name} × {split.name}: running")
        labels = [1 if case.vulnerable else 0 for case in split.test]
        started = time.perf_counter()
        try:
            detector = self._make_detector(source, split.name)
            fit = getattr(detector, "fit", None)
            with self.ctx.telemetry.stage(
                    f"cell:{name}:{split.name}"):
                if fit is not None:
                    fit(split.train, self.ctx)
                prediction: Prediction = detector.predict(
                    split.test, self.ctx)
            cell = MatrixCell(
                detector=detector.name, dataset=split.name,
                basis=prediction.basis,
                metrics=prediction.metrics(labels),
                case_metrics=prediction.case_metrics(labels),
                verdicts=list(prediction.verdicts), labels=labels,
                gadgets=len(prediction.gadget_labels or ()),
                seconds=time.perf_counter() - started)
        except Exception as error:
            cell = MatrixCell(
                detector=name, dataset=split.name, status="error",
                labels=labels, error=f"{type(error).__name__}: {error}",
                seconds=time.perf_counter() - started)
        self._save_cell(cell)
        return cell

    # -- significance ----------------------------------------------

    def _attach_significance(self, cells: list[MatrixCell]) -> None:
        """Paired bootstrap of every cell vs its dataset's baseline.

        Runs over the per-case verdict vectors (the one granularity
        all detector families share).  Recomputed for cached cells
        too, so resumed grids report identical comparisons.
        """
        by_dataset: dict[str, list[MatrixCell]] = {}
        for cell in cells:
            by_dataset.setdefault(cell.dataset, []).append(cell)
        wanted = self.baseline.lower()
        for dataset, column in by_dataset.items():
            base = next((c for c in column
                         if c.detector.lower() == wanted and c.ok),
                        None)
            if base is None or not base.verdicts:
                continue
            for cell in column:
                if not cell.ok or not cell.verdicts:
                    continue
                if len(cell.verdicts) != len(base.verdicts):
                    continue
                comparison = paired_bootstrap(
                    [float(v) for v in cell.verdicts],
                    [float(v) for v in base.verdicts],
                    cell.labels, threshold=0.5,
                    resamples=self.resamples,
                    seed=derive_seed(self.seed, "bootstrap",
                                     cell.detector, dataset))
                cell.significance = {
                    "baseline": self.baseline,
                    "f1": comparison.f1_a,
                    "f1_baseline": comparison.f1_b,
                    "delta": comparison.delta,
                    "p_value": comparison.p_value,
                    "wins": comparison.wins,
                    "ci_low": comparison.ci_low,
                    "ci_high": comparison.ci_high,
                    "significant": comparison.significant,
                    "resamples": self.resamples,
                }

    # -- the grid ---------------------------------------------------

    def run(self) -> MatrixResult:
        cells: list[MatrixCell] = []
        summaries: list[dict] = []
        for adapter in self.datasets:
            self.progress(f"dataset {adapter.name}: loading")
            split = adapter.load(self.seed)
            summaries.append(split.summary())
            for source in self.detectors:
                cells.append(self._run_cell(source, split))
        self._attach_significance(cells)
        result = MatrixResult(cells=cells, baseline=self.baseline,
                              seed=self.seed,
                              dataset_summaries=summaries)
        if self.out_dir is not None:
            table = result.leaderboard()
            table.save(self.out_dir)
            table.save_markdown(self.out_dir)
            atomic_write_text(
                self.out_dir / "matrix.json",
                json.dumps(result.to_json(), indent=2, sort_keys=True))
        return result


def run_matrix(detectors: Sequence, datasets: Sequence[DatasetAdapter],
               **kwargs) -> MatrixResult:
    """One-call convenience over :class:`MatrixRunner`."""
    return MatrixRunner(detectors, datasets, **kwargs).run()
