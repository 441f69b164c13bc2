"""Classifier training (paper Step V's learning loop).

The generic train loop both the SEVulDet model and the BRNN baselines
share: class-rebalanced sampling, fixed- or bucketed-length batching,
early stopping, and atomic resumable checkpoints.
"""

from __future__ import annotations

import hashlib
import logging
from pathlib import Path
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..nn import (Adam, Module, Sample, bce_with_logits,
                  bucketed_batches, clip_grad_norm,
                  fixed_length_batches)
from ..testing import faults
from .resilience import TrainingCheckpoint
from .score import SCORE_MIN_LENGTH, evaluate_classifier
from .telemetry import Telemetry

__all__ = ["TrainReport", "train_classifier"]

logger = logging.getLogger(__name__)


@dataclass
class TrainReport:
    """Loss trajectory of one training run."""

    losses: list[float] = field(default_factory=list)
    val_f1: list[float] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = -1

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def _train_config_token(params, *, batch_size: int, lr: float,
                        seed: int, n_samples: int, fixed,
                        class_balance: bool) -> str:
    """Fingerprint of everything a resumed run must share with the
    run that wrote the checkpoint (total ``epochs`` is deliberately
    free so a finished run can be extended)."""
    shapes = ",".join(str(tuple(p.data.shape)) for p in params)
    digest = hashlib.sha256(shapes.encode()).hexdigest()[:12]
    return (f"batch={batch_size};lr={lr:g};seed={seed};"
            f"samples={n_samples};fixed={fixed};"
            f"balance={int(class_balance)};params={digest}")


def _param_names(model: Module, params) -> list[str]:
    """Dotted parameter names in optimizer order."""
    by_id = {id(param): name for name, param in model.named_parameters()}
    return [by_id[id(param)] for param in params]


def train_classifier(model: Module, samples: Sequence[Sample], *,
                     epochs: int = 8, batch_size: int = 16,
                     lr: float = 3e-3, seed: int = 0,
                     grad_clip: float = 5.0,
                     class_balance: bool = True,
                     validation: Sequence[Sample] | None = None,
                     patience: int | None = None,
                     telemetry: Telemetry | None = None,
                     checkpoint_dir: str | Path | None = None,
                     checkpoint_every: int = 1,
                     resume: bool = False) -> TrainReport:
    """Train any gadget classifier (fixed- or flexible-length).

    Models advertising ``fixed_length`` get padded/truncated batches
    (Definition 8); flexible models get length-bucketed batches with no
    padding.  With ``class_balance`` the minority class is oversampled
    to a 1:2 ratio, compensating for the gadget-level imbalance the
    paper reports (and chooses not to rebalance at the *data* level —
    we rebalance only the sampling, keeping the data unbalanced).

    With a ``validation`` set and ``patience``, training stops when
    validation F1 has not improved for ``patience`` consecutive epochs
    and the best-epoch weights are restored (early stopping).

    With a ``checkpoint_dir``, an atomic checkpoint (weights, Adam
    moments, RNG state, loss/early-stopping trajectory) is written
    every ``checkpoint_every`` completed epochs; ``resume=True`` picks
    training back up from the last checkpoint and — because the RNG
    and optimizer state are restored exactly — finishes with the same
    weights an uninterrupted run would have produced.  Resuming under
    different hyper-parameters raises ``ValueError`` instead of
    silently diverging.

    ``telemetry`` accumulates the ``train`` / ``train-epoch`` stage
    timings, ``train_batches`` / ``train_samples`` counters, and
    ``checkpoint_writes`` / ``checkpoint_resumes`` recovery counters.
    """
    import time

    rng = np.random.default_rng(seed)
    fixed = getattr(model, "fixed_length", None)
    train_samples = list(samples)
    if class_balance:
        train_samples = _oversample(train_samples, rng)
    params = list(model.parameters())
    optimizer = Adam(params, lr=lr)
    report = TrainReport()
    best_f1 = -1.0
    best_state: dict[str, np.ndarray] | None = None
    stale = 0
    start_epoch = 0

    checkpoint = (TrainingCheckpoint(checkpoint_dir)
                  if checkpoint_dir is not None else None)
    token = _train_config_token(
        params, batch_size=batch_size, lr=lr, seed=seed,
        n_samples=len(samples), fixed=fixed,
        class_balance=class_balance)
    if checkpoint is not None and resume:
        state = checkpoint.load(config_token=token)
        if state is not None:
            model.load_state_dict(state.model_state)
            optimizer.load_state_dict(state.optim_state)
            rng.bit_generator.state = state.rng_state
            if state.model_rng_states and hasattr(model,
                                                  "load_rng_states"):
                model.load_rng_states(state.model_rng_states)
            report.losses = list(state.losses)
            report.val_f1 = list(state.val_f1)
            report.best_epoch = state.best_epoch
            best_f1 = state.best_f1
            best_state = state.best_state
            stale = state.stale
            start_epoch = state.next_epoch
            if telemetry is not None:
                telemetry.count("checkpoint_resumes")
            logger.info("train_classifier: resumed from %s at epoch "
                        "%d", checkpoint.path, start_epoch)

    model.train()
    train_start = time.perf_counter()
    for epoch in range(start_epoch, epochs):
        epoch_start = time.perf_counter()
        epoch_losses: list[float] = []
        epoch_samples = 0
        if fixed is not None:
            batches = fixed_length_batches(train_samples, fixed,
                                           batch_size, rng)
        else:
            batches = bucketed_batches(train_samples, batch_size, rng,
                                       min_length=SCORE_MIN_LENGTH)
        for batch_index, (ids, labels) in enumerate(batches):
            faults.fire("train-batch", f"{epoch}.{batch_index}")
            optimizer.zero_grad()
            logits = model(ids)
            loss = bce_with_logits(logits, labels)
            loss.backward()
            clip_grad_norm(params, grad_clip)
            optimizer.step()
            epoch_losses.append(float(loss.data))
            epoch_samples += len(labels)
        report.losses.append(float(np.mean(epoch_losses))
                             if epoch_losses else float("nan"))
        if telemetry is not None:
            telemetry.add_stage("train-epoch",
                                time.perf_counter() - epoch_start)
            telemetry.count("train_batches", len(epoch_losses))
            telemetry.count("train_samples", epoch_samples)
        should_stop = False
        if validation is not None:
            metrics = evaluate_classifier(model, validation)
            model.train()
            report.val_f1.append(metrics.f1)
            if metrics.f1 > best_f1:
                best_f1 = metrics.f1
                best_state = {key: value.copy() for key, value
                              in model.state_dict().items()}
                report.best_epoch = len(report.losses) - 1
                stale = 0
            else:
                stale += 1
                if patience is not None and stale >= patience:
                    should_stop = True
        if checkpoint is not None and (
                (epoch + 1) % checkpoint_every == 0
                or should_stop or epoch == epochs - 1):
            checkpoint.save(
                epoch=epoch, model=model, optimizer=optimizer,
                rng=rng, losses=report.losses, val_f1=report.val_f1,
                best_epoch=report.best_epoch, best_f1=best_f1,
                stale=stale, best_state=best_state,
                config_token=token,
                param_names=_param_names(model, params))
            if telemetry is not None:
                telemetry.count("checkpoint_writes")
        if should_stop:
            report.stopped_early = True
            break
    if telemetry is not None:
        telemetry.add_stage("train",
                            time.perf_counter() - train_start)
    if best_state is not None:
        model.load_state_dict(best_state)
    model.eval()
    return report


def _oversample(samples: list[Sample],
                rng: np.random.Generator) -> list[Sample]:
    positives = [s for s in samples if s.label == 1]
    negatives = [s for s in samples if s.label == 0]
    if not positives or not negatives:
        return samples
    minority, majority = ((positives, negatives)
                          if len(positives) < len(negatives)
                          else (negatives, positives))
    target = max(len(majority) // 2, len(minority))
    extra = target - len(minority)
    if extra <= 0:
        return samples
    picks = rng.integers(0, len(minority), size=extra)
    return samples + [minority[int(i)] for i in picks]
