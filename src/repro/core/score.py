"""Classifier scoring (inference side of paper Step V).

Shared by training-time evaluation, the detector's findings path, and
the batched scan service — all of which must agree on the padding
contract (:data:`SCORE_MIN_LENGTH`) or scores drift between paths.
A flexible-length model scores ragged packs (:func:`pack_rows`), and
a row's score depends only on its own ids, so any batcher that keeps
the contract gets bitwise the same scores — and a row that repeats
(Step III normalizes many gadgets to the same tokens) is scored once
(:func:`distinct_rows`) and its score copied to every repeat.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..eval.metrics import Metrics, confusion_from, metrics_from
from ..nn import Module, Sample, get_default_dtype, no_grad, pad_or_truncate
from ..nn.data import PAD_ID

__all__ = ["SCORE_MIN_LENGTH", "output_dtype", "distinct_rows",
           "pack_rows", "predict_proba", "evaluate_classifier"]

#: Minimum padded sample length fed to the flexible-length model: the
#: conv kernel (3) plus SPP need a floor, and padding to it is part of
#: the scoring contract — any batcher (training, predict_proba, the
#: scan service) must pad with the same floor or scores drift.
SCORE_MIN_LENGTH = 4


def output_dtype(model: Module) -> np.dtype:
    """The dtype ``model.predict_proba`` emits — its weights' dtype
    (the fused kernel's compute dtype follows the weights), falling
    back to the session default for a parameterless model."""
    for param in model.parameters():
        return param.data.dtype
    return get_default_dtype()


def distinct_rows(rows: Sequence[Sequence[int]]
                  ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct token-id rows in first-seen order, plus the
    ``(len(rows),)`` index of each row's copy among them, so
    ``distinct[inverse[i]] == tuple(rows[i])``.

    A flexible-length model's score for a row depends on its ids
    alone, so scoring ``distinct`` and taking ``scores[inverse]`` is
    bitwise the same as scoring every row.
    """
    slots: dict[tuple[int, ...], int] = {}
    inverse = [slots.setdefault(tuple(row), len(slots)) for row in rows]
    return list(slots), np.array(inverse, dtype=np.intp)


def pack_rows(rows: Sequence[Sequence[int]]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Token-id rows of mixed lengths -> one ragged pack: ``(B, T)``
    ids right-padded with ``PAD_ID`` plus ``(B,)`` row lengths.

    A row shorter than :data:`SCORE_MIN_LENGTH` counts as padded up to
    it (the scoring contract), so its length is the floor.
    """
    lengths = np.array([max(len(row), SCORE_MIN_LENGTH) for row in rows],
                       dtype=np.int64)
    ids = np.full((len(rows), lengths.max(initial=SCORE_MIN_LENGTH)),
                  PAD_ID, dtype=np.int64)
    for out, row in zip(ids, rows):
        out[:len(row)] = row
    return ids, lengths


def predict_proba(model: Module, samples: Sequence[Sample],
                  batch_size: int = 128) -> np.ndarray:
    """Sigmoid scores per sample (order-preserving).

    Inference runs under ``no_grad`` in chunks of ``batch_size`` rows
    taken in corpus order.  A flexible-length model scores each
    distinct row once (:func:`distinct_rows`), each chunk as one
    ragged pack whatever its lengths, and every sample gets its row's
    score.  A fixed-length model gets Definition 8's padded/truncated
    rows, every sample scored.  The accumulator is allocated in the
    model's own output dtype (:func:`output_dtype`), so scores are not
    up-cast per batch.
    """
    fixed = getattr(model, "fixed_length", None)
    if fixed is None:
        rows, inverse = distinct_rows([s.token_ids for s in samples])
    else:
        rows = [pad_or_truncate(s.token_ids, fixed) for s in samples]
    scores = np.zeros(len(rows), dtype=output_dtype(model))
    model.eval()
    with no_grad():
        for start in range(0, len(rows), batch_size):
            chunk = rows[start : start + batch_size]
            if fixed is not None:
                scores[start : start + batch_size] = model.predict_proba(
                    np.array(chunk, dtype=np.int64))
            else:
                scores[start : start + batch_size] = model.predict_proba(
                    *pack_rows(chunk))
    return scores if fixed is not None else scores[inverse]


def evaluate_classifier(model: Module, samples: Sequence[Sample],
                        threshold: float = 0.5) -> Metrics:
    """Confusion-matrix metrics at a decision threshold."""
    scores = predict_proba(model, samples)
    predictions = (scores >= threshold).astype(int)
    labels = [sample.label for sample in samples]
    return metrics_from(confusion_from(predictions.tolist(), labels))
