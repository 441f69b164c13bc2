"""Batching utilities for token-id sequences.

Flexible-length models (SEVulDet) batch sequences *bucketed by length*
so no padding or truncation is ever applied — the property the paper's
SPP design exists to preserve.  Fixed-length models (the BRNN baselines)
use :func:`pad_or_truncate`, reproducing Definition 8's
``C_f`` construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dtype import get_default_dtype

__all__ = ["Sample", "pad_or_truncate", "fixed_length_batches",
           "bucketed_batches"]

PAD_ID = 0


@dataclass(frozen=True)
class Sample:
    """One training sample: token ids plus a binary label."""

    token_ids: tuple[int, ...]
    label: int

    def __len__(self) -> int:
        return len(self.token_ids)


def pad_or_truncate(token_ids: Sequence[int], length: int,
                    pad_id: int = PAD_ID) -> list[int]:
    """Definition 8: truncate past ``length`` or zero-pad up to it."""
    ids = list(token_ids[:length])
    if len(ids) < length:
        ids.extend([pad_id] * (length - len(ids)))
    return ids


def fixed_length_batches(
    samples: Sequence[Sample], length: int, batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (ids (B, length), labels (B,)) with shuffling."""
    order = np.arange(len(samples))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        ids = np.array([pad_or_truncate(samples[i].token_ids, length)
                        for i in chunk], dtype=np.int64)
        labels = np.array([samples[i].label for i in chunk],
                          dtype=get_default_dtype())
        yield ids, labels


def bucketed_batches(
    samples: Sequence[Sample], batch_size: int,
    rng: np.random.Generator | None = None,
    min_length: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield same-length batches without padding or truncation.

    Samples are grouped by exact length; batches are emitted per group.
    Sequences shorter than ``min_length`` are padded up to it (a
    convolution kernel still needs a minimum support), which for the
    default of 1 never triggers.
    """
    buckets: dict[int, list[int]] = {}
    for index, sample in enumerate(samples):
        length = max(len(sample), min_length)
        buckets.setdefault(length, []).append(index)
    lengths = sorted(buckets)
    if rng is not None:
        rng.shuffle(lengths)
    for length in lengths:
        indices = buckets[length]
        if rng is not None:
            rng.shuffle(indices)
        for start in range(0, len(indices), batch_size):
            chunk = indices[start : start + batch_size]
            ids = np.array(
                [pad_or_truncate(samples[i].token_ids, length)
                 for i in chunk], dtype=np.int64)
            labels = np.array([samples[i].label for i in chunk],
                              dtype=get_default_dtype())
            yield ids, labels
