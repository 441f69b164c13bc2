"""Model parameter persistence (npz archives).

All writes are atomic: the archive is assembled in a sibling temp file
that is renamed over the destination, so a crash mid-save (or two
processes racing on the same path) leaves either the old complete file
or the new complete file — never a torn archive.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .layers import Module

__all__ = ["save_npz_atomic", "save_model", "load_model"]


def save_npz_atomic(path: str | Path, arrays: dict,
                    metadata: dict | None = None) -> None:
    """Write an ``.npz`` of ``arrays`` (+ JSON metadata) atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(arrays)
    if metadata is not None:
        payload["__metadata__"] = np.frombuffer(
            json.dumps(metadata).encode(), dtype=np.uint8)
    temp = path.with_name(path.name + ".tmp")
    # savez appends '.npz' to bare names but honors open file handles,
    # which also lets the rename target keep its exact spelling
    with temp.open("wb") as handle:
        np.savez(handle, **payload)
    temp.replace(path)


def save_model(model: Module, path: str | Path,
               metadata: dict | None = None) -> None:
    """Save all parameters (and optional JSON metadata) to ``path``."""
    save_npz_atomic(path, model.state_dict(), metadata)


def load_model(model: Module, path: str | Path) -> dict:
    """Load parameters into ``model``; returns saved metadata (or {}).

    Archives written by :func:`save_model` are keyed by dotted
    parameter names (``fc1.weight``); ``load_state_dict`` raises
    ``KeyError`` naming any parameter the archive lacks.
    """
    path = Path(path)
    with np.load(path) as archive:
        metadata = {}
        state = {}
        for key in archive.files:
            if key == "__metadata__":
                metadata = json.loads(archive[key].tobytes().decode())
            else:
                state[key] = archive[key]
    model.load_state_dict(state)
    return metadata
