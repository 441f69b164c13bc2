"""Global floating-point dtype policy for the numpy framework.

Training and inference default to float32: every Tensor, gradient,
optimizer moment buffer, and batch of labels is created in the default
dtype, halving the memory bandwidth of every kernel relative to
numpy's float64 default.  Numerical-gradient tests pin float64 (central
differences with eps=1e-6 need ~15 significant digits) via
:func:`set_default_dtype`, and ``REPRO_DTYPE=float64`` in the
environment restores the old behavior process-wide.

Persisted archives are dtype-agnostic: ``load_state_dict`` casts
whatever was saved into the active default, so a float64-trained model
loads cleanly into a float32 session and vice versa.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np
from contextlib import contextmanager

__all__ = ["get_default_dtype", "set_default_dtype", "default_dtype"]

_ALLOWED = (np.float32, np.float64)


def _coerce(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in [np.dtype(d) for d in _ALLOWED]:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; choose float32 or "
            f"float64")
    return resolved


_DEFAULT_DTYPE = _coerce(os.environ.get("REPRO_DTYPE", "float32"))


def get_default_dtype() -> np.dtype:
    """The dtype new tensors/gradients/buffers are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the global compute dtype; returns the previous one."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _coerce(dtype)
    return previous


@contextmanager
def default_dtype(dtype) -> Iterator[np.dtype]:
    """Context manager scoping :func:`set_default_dtype`."""
    previous = set_default_dtype(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        set_default_dtype(previous)
