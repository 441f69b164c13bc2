"""Convolution and pooling primitives for 1-D sequence models.

SEVulDet treats a gadget as a 1-D token sequence whose "image" is
``(channels, length)``; convolution kernels span the full embedding
width (paper Step V), so everything here operates on tensors shaped
``(batch, channels, length)``.
"""

from __future__ import annotations

import numpy as np

from .dtype import get_default_dtype
from .tensor import Tensor, tiled_matmul

__all__ = ["conv1d", "max_pool1d", "avg_pool1d",
           "adaptive_max_pool1d", "adaptive_avg_pool1d",
           "stable_sigmoid"]


def stable_sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on a raw ndarray, dtype-aware.

    The classic ``1 / (1 + exp(-clip(z, -500, 500)))`` overflows under
    float32, whose ``exp`` is only finite up to ~88: ``exp(500)`` emits
    a RuntimeWarning and relies on ``1 / inf == 0`` propagation.  Here
    the sign branch guarantees only ``exp`` of non-positive arguments
    is ever taken, and the magnitude is additionally clipped to the
    finite ``exp`` range of the array's own float dtype, so no
    floating-point warning can fire even under
    ``np.errstate(over="raise", invalid="raise")``.
    """
    data = np.asarray(logits)
    if data.dtype.kind != "f":
        data = data.astype(get_default_dtype())
    limit = float(np.log(np.finfo(data.dtype).max))
    exp_neg = np.exp(-np.minimum(np.abs(data), limit))  # in (0, 1]
    return np.where(data >= 0,
                    1.0 / (1.0 + exp_neg),
                    exp_neg / (1.0 + exp_neg))


def _im2col(data: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """(B, C, L) -> (B, out_len, kernel*C) patch matrix, offset-major:
    column ``j * C + c`` holds channel ``c`` at window offset ``j``, so
    a patch is ``kernel`` consecutive positions' channel vectors — one
    contiguous run in a positions-major buffer (what the fused
    kernel's ragged convolution copies)."""
    batch, channels, length = data.shape
    out_len = (length - kernel) // stride + 1
    stride_b, stride_c, stride_l = data.strides
    patches = np.lib.stride_tricks.as_strided(
        data,
        shape=(batch, out_len, kernel, channels),
        strides=(stride_b, stride_l * stride, stride_l, stride_c),
        writeable=False,
    )
    return patches.reshape(batch, out_len, kernel * channels)


def _offset_major(weight: np.ndarray) -> np.ndarray:
    """(O, C, kernel) conv weight -> (O, kernel*C), the column order of
    :func:`_im2col`'s patches."""
    out_channels = weight.shape[0]
    return weight.transpose(0, 2, 1).reshape(out_channels, -1)


def _window_view(data: np.ndarray, kernel: int,
                 stride: int) -> np.ndarray:
    """(B, C, L) -> read-only (B, C, out_len, kernel) sliding windows.

    A zero-copy ``as_strided`` view: reductions over the last axis
    implement pooling without materializing the ``np.stack`` of
    windows the old kernels built per batch.
    """
    batch, channels, length = data.shape
    out_len = (length - kernel) // stride + 1
    stride_b, stride_c, stride_l = data.strides
    return np.lib.stride_tricks.as_strided(
        data,
        shape=(batch, channels, out_len, kernel),
        strides=(stride_b, stride_c, stride_l * stride, stride_l),
        writeable=False,
    )


def _col2im_add(grad_x: np.ndarray, grad_windows: np.ndarray,
                kernel: int, stride: int) -> None:
    """Scatter-accumulate (B, C, out_len, kernel) window gradients
    back onto (B, C, L) ``grad_x`` in place.

    Loops over the kernel offset (a handful of iterations) instead of
    every output position: for a fixed offset each position writes a
    distinct strided location, so the add is one vectorized slice
    assignment.  Offsets run high-to-low so every input element
    accumulates its overlapping contributions in ascending-position
    order — bit-identical to the old per-position Python loop.
    """
    out_len = grad_windows.shape[2]
    span = (out_len - 1) * stride + 1
    for offset in reversed(range(kernel)):
        grad_x[:, :, offset : offset + span : stride] += \
            grad_windows[:, :, :, offset]


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation.

    Args:
        x: input of shape (batch, in_channels, length).
        weight: kernels of shape (out_channels, in_channels, kernel).
        bias: optional (out_channels,).
        stride: hop between applications.
        padding: symmetric zero padding on the length axis.

    Returns:
        Tensor of shape (batch, out_channels, out_length).
    """
    if padding > 0:
        x = x.pad1d(padding, padding)
    batch, in_channels, length = x.shape
    out_channels, w_in, kernel = weight.shape
    if w_in != in_channels:
        raise ValueError(f"channel mismatch: input {in_channels}, "
                         f"weight {w_in}")
    if length < kernel:
        raise ValueError(f"input length {length} shorter than kernel "
                         f"{kernel}; pad the input")
    out_len = (length - kernel) // stride + 1

    cols = _im2col(x.data, kernel, stride)  # (B, out_len, k*C)
    w_flat = _offset_major(weight.data)  # (O, k*C)
    # one patch per product row, so a position's output never depends
    # on the batch; (B, out_len, O) viewed as (B, O, out_len)
    out_data = tiled_matmul(cols, w_flat.T).transpose(0, 2, 1)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        # grad: (B, O, out_len)
        if weight.requires_grad:
            grad_w = np.einsum("bco,bok->ck", grad, cols, optimize=True)
            weight._accumulate(grad_w.reshape(
                out_channels, kernel, in_channels).transpose(0, 2, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.einsum("bco,ck->bok", grad, w_flat,
                                  optimize=True)
            grad_cols = grad_cols.reshape(batch, out_len, kernel,
                                          in_channels)
            grad_x = np.zeros((batch, in_channels, length),
                              dtype=grad.dtype)
            _col2im_add(grad_x, grad_cols.transpose(0, 3, 1, 2),
                        kernel, stride)
            x._accumulate(grad_x)

    probe = Tensor(0.0)
    return probe._make(out_data, tuple(parents), backward)


def max_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over the length axis of (B, C, L)."""
    stride = stride or kernel
    batch, channels, length = x.shape
    out_len = max((length - kernel) // stride + 1, 0)
    if out_len == 0:
        raise ValueError(f"input length {length} shorter than pooling "
                         f"window {kernel}")
    windows = _window_view(x.data, kernel, stride)  # (B, C, out_len, k)
    out_data = windows.max(axis=3)
    arg = windows.argmax(axis=3)  # (B, C, out_len)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        b_idx, c_idx, p_idx = np.indices(arg.shape)
        positions = p_idx * stride + arg
        np.add.at(grad_x, (b_idx, c_idx, positions), grad)
        x._accumulate(grad_x)

    probe = Tensor(0.0)
    return probe._make(out_data, (x,), backward)


def avg_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over the length axis of (B, C, L)."""
    stride = stride or kernel
    batch, channels, length = x.shape
    out_len = max((length - kernel) // stride + 1, 0)
    if out_len == 0:
        raise ValueError(f"input length {length} shorter than pooling "
                         f"window {kernel}")
    windows = _window_view(x.data, kernel, stride)
    out_data = windows.mean(axis=3)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        shared = np.broadcast_to((grad / kernel)[:, :, :, None],
                                 grad.shape + (kernel,))
        _col2im_add(grad_x, shared, kernel, stride)
        x._accumulate(grad_x)

    probe = Tensor(0.0)
    return probe._make(out_data, (x,), backward)


def _adaptive_bounds(length: int, bins: int) -> list[tuple[int, int]]:
    """Split [0, length) into ``bins`` contiguous, never-empty spans.

    PyTorch's adaptive rule: bin ``b`` covers ``[floor(b*L/bins),
    ceil((b+1)*L/bins))``.  When the input is *shorter* than the bin
    count (a gadget of length 1-3 under the paper's (4, 2, 1) pyramid)
    the spans overlap and repeat elements instead — every span still
    satisfies ``start < end <= length``, so both pooling modes and
    their gradients stay well defined (pinned by
    ``tests/nn/test_spp_short_inputs.py``).
    """
    if length < 1:
        raise ValueError(
            f"adaptive pooling needs length >= 1, got {length}")
    starts, ends = _adaptive_spans(np.array([length]), bins)
    return list(zip(starts[0].tolist(), ends[0].tolist()))


def _adaptive_spans(lengths: np.ndarray,
                    bins: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_adaptive_bounds` for many lengths at once: (R,) lengths
    (each >= 1) -> (R, bins) span starts and (R, bins) span ends."""
    lengths = np.asarray(lengths, dtype=np.int64)[:, None]
    index = np.arange(bins)
    starts = (index * lengths) // bins      # <= length - 1 for b < bins
    ends = np.maximum(-(-((index + 1) * lengths) // bins), starts + 1)
    return starts, np.minimum(ends, lengths)


def adaptive_max_pool1d(x: Tensor, bins: int) -> Tensor:
    """Max pool (B, C, L) down to exactly (B, C, bins) for any L >= 1."""
    batch, channels, length = x.shape
    outs = []
    args = []
    for start, end in _adaptive_bounds(length, bins):
        window = x.data[:, :, start:end]
        outs.append(window.max(axis=2))
        args.append(window.argmax(axis=2) + start)
    out_data = np.stack(outs, axis=2)
    arg = np.stack(args, axis=2)  # absolute positions

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        b_idx, c_idx, _ = np.indices(arg.shape)
        np.add.at(grad_x, (b_idx, c_idx, arg), grad)
        x._accumulate(grad_x)

    probe = Tensor(0.0)
    return probe._make(out_data, (x,), backward)


def adaptive_avg_pool1d(x: Tensor, bins: int) -> Tensor:
    """Average pool (B, C, L) down to exactly (B, C, bins)."""
    batch, channels, length = x.shape
    bounds = _adaptive_bounds(length, bins)
    out_data = np.stack(
        [x.data[:, :, s:e].mean(axis=2) for s, e in bounds], axis=2)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        for index, (start, end) in enumerate(bounds):
            grad_x[:, :, start:end] += \
                grad[:, :, index : index + 1] / (end - start)
        x._accumulate(grad_x)

    probe = Tensor(0.0)
    return probe._make(out_data, (x,), backward)
