"""Fused inference-only forward pass for :class:`SEVulDetNet`.

The autograd forward (paper Fig. 2 Steps IV-V) builds a Tensor node
per op — even under ``no_grad`` every op allocates a fresh output
array and re-casts it through the Tensor constructor.  Scoring never
needs any of that, so this kernel runs the identical mathematics as
plain ndarray code, with no autograd graph, activations applied in
place, and the token-attention softmax (Eq. 3) skipped — it only feeds
the ``last_weights`` visualization hook, never the scores.

**Ragged packs.** SPP (Definition 8) lets Step V take a gadget of any
length, so one call scores rows of *mixed* lengths: ``(B, T)``
right-padded ids plus ``(B,)`` lengths.  The kernel concatenates the
rows' positions into one ``(N, ·)`` array and keeps every reduction
per row:

* each 1-D convolution (the main conv, CBAM's spatial conv) lays the
  rows out with ``kernel // 2`` zero positions between them — exactly
  the padding a row sees alone — and reads one patch per real
  position (:func:`_ragged_conv`);
* CBAM's channel mean sums each row's own contiguous slice (``.sum``;
  ``np.add.reduceat`` sums in a different order) and scales it by
  ``dtype(1 / length)``; the channel max and the SPP bin maxima are
  exact ``np.maximum.reduceat`` reductions over per-row spans
  (:func:`_segment_max`, spans from ``_adaptive_spans``).

**Batch invariance.** Every product runs through
:func:`~repro.nn.tensor.tiled_matmul`, fixed-shape row tiles whose
output rows depend only on their own input rows.  With per-row
reductions, a row's logit is bitwise the same scored alone, in any
pack, and at any position in it.

**Bit-identity contract** (pinned by ``tests/models/test_fused.py``):
at float32 the kernel reproduces ``net.forward(ids).data`` *bitwise*
for equal-length rows.  The graph forward uses the same tiled products
(``Linear``, ``conv1d``, the token-attention score), and the kernel
replicates the Tensor ops' exact float semantics — e.g. relu is
``x * (x > 0)`` (not ``np.maximum``, which differs on ``-0.0``) and a
mean is ``sum * dtype(1/n)`` (not ``np.mean``).  Sums reduce over
the same memory layout as the graph's: positions outer, channels
contiguous.
"""

from __future__ import annotations

import numpy as np

from ..nn.ops import _adaptive_spans, _offset_major
from ..nn.tensor import MATMUL_TILE, tiled_matmul

__all__ = ["InferenceKernel"]


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """Tensor.sigmoid's exact formula, applied in place:
    ``1 / (1 + exp(-clip(z, -500, 500)))``."""
    np.clip(z, -500, 500, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    return z


def _ragged_conv(rows: np.ndarray, lengths: np.ndarray,
                 weight: np.ndarray, bias: np.ndarray | None
                 ) -> np.ndarray:
    """'Same' 1-D convolution of every row of a ragged pack.

    ``rows`` is (N, in_channels): the packed rows' positions, row
    after row.  The rows are copied into a zero buffer with
    ``kernel // 2`` zero positions before each row and after the last,
    so a window never reaches into a neighbour; one patch per real
    position then goes through a tiled product.  Returns
    (N, out_channels).
    """
    _, in_channels, kernel = weight.shape
    pad = kernel // 2
    count = rows.shape[0]
    # index of every real position in the gapped buffer
    gapped = (np.arange(count)
              + pad * np.arange(1, len(lengths) + 1).repeat(lengths))
    # ``kernel`` spare zero positions at the end make the last window
    # all zeros: the patch of a padding row of the last product tile
    buffer = np.zeros((count + pad * (len(lengths) + 1) + kernel,
                       in_channels), dtype=rows.dtype)
    buffer[gapped] = rows
    # window s = positions s .. s+kernel-1, one contiguous run: the
    # offset-major patch of repro.nn.ops._im2col
    windows = np.lib.stride_tricks.as_strided(
        buffer, shape=(len(buffer) - kernel + 1, kernel * in_channels),
        strides=(buffer.strides[0], buffer.itemsize), writeable=False)
    # the patch matrix, already padded to whole product tiles, in one
    # gather
    index = np.full(-(-count // MATMUL_TILE) * MATMUL_TILE,
                    len(windows) - 1)
    index[:count] = gapped - pad
    out = tiled_matmul(windows[index], _offset_major(weight).T)[:count]
    if bias is not None:
        out += bias
    return out


def _segment_max(data: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> np.ndarray:
    """Exact ``data[s:e].max(axis=0)`` for every span (spans may
    overlap; every one is non-empty)."""
    # reduceat reduces [idx[i], idx[i+1]) and needs every idx < len:
    # one spare row lets a span end at the last position
    spare = np.concatenate([data, data[-1:]])
    bounds = np.stack([starts, ends], axis=-1).reshape(-1)
    return np.maximum.reduceat(spare, bounds, axis=0)[::2]


class InferenceKernel:
    """Callable fused forward bound to one :class:`SEVulDetNet`.

    Stateless between calls, so concurrent ``predict_proba`` calls
    (the thread scorer) are safe.  Weight rebinding
    (``load_state_dict``) is picked up automatically — weights are
    read from the live parameters on every call.
    """

    def __init__(self, net):
        conv = net.conv
        if conv.stride != 1 or 2 * conv.padding + 1 != conv.kernel:
            raise ValueError("the fused kernel needs a stride-1 'same' "
                             "conv (odd kernel, padding kernel // 2)")
        self.net = net

    def __call__(self, token_ids: np.ndarray,
                 lengths: np.ndarray | None = None) -> np.ndarray:
        """(B, T) int ids [+ (B,) row lengths] -> (B,) logits.

        Row ``b`` is ``token_ids[b, :lengths[b]]``; without
        ``lengths`` every row is ``T`` long.
        """
        net = self.net
        ids = np.asarray(token_ids, dtype=np.int64)
        batch, width = ids.shape
        lengths = (np.full(batch, width, dtype=np.int64) if lengths is None
                   else np.asarray(lengths, dtype=np.int64))
        if lengths.shape != (batch,) or (batch and (
                lengths.min() < 1 or lengths.max() > width)):
            raise ValueError(f"lengths must be {batch} values in "
                             f"[1, {width}], got {lengths!r}")
        weight = net.embedding.weight.data
        dtype = weight.dtype
        if not batch:
            return np.zeros(0, dtype=dtype)
        flat = ids[np.arange(width) < lengths[:, None]]   # (N,) packed
        if net.embedding.id_aliases is not None:
            flat = net.embedding.id_aliases[flat]
        starts = np.cumsum(lengths) - lengths
        ends = starts + lengths

        x = weight[flat]                                 # (N, D)
        if net.use_token_attention:
            attn = net.token_attention
            u = tiled_matmul(x, attn.proj.weight.data)
            u += attn.proj.bias.data
            np.tanh(u, out=u)
            gate = tiled_matmul(u, attn.context.data)    # (N,) scores
            gate += np.asarray(attn.GATE_BIAS, dtype=dtype)
            _sigmoid_inplace(gate)
            x *= gate[:, None]

        conv = net.conv
        features = _ragged_conv(
            x, lengths, conv.weight.data,
            None if conv.bias is None else conv.bias.data)   # (N, C)
        features *= features > 0                         # in-place relu
        channels = features.shape[1]

        if net.use_cbam:
            # channel attention (Eq. 5): shared MLP over avg+max pools
            chan = net.cbam.channel
            avg = np.stack([features[s:e].sum(axis=0)
                            for s, e in zip(starts, ends)])
            avg *= (1.0 / lengths).astype(dtype)[:, None]
            mx = _segment_max(features, starts, ends)
            hidden = tiled_matmul(np.concatenate([avg, mx]),
                                  chan.fc1.weight.data)
            hidden *= hidden > 0
            both = tiled_matmul(hidden, chan.fc2.weight.data)
            att = both[:batch]
            att += both[batch:]
            att += chan.gate_bias.data
            _sigmoid_inplace(att)
            features *= np.repeat(att, lengths, axis=0)

            # spatial attention (Eq. 6): conv over pooled channel maps
            spat = net.cbam.spatial
            pooled = np.empty((len(features), 2), dtype=dtype)
            pooled[:, 0] = features.sum(axis=1)
            pooled[:, 0] *= np.asarray(1.0 / channels, dtype=dtype)
            # a max is exact in any order; over a transposed copy it
            # reduces whole rows instead of 32-wide slivers
            pooled[:, 1] = np.ascontiguousarray(features.T).max(axis=0)
            att_s = _ragged_conv(pooled, lengths, spat.weight.data,
                                 spat.bias.data)         # (N, 1)
            _sigmoid_inplace(att_s)
            features *= att_s

        # SPP (Definition 8): adaptive pooling pyramid -> fixed width
        pieces = []
        for bin_count in net.spp.bins:
            lo, hi = _adaptive_spans(lengths, bin_count)
            lo = (lo + starts[:, None]).reshape(-1)
            hi = (hi + starts[:, None]).reshape(-1)
            if net.spp.mode == "max":
                pooled_bin = _segment_max(features, lo, hi)
            else:
                pooled_bin = np.stack([features[s:e].mean(axis=0)
                                       for s, e in zip(lo, hi)])
            # (B * bins, C) -> the graph's (B, C * bins) channel-major
            pieces.append(pooled_bin.reshape(batch, bin_count, channels)
                          .transpose(0, 2, 1)
                          .reshape(batch, channels * bin_count))
        pooled_vec = np.concatenate(pieces, axis=1)      # (B, 7C)

        # dense head (dropout is identity in eval mode)
        h1 = tiled_matmul(pooled_vec, net.fc1.weight.data)
        h1 += net.fc1.bias.data
        h1 *= h1 > 0
        h2 = tiled_matmul(h1, net.fc2.weight.data)
        h2 += net.fc2.bias.data
        h2 *= h2 > 0
        out = tiled_matmul(h2, net.fc3.weight.data)
        out += net.fc3.bias.data
        return out.reshape(-1)
