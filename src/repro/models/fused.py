"""Fused inference-only forward pass for :class:`SEVulDetNet`.

The autograd forward (paper Fig. 2 Steps IV-V) builds a Tensor node
per op — even under ``no_grad`` every op allocates a fresh output
array and re-casts it through the Tensor constructor.  Scoring never
needs any of that, so this kernel runs the identical mathematics as
plain ndarray code:

* activations (relu, the sigmoid gates) are applied **in place**;
* the conv padding buffers and the matmul outputs of the token
  attention and the dense head are **preallocated scratch buffers**
  reused across batches of the same (batch, length) bucket — and kept
  per *thread*, because the scan service's ``ThreadScorer`` drives one
  model from N threads concurrently;
* the conv bias lands via an in-place add on the im2col matmul output
  (the bit-identity-safe form of folding it into the matmul: actually
  changing the contraction would change float summation order);
* the token-attention softmax (Eq. 3) is skipped — it only feeds the
  ``last_weights`` visualization hook, never the scores;
* no autograd graph is ever constructed.

**Bit-identity contract** (pinned by ``tests/models/test_fused.py``):
at float32 the kernel reproduces ``net.forward(ids).data`` *bitwise*.
That requires replicating the Tensor ops' exact float semantics, not
just their mathematics — e.g. relu is ``x * (x > 0)`` (not
``np.maximum``, which differs on ``-0.0``), mean is
``sum * dtype(1/n)`` (not ``np.mean``), and the conv einsum is the
same ``np.einsum("bok,ck->bco", ..., optimize=True)`` call as
:func:`repro.nn.ops.conv1d`.

**Reduced precision**: int8-quantized models (see
:mod:`repro.nn.quantize`) arrive here as dequantized float32 arrays,
so they take the plain float32 path.
"""

from __future__ import annotations

import threading

import numpy as np

from ..nn.ops import _adaptive_bounds, _im2col

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


class InferenceKernel:
    """Callable fused forward bound to one :class:`SEVulDetNet`.

    Thread-safe: scratch buffers live in ``threading.local`` storage,
    so concurrent ``predict_proba`` calls (the thread scorer) never
    share a buffer.  Weight rebinding (``load_state_dict``,
    quantization) is picked up automatically — weights are read from
    the live parameters on every call.
    """

    #: Scratch entries kept per thread before the cache resets; each
    #: distinct (batch, length) bucket contributes a handful of keys.
    _MAX_SCRATCH = 256

    def __init__(self, net):
        self.net = net
        self._tls = threading.local()

    # -- buffers & matmul ------------------------------------------------------

    def _buffers(self) -> dict:
        buffers = getattr(self._tls, "buffers", None)
        if buffers is None:
            buffers = self._tls.buffers = {}
        return buffers

    def _scratch(self, tag: str, shape: tuple[int, ...],
                 dtype: np.dtype) -> np.ndarray:
        buffers = self._buffers()
        key = (tag, shape, dtype.str)
        array = buffers.get(key)
        if array is None:
            if len(buffers) >= self._MAX_SCRATCH:
                buffers.clear()
            array = buffers[key] = np.empty(shape, dtype=dtype)
        return array

    def _matmul(self, a: np.ndarray, wparam, tag: str,
                shape: tuple[int, ...]) -> np.ndarray:
        """``a @ w`` into a scratch buffer."""
        out = self._scratch(tag, shape, a.dtype)
        return np.matmul(a, wparam.data, out=out)

    def _conv1d(self, padded: np.ndarray, conv) -> np.ndarray:
        kernel = conv.weight.data.shape[2]
        out_channels = conv.weight.data.shape[0]
        cols = _im2col(padded, kernel, 1)
        # the same einsum call as repro.nn.ops.conv1d (bit identity)
        out = np.einsum("bok,ck->bco", cols,
                        conv.weight.data.reshape(out_channels, -1),
                        optimize=True)
        if conv.bias is not None:
            out += conv.bias.data[None, :, None]
        return out

    def _pad(self, x_bct: np.ndarray, pad: int, tag: str) -> np.ndarray:
        """Copy ``x`` into a zero-padded scratch buffer (last axis)."""
        batch, channels, length = x_bct.shape
        padded = self._scratch(tag, (batch, channels, length + 2 * pad),
                               x_bct.dtype)
        if pad:
            padded[:, :, :pad] = 0
            padded[:, :, pad + length:] = 0
        padded[:, :, pad:pad + length] = x_bct
        return padded

    # -- the fused forward ---------------------------------------------------

    def __call__(self, token_ids: np.ndarray) -> np.ndarray:
        """(batch, length) int ids -> (batch,) logits, no graph."""
        net = self.net
        ids = np.asarray(token_ids, dtype=np.int64)
        if net.embedding.id_aliases is not None:
            ids = net.embedding.id_aliases[ids]
        weight = net.embedding.weight.data
        dtype = weight.dtype
        batch, length = ids.shape

        x = weight[ids]                                  # (B, T, D)

        if net.use_token_attention:
            attn = net.token_attention
            dim = weight.shape[1]
            u = self._matmul(x, attn.proj.weight, "ta.u",
                             (batch, length, dim))
            u += attn.proj.bias.data
            np.tanh(u, out=u)
            gate = np.matmul(u, attn.context.data)       # (B, T) scores
            gate += np.asarray(attn.GATE_BIAS, dtype=dtype)
            _sigmoid_inplace(gate)
            x *= gate[:, :, None]

        pad = net.conv.padding
        features = self._pad(x.transpose(0, 2, 1), pad, "conv.pad")
        features = self._conv1d(features, net.conv)      # (B, C, T')
        features *= features > 0                         # in-place relu
        channels, feat_len = features.shape[1], features.shape[2]

        if net.use_cbam:
            # channel attention (Eq. 5): shared MLP over avg+max pools
            chan = net.cbam.channel
            avg = features.sum(axis=2)
            avg *= np.asarray(1.0 / feat_len, dtype=dtype)
            mx = features.max(axis=2)
            hidden = chan.fc1.weight.data.shape[1]
            h_avg = self._matmul(avg, chan.fc1.weight, "ch.h",
                                 (batch, hidden))
            h_avg *= h_avg > 0
            a_avg = np.matmul(h_avg, chan.fc2.weight.data)
            h_mx = self._matmul(mx, chan.fc1.weight, "ch.h2",
                                (batch, hidden))
            h_mx *= h_mx > 0
            a_mx = np.matmul(h_mx, chan.fc2.weight.data)
            att = a_avg
            att += a_mx
            att += chan.gate_bias.data
            _sigmoid_inplace(att)
            features *= att[:, :, None]

            # spatial attention (Eq. 6): conv over pooled channel maps
            spat = net.cbam.spatial
            avg_s = features.sum(axis=1, keepdims=True)
            avg_s *= np.asarray(1.0 / channels, dtype=dtype)
            mx_s = features.max(axis=1, keepdims=True)
            sp_pad = spat.kernel // 2
            pooled = self._scratch(
                "sp.pad", (batch, 2, feat_len + 2 * sp_pad), dtype)
            if sp_pad:
                pooled[:, :, :sp_pad] = 0
                pooled[:, :, sp_pad + feat_len:] = 0
            pooled[:, 0:1, sp_pad:sp_pad + feat_len] = avg_s
            pooled[:, 1:2, sp_pad:sp_pad + feat_len] = mx_s
            att_s = self._conv1d(pooled, spat)           # (B, 1, T')
            _sigmoid_inplace(att_s)
            features *= att_s

        # SPP (Definition 8): adaptive pooling pyramid -> fixed width
        pieces = []
        for bin_count in net.spp.bins:
            bounds = _adaptive_bounds(feat_len, bin_count)
            if net.spp.mode == "max":
                pooled_bin = np.stack(
                    [features[:, :, s:e].max(axis=2) for s, e in bounds],
                    axis=2)
            else:
                pooled_bin = np.stack(
                    [features[:, :, s:e].mean(axis=2)
                     for s, e in bounds], axis=2)
            pieces.append(pooled_bin.reshape(batch,
                                             channels * bin_count))
        pooled_vec = np.concatenate(pieces, axis=1)      # (B, 7C)

        # dense head (dropout is identity in eval mode)
        h1 = self._matmul(pooled_vec, net.fc1.weight, "fc1",
                          (batch, net.fc1.out_features))
        h1 += net.fc1.bias.data
        h1 *= h1 > 0
        h2 = self._matmul(h1, net.fc2.weight, "fc2",
                          (batch, net.fc2.out_features))
        h2 += net.fc2.bias.data
        h2 *= h2 > 0
        out = self._matmul(h2, net.fc3.weight, "fc3",
                           (batch, net.fc3.out_features))
        out += net.fc3.bias.data
        return out.reshape(-1).copy()
