"""Attention blocks: token attention (paper Step IV) and the 1-D CBAM
channel/spatial attention pair (paper Step V, Eq. 5-8).

Token attention re-weights embedded tokens by their similarity to a
learned context query ``u_w`` (Eq. 1-4).  Channel attention answers
*what* feature channels matter; spatial attention answers *where* along
the sequence — applied sequentially, channel first, as the paper notes
sequential beats parallel composition.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .layers import Linear, Module, Parameter
from .ops import conv1d
from .tensor import Tensor

__all__ = ["TokenAttention", "ChannelAttention", "SpatialAttention",
           "CBAM"]


class TokenAttention(Module):
    """Importance-weighted token embedding (Eq. 1-4).

    Given embeddings ``x_i``, computes ``u_i = tanh(W x_i + b)``,
    attention ``alpha_i = softmax(u_i . u_w)``, and returns
    ``alpha_i * x_i`` (the colored feature map of Fig 4) plus the
    weights themselves, which RQ4's visualization hooks read.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.proj = Linear(dim, dim, rng)
        self.context = Parameter(
            initializers.xavier_uniform((dim,), rng), name="token.u_w")
        self.last_weights: np.ndarray | None = None

    #: Importance-gate bias at initialization: sigmoid(2) ~ 0.88, so
    #: the block starts close to the identity and learns to suppress
    #: genuinely-unimportant tokens (open-gate initialization).
    GATE_BIAS = 2.0

    def forward(self, x: Tensor) -> Tensor:
        """x: (batch, tokens, dim) -> weighted (batch, tokens, dim).

        Eq. 3's softmax normalization couples all T tokens and makes
        the per-token weight scale like 1/T, which destabilises the
        flexible-length training at laptop scale; the multiplicative
        weighting therefore uses a per-token sigmoid importance gate
        over the same ``u_i . u_w`` scores (open-gate initialised, so
        the block starts as the identity).  The softmax alphas are
        still computed and stored in ``last_weights`` — they are what
        Eq. 3 defines and what the RQ4 visualization hooks read.
        """
        u = self.proj(x).tanh()                       # (B, T, D)
        scores = u.matmul_rows(self.context)          # (B, T)
        alpha = scores.softmax(axis=-1)               # (B, T) Eq. 3
        self.last_weights = alpha.data.copy()
        gate = (scores + self.GATE_BIAS).sigmoid()    # (B, T)
        batch, tokens = gate.shape
        return x * gate.reshape(batch, tokens, 1)


class ChannelAttention(Module):
    """CBAM channel attention, Eq. 5 (shared MLP over avg+max pools)."""

    #: Gate bias at initialization: sigmoid(2) ~ 0.88, so the block
    #: starts close to a pass-through and learns to close gates where
    #: useful — stabilising short training runs (open-gate init).
    GATE_BIAS = 2.0

    def __init__(self, channels: int, rng: np.random.Generator,
                 reduction: int = 4):
        super().__init__()
        hidden = max(channels // reduction, 1)
        self.fc1 = Linear(channels, hidden, rng, bias=False)
        self.fc2 = Linear(hidden, channels, rng, bias=False)
        self.fc2.weight.data[:] = 0.0  # open-gate initialization
        self.gate_bias = Parameter(
            np.full(channels, self.GATE_BIAS), name="channel.gate_bias")
        self.last_weights: np.ndarray | None = None

    def forward(self, x: Tensor) -> Tensor:
        """x: (batch, channels, length) -> channel-weighted x."""
        avg = x.mean(axis=2)             # (B, C)
        mx = x.max(axis=2)               # (B, C)
        attention = (self.fc2(self.fc1(avg).relu())
                     + self.fc2(self.fc1(mx).relu())
                     + self.gate_bias).sigmoid()          # (B, C)
        self.last_weights = attention.data.copy()
        batch, channels = attention.shape
        return x * attention.reshape(batch, channels, 1)


class SpatialAttention(Module):
    """CBAM spatial attention, Eq. 6 (conv over pooled channel maps).

    The paper's 7x7 2-D kernel becomes a length-7 1-D kernel on the
    sequence axis.
    """

    def __init__(self, rng: np.random.Generator, kernel: int = 7):
        super().__init__()
        if kernel % 2 == 0:
            raise ValueError("spatial attention kernel must be odd")
        self.kernel = kernel
        # Open-gate initialization: zero kernel + positive bias makes
        # the gate start at sigmoid(2) ~ 0.88 everywhere.
        self.weight = Parameter(np.zeros((1, 2, kernel)),
                                name="spatial.conv")
        self.bias = Parameter(np.full(1, 2.0), name="spatial.bias")
        self.last_weights: np.ndarray | None = None

    def forward(self, x: Tensor) -> Tensor:
        """x: (batch, channels, length) -> position-weighted x."""
        avg = x.mean(axis=1, keepdims=True)   # (B, 1, L)
        mx = x.max(axis=1, keepdims=True)     # (B, 1, L)
        pooled = Tensor.concat([avg, mx], axis=1)  # (B, 2, L)
        attention = conv1d(pooled, self.weight, self.bias,
                           padding=self.kernel // 2).sigmoid()  # (B,1,L)
        self.last_weights = attention.data.copy()
        return x * attention


class CBAM(Module):
    """Sequential channel-then-spatial attention (Eq. 7-8)."""

    def __init__(self, channels: int, rng: np.random.Generator,
                 reduction: int = 4, kernel: int = 7):
        super().__init__()
        self.channel = ChannelAttention(channels, rng, reduction)
        self.spatial = SpatialAttention(rng, kernel)

    def forward(self, x: Tensor) -> Tensor:
        refined = self.channel(x)   # F'  = Mc(F) (x) F
        return self.spatial(refined)  # F'' = Ms(F') (x) F'
