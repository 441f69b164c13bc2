"""The SEVulDet network (paper Steps IV-V, Fig 2).

Pipeline per gadget: word2vec embedding -> token attention (Step IV)
-> full-embedding-width 1-D convolution -> CBAM channel + spatial
attention -> spatial pyramid pooling -> dense 256 -> 64 -> 1 (Step V).
The SPP output width is fixed regardless of gadget length, so the model
accepts flexible-length inputs; the decision threshold is the paper's
0.8 on the sigmoid output.
"""

from __future__ import annotations

import numpy as np

from ..nn import (CBAM, Conv1d, Dropout, Embedding, Linear, Module,
                  SpatialPyramidPooling1d, Tensor, TokenAttention,
                  stable_sigmoid)
from .fused import InferenceKernel

__all__ = ["SEVulDetNet", "DECISION_THRESHOLD"]

#: Paper Step V: "If this number is greater than 0.8, the output is
#: flawed."
DECISION_THRESHOLD = 0.8


class SEVulDetNet(Module):
    """CNN with token attention, CBAM, and SPP.

    Args:
        vocab_size: embedding rows.
        dim: embedding width (paper Table IV: 30).
        channels: convolution output channels.
        kernel: convolution kernel length along the token axis.
        dropout: dropout rate before the dense head (paper: 0.2).
        use_token_attention / use_cbam: ablation switches (Table III's
            CNN / CNN-TokenATT / CNN-MultiATT rows).
        pretrained: optional (vocab, dim) word2vec matrix.
    """

    fixed_length: int | None = None  # flexible-length model

    def __init__(self, vocab_size: int, dim: int = 30, channels: int = 32,
                 kernel: int = 3, dropout: float = 0.2,
                 use_token_attention: bool = True, use_cbam: bool = True,
                 pretrained: np.ndarray | None = None,
                 bins: tuple[int, ...] = (4, 2, 1),
                 seed: int = 7):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.embedding = Embedding(vocab_size, dim, rng,
                                   weights=pretrained)
        self.use_token_attention = use_token_attention
        self.use_cbam = use_cbam
        self.kernel = kernel
        if use_token_attention:
            self.token_attention = TokenAttention(dim, rng)
        self.conv = Conv1d(dim, channels, kernel, rng,
                           padding=kernel // 2)
        if use_cbam:
            self.cbam = CBAM(channels, rng)
        self.spp = SpatialPyramidPooling1d(bins=bins)
        spp_out = self.spp.output_features(channels)
        self.fc1 = Linear(spp_out, 256, rng)
        self.fc2 = Linear(256, 64, rng)
        self.fc3 = Linear(64, 1, rng)
        self.dropout = Dropout(dropout, rng)
        self._infer_kernel: InferenceKernel | None = None

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """(batch, length) int ids -> (batch,) logits."""
        embedded = self.embedding(token_ids)          # (B, T, D)
        if self.use_token_attention:
            embedded = self.token_attention(embedded)
        features = embedded.transpose(0, 2, 1)        # (B, D, T)
        features = self.conv(features).relu()         # (B, C, T)
        if self.use_cbam:
            features = self.cbam(features)
        pooled = self.spp(features)                   # (B, 7C)
        hidden = self.dropout(self.fc1(pooled).relu())
        hidden = self.dropout(self.fc2(hidden).relu())
        return self.fc3(hidden).reshape(-1)           # logits

    def forward_inference(self, token_ids: np.ndarray,
                          lengths: np.ndarray | None = None
                          ) -> np.ndarray:
        """Inference-only fused forward: (batch, length) ids [+ (batch,)
        row lengths] -> (batch,) logit ndarray, no autograd graph.

        Rows may differ in length (a ragged pack: row ``b`` is
        ``token_ids[b, :lengths[b]]``), and a row's logit is bitwise
        the same in any pack.  Bit-identical to ``forward(ids).data``
        at float32 for equal-length rows (pinned by
        ``tests/models/test_fused.py``).  Dropout is treated as
        identity, so callers must be in eval mode — exactly the regime
        :meth:`predict_proba` routes through it.
        """
        kernel = self._infer_kernel
        if kernel is None:
            kernel = self._infer_kernel = InferenceKernel(self)
        return kernel(token_ids, lengths)

    def predict_proba(self, token_ids: np.ndarray,
                      lengths: np.ndarray | None = None) -> np.ndarray:
        """Sigmoid scores in [0, 1] (stable under any compute dtype)
        for (batch, length) ids, optionally a ragged pack with
        (batch,) row ``lengths``.

        In eval mode the logits come from the fused
        :meth:`forward_inference` kernel; a model still in training
        mode falls back to the graph forward so dropout stays live,
        which takes equal-length rows only.
        """
        if not self.training:
            logits = self.forward_inference(token_ids, lengths)
        elif lengths is None:
            logits = self.forward(token_ids).data
        else:
            raise ValueError("a ragged pack is scored in eval mode")
        return stable_sigmoid(logits)

    def attention_weights(self, token_ids: np.ndarray) -> np.ndarray:
        """Token-attention weights for one batch (RQ4 hook).

        Returns (batch, length) softmax weights; requires
        ``use_token_attention``.  The model's training mode is
        restored afterwards, so a mid-training inspection cannot
        silently leave dropout disabled for the rest of the run.
        """
        if not self.use_token_attention:
            raise ValueError("model was built without token attention")
        was_training = self.training
        self.eval()
        try:
            self.forward(token_ids)
        finally:
            self.train(was_training)
        assert self.token_attention.last_weights is not None
        return self.token_attention.last_weights
