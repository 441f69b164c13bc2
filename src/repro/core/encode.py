"""Gadget encoding (paper Step IV's input side).

Builds the lossless vocabulary, pretrains word2vec, and encodes the
labeled gadgets into :class:`~repro.nn.data.Sample` token-id streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..embedding.vocab import Vocabulary
from ..embedding.word2vec import Word2Vec
from ..nn import Sample
from .extract import LabeledGadget
from .telemetry import Telemetry

__all__ = ["EncodedDataset", "encode_gadgets"]


@dataclass
class EncodedDataset:
    """Vocabulary + pretrained embeddings + encoded samples.

    ``id_aliases`` carries the embedding-level min_count trimming: an
    identity id map except rare token ids point at UNK.  Samples keep
    their lossless full-vocabulary ids; models that should treat rare
    constants as UNK attach the alias table to their embedding layer
    (see :meth:`bind_embedding_aliases`).
    """

    samples: list[Sample]
    vocab: Vocabulary
    word2vec: Word2Vec
    gadgets: list[LabeledGadget] = field(default_factory=list)
    id_aliases: np.ndarray | None = None

    @property
    def labels(self) -> np.ndarray:
        return np.array([sample.label for sample in self.samples])

    def subset(self, indices: Sequence[int]) -> list[Sample]:
        return [self.samples[i] for i in indices]

    def bind_embedding_aliases(self, model) -> None:
        """Attach the rare-token alias table to ``model.embedding``."""
        embedding = getattr(model, "embedding", None)
        if embedding is not None and self.id_aliases is not None:
            embedding.id_aliases = self.id_aliases


def encode_gadgets(gadgets: Sequence[LabeledGadget], dim: int = 30,
                   w2v_epochs: int = 2, seed: int = 13,
                   vocab: Vocabulary | None = None,
                   word2vec: Word2Vec | None = None,
                   min_count: int = 2,
                   telemetry: Telemetry | None = None) -> EncodedDataset:
    """Step IV input side: build vocab, pretrain word2vec, encode.

    The vocabulary keeps *every* token so id<->token roundtrips are
    exact.  ``min_count`` trims tokens (mostly rare numeric constants)
    seen fewer times at the *embedding* level, exactly where gensim's
    word2vec (min_count=5 by default) applied it in the paper's
    toolchain: rare tokens train as UNK in word2vec and the returned
    ``id_aliases`` table lets classifier embeddings route them to
    UNK's row too.  That embedding-level rare-constant generalization
    is what lets patterns learned on one instantiation of a CWE
    template transfer to instantiations with different buffer sizes
    and thresholds — without ever losing the literal token.
    """
    if vocab is None:
        vocab = Vocabulary.build([list(g.tokens) for g in gadgets])
    corpora = [vocab.encode(list(g.tokens)) for g in gadgets]
    id_aliases = np.arange(len(vocab), dtype=np.int64)
    if min_count > 1:
        counts: dict[int, int] = {}
        for corpus in corpora:
            for token_id in corpus:
                counts[token_id] = counts.get(token_id, 0) + 1
        for token_id, count in counts.items():
            if token_id >= 2 and count < min_count:
                id_aliases[token_id] = 1
    if word2vec is None:
        word2vec = Word2Vec(vocab, dim=dim, seed=seed)
        word2vec.train(corpora, epochs=w2v_epochs,
                       min_count=min_count, telemetry=telemetry)
    samples = [Sample(tuple(ids), g.label)
               for ids, g in zip(corpora, gadgets)]
    return EncodedDataset(samples, vocab, word2vec, list(gadgets),
                          id_aliases=id_aliases)
