"""Batch invariance of Step V scoring: a row's score depends only on
its own token ids.

The scan service packs rows of many cases and lengths into shared
ragged packs, so a verdict is byte-identical to a serial scan only if
a row's score is the same bits however it is packed: alone, in any
sub-pack, at any position.  These properties run over random-init
networks (every ablation switch, CBAM's zero-initialized gates given
random weights so every product does work) and rows of 1-300 tokens,
through the kernel, the serial scorer and the service's thread
scorer.  Batch invariance is what lets both scorers score each
distinct row once and copy its score to every repeat; the last
properties pin that the kernel sees each distinct row once.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.score import SCORE_MIN_LENGTH, predict_proba
from repro.core.serve import ThreadScorer
from repro.core.telemetry import Telemetry
from repro.models.sevuldet import SEVulDetNet
from repro.nn import Sample, no_grad
from repro.nn.data import PAD_ID

VOCAB = 60

PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def build(seed: int, dim: int, channels: int, token_attention: bool,
          cbam: bool) -> SEVulDetNet:
    net = SEVulDetNet(vocab_size=VOCAB, dim=dim, channels=channels,
                      seed=seed, use_token_attention=token_attention,
                      use_cbam=cbam)
    if cbam:
        rng = np.random.default_rng(seed)
        for param in (net.cbam.channel.fc2.weight,
                      net.cbam.spatial.weight):
            param.data = rng.normal(0.0, 0.5, param.data.shape).astype(
                param.data.dtype)
    net.eval()
    return net


nets = st.builds(build, seed=st.integers(0, 2**16),
                 dim=st.sampled_from([8, 30]),
                 channels=st.sampled_from([8, 32]),
                 token_attention=st.booleans(), cbam=st.booleans())
def token_rows(lengths: list[int], seed: int) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, n).tolist() for n in lengths]


#: 1-20 rows of 1-300 token ids (lengths drawn, ids seeded: drawing
#: thousands of ids one by one would overrun hypothesis's buffer)
rows_st = st.builds(token_rows,
                    st.lists(st.integers(1, 300), min_size=1, max_size=20),
                    st.integers(0, 2**32 - 1))


def ragged(rows):
    """(B, T) right-padded ids + (B,) true lengths (no length floor)."""
    lengths = np.array([len(row) for row in rows])
    ids = np.zeros((len(rows), lengths.max()), dtype=np.int64)
    for out, row in zip(ids, rows):
        out[:len(row)] = row
    return ids, lengths


def bits(scores) -> bytes:
    return np.asarray(scores, dtype=np.float64).tobytes()


@PROPERTY
@given(net=nets, rows=rows_st, data=st.data())
def test_row_score_is_the_same_alone_in_any_pack(net, rows, data):
    with no_grad():
        alone = [net.predict_proba(np.array([row]))[0] for row in rows]
        packed = net.predict_proba(*ragged(rows))
        subset = data.draw(st.lists(st.sampled_from(range(len(rows))),
                                    min_size=1, unique=True),
                           label="sub-pack")
        sub = net.predict_proba(*ragged([rows[i] for i in subset]))
        order = data.draw(st.permutations(range(len(rows))),
                          label="permutation")
        permuted = net.predict_proba(*ragged([rows[i] for i in order]))
    assert bits(packed) == bits(alone)
    assert bits(sub) == bits([alone[i] for i in subset])
    assert bits(permuted) == bits([alone[i] for i in order])


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@PROPERTY
@given(net=nets, rows=rows_st)
def test_serial_scores_do_not_depend_on_batch_size(batch_size, net,
                                                   rows):
    samples = [Sample(tuple(row), 0) for row in rows]
    alone = [predict_proba(net, [sample])[0] for sample in samples]
    assert bits(predict_proba(net, samples, batch_size=batch_size)) \
        == bits(alone)


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@PROPERTY
@given(net=nets, rows=rows_st, data=st.data())
def test_thread_scorer_matches_serial(batch_size, net, rows, data):
    """Rows split into cases and submitted together land in shared
    packs of mixed lengths; every score still equals the serial
    scorer's."""
    cuts = sorted(data.draw(st.sets(st.integers(1, len(rows) - 1)),
                            label="case boundaries")
                  if len(rows) > 1 else ())
    bounds = list(zip([0, *cuts], [*cuts, len(rows)]))
    serial = predict_proba(net, [Sample(tuple(row), 0) for row in rows])
    scorer = ThreadScorer(net, batch_size, workers=2,
                          telemetry=Telemetry())
    try:
        pending = [scorer.submit(rows[start:end])
                   for start, end in bounds]
        scores = np.concatenate([p.result() for p in pending])
    finally:
        scorer.close()
    assert bits(scores) == bits(serial)


def with_repeats(rows, data) -> list[list[int]]:
    """A multiset over ``rows`` in drawn order, one row at least twice."""
    picks = data.draw(st.lists(st.sampled_from(range(len(rows))),
                               min_size=1, max_size=40),
                      label="row multiset")
    return [rows[i] for i in [*picks, picks[0]]]


def as_packed(row) -> tuple[int, ...]:
    """A row as a ragged pack carries it: padded to the length floor."""
    return (*row, *[PAD_ID] * (SCORE_MIN_LENGTH - len(row)))


class KernelRows:
    """Wraps ``net.predict_proba`` and records every row it scores."""

    def __init__(self, net):
        self.net = net
        self.seen: list[tuple[int, ...]] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "KernelRows":
        original = self.net.predict_proba

        def counting(ids, lengths):
            with self._lock:
                self.seen.extend(tuple(row[:n]) for row, n
                                 in zip(ids.tolist(), lengths))
            return original(ids, lengths)

        self.net.predict_proba = counting  # shadows the method
        return self

    def __exit__(self, *exc) -> None:
        del self.net.predict_proba


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@PROPERTY
@given(net=nets, rows=rows_st, data=st.data())
def test_serial_scorer_scores_each_distinct_row_once(batch_size, net,
                                                     rows, data):
    multiset = with_repeats(rows, data)
    samples = [Sample(tuple(row), 0) for row in multiset]
    alone = [predict_proba(net, [sample])[0] for sample in samples]
    with KernelRows(net) as kernel:
        scores = predict_proba(net, samples, batch_size=batch_size)
    assert bits(scores) == bits(alone)
    assert kernel.seen == [as_packed(row) for row
                           in dict.fromkeys(map(tuple, multiset))]


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@PROPERTY
@given(net=nets, rows=rows_st, data=st.data())
def test_thread_scorer_scores_each_distinct_row_once(batch_size, net,
                                                     rows, data):
    """One submission is one drain: each distinct row reaches the
    kernel once, and every repeat gets the serial scorer's score."""
    multiset = with_repeats(rows, data)
    serial = predict_proba(net, [Sample(tuple(row), 0)
                                 for row in multiset])
    scorer = ThreadScorer(net, batch_size, workers=2,
                          telemetry=Telemetry())
    try:
        with KernelRows(net) as kernel:
            scores = scorer.submit(multiset).result()
    finally:
        scorer.close()
    assert bits(scores) == bits(serial)
    assert sorted(kernel.seen) == sorted(
        as_packed(row) for row in set(map(tuple, multiset)))
