"""Batch invariance of Step V scoring: a row's score depends only on
its own token ids.

The scan service packs rows of many cases and lengths into shared
ragged packs, so a verdict is byte-identical to a serial scan only if
a row's score is the same bits however it is packed: alone, in any
sub-pack, at any position.  These properties run over random-init
networks (every ablation switch, CBAM's zero-initialized gates given
random weights so every product does work) and rows of 1-300 tokens,
through the kernel, the serial scorer and the service's thread
scorer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.score import predict_proba
from repro.core.serve import ThreadScorer
from repro.core.telemetry import Telemetry
from repro.models.sevuldet import SEVulDetNet
from repro.nn import Sample, no_grad

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
