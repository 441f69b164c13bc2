"""Golden pins for the fused inference forward (repro.models.fused).

The contract: ``forward_inference`` is *bitwise* identical to the
autograd ``forward`` at float32.  These tests are what lets
``predict_proba`` route every eval-mode scoring call through the fused
kernel without re-validating the serve/engine byte-identity pins.
"""

import threading

import numpy as np
import pytest

from repro.models.sevuldet import SEVulDetNet
from repro.nn import default_dtype, no_grad


def build(seed=1, vocab=40, dim=12, channels=8, **kw):
    net = SEVulDetNet(vocab_size=vocab, dim=dim, channels=channels,
                      seed=seed, **kw)
    net.eval()
    return net


def batch(rng, vocab=40, shape=(3, 11)):
    return rng.integers(0, vocab, size=shape)


class TestBitIdentityFloat32:
    @pytest.mark.parametrize("shape", [(1, 4), (3, 11), (5, 57),
                                       (2, 7)])
    def test_matches_graph_forward_bitwise(self, shape):
        net = build()
        ids = batch(np.random.default_rng(0), shape=shape)
        with no_grad():
            reference = net.forward(ids).data
            fused = net.forward_inference(ids)
        assert fused.dtype == reference.dtype
        assert np.array_equal(fused, reference)

    def test_scratch_reuse_stays_identical(self):
        """Repeated calls on one kernel stay identical."""
        net = build()
        rng = np.random.default_rng(1)
        with no_grad():
            for _ in range(3):
                ids = batch(rng)
                assert np.array_equal(net.forward_inference(ids),
                                      net.forward(ids).data)

    @pytest.mark.parametrize("tok,cbam", [(False, True), (True, False),
                                          (False, False)])
    def test_ablations(self, tok, cbam):
        net = build(use_token_attention=tok, use_cbam=cbam)
        ids = batch(np.random.default_rng(2))
        with no_grad():
            assert np.array_equal(net.forward_inference(ids),
                                  net.forward(ids).data)

    def test_id_aliases_respected(self):
        net = build()
        aliases = np.arange(40, dtype=np.int64)
        aliases[30:] = 1
        net.embedding.id_aliases = aliases
        ids = batch(np.random.default_rng(3))
        with no_grad():
            assert np.array_equal(net.forward_inference(ids),
                                  net.forward(ids).data)

    def test_float64_session_bitwise(self):
        with default_dtype(np.float64):
            net = build()
            ids = batch(np.random.default_rng(4))
            with no_grad():
                fused = net.forward_inference(ids)
                assert fused.dtype == np.float64
                assert np.array_equal(fused, net.forward(ids).data)

    def test_predict_proba_routes_through_fused_in_eval(self):
        net = build()
        ids = batch(np.random.default_rng(5))
        with no_grad():
            from repro.nn import stable_sigmoid
            expected = stable_sigmoid(net.forward_inference(ids))
            assert np.array_equal(net.predict_proba(ids), expected)

    def test_thread_safety_of_scratch_buffers(self):
        """Concurrent callers (the thread scorer) share one kernel —
        each thread's outputs stay bit-identical."""
        net = build()
        rng = np.random.default_rng(6)
        batches = [batch(rng, shape=(4, 13)) for _ in range(4)]
        with no_grad():
            expected = [net.forward(ids).data for ids in batches]
        errors = []

        def worker(index):
            try:
                with no_grad():
                    for _ in range(20):
                        got = net.forward_inference(batches[index])
                        if not np.array_equal(got, expected[index]):
                            raise AssertionError("scratch corruption")
            except BaseException as error:  # propagate to main thread
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestReducedPrecisionGuardband:
    def test_weight_rebind_is_picked_up(self):
        """The kernel reads the live parameters on every call, so
        rebinding weights (load_state_dict) takes effect on the next
        forward."""
        net = build()
        ids = batch(np.random.default_rng(10))
        with no_grad():
            before = net.forward_inference(ids)
            net.fc3.bias.data = net.fc3.bias.data + np.float32(1.0)
            net.fc1.weight.data = (net.fc1.weight.data
                                   * np.float32(2.0))
            after = net.forward_inference(ids)
            assert np.array_equal(after, net.forward(ids).data)
        assert not np.array_equal(before, after)


class TestAttentionWeightsModeRestore:
    def test_training_mode_survives_inspection(self):
        net = SEVulDetNet(vocab_size=20, dim=8, channels=8)
        assert net.training
        net.attention_weights(np.zeros((1, 6), dtype=np.int64))
        assert net.training
        assert net.dropout.training  # dropout still live mid-training

    def test_eval_mode_also_survives(self):
        net = SEVulDetNet(vocab_size=20, dim=8, channels=8)
        net.eval()
        net.attention_weights(np.zeros((1, 6), dtype=np.int64))
        assert not net.training
