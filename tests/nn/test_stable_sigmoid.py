"""Regression tests for the float32 sigmoid overflow fix.

``exp(500)`` is infinite under float32 (finite ``exp`` stops near 88),
so the old ``1 / (1 + exp(-clip(z, -500, 500)))`` emitted an overflow
RuntimeWarning on confidently-negative logits and leaned on IEEE inf
propagation for the answer.  Every test here runs under
``np.errstate(over="raise", invalid="raise")`` so any regression is a
hard FloatingPointError, not a warning scrolled past in CI.
"""

import numpy as np
import pytest

from repro.models.sevuldet import SEVulDetNet
from repro.nn import Tensor, stable_sigmoid

EXTREME = [-5000.0, -500.0, -89.0, -1.0, 0.0, 1.0, 89.0, 500.0, 5000.0]


class TestStableSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_fp_warning_on_extreme_logits(self, dtype):
        logits = np.array(EXTREME, dtype=dtype)
        with np.errstate(over="raise", invalid="raise",
                         divide="raise"):
            probs = stable_sigmoid(logits)
        assert probs.dtype == dtype
        assert np.isfinite(probs).all()
        assert ((probs >= 0.0) & (probs <= 1.0)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_in_safe_range(self, dtype):
        logits = np.linspace(-30, 30, 201).astype(dtype)
        expected = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
        assert np.allclose(stable_sigmoid(logits), expected,
                           atol=1e-6)

    def test_saturation_and_symmetry(self):
        logits = np.array(EXTREME)
        probs = stable_sigmoid(logits)
        assert probs[0] < 1e-300 and probs[-1] == 1.0
        assert stable_sigmoid(np.array([0.0]))[0] == 0.5
        assert np.allclose(probs + stable_sigmoid(-logits), 1.0)

    def test_integer_input_promoted_to_float(self):
        probs = stable_sigmoid(np.array([-1000, 0, 1000]))
        assert probs.dtype.kind == "f"
        assert probs[0] < 1e-300
        assert probs[1] == 0.5 and probs[2] == 1.0


class TestPredictProbaStability:
    def test_model_predict_proba_never_warns(self, monkeypatch):
        """End-to-end: a model whose head emits extreme float32 logits
        must score without any floating-point warning, through both
        the eval-mode fused kernel and the training-mode graph
        forward that ``predict_proba`` routes between."""
        model = SEVulDetNet(vocab_size=16, dim=8, channels=4, seed=0)
        model.eval()
        logits = np.array(EXTREME, dtype=np.float32)
        monkeypatch.setattr(model, "forward",
                            lambda token_ids: Tensor(logits))
        monkeypatch.setattr(model, "forward_inference",
                            lambda token_ids, lengths=None: logits)
        token_ids = np.zeros((len(EXTREME), 6), dtype=np.int64)
        for mode in (model.eval, model.train):
            mode()
            with np.errstate(over="raise", invalid="raise"):
                probs = model.predict_proba(token_ids)
            assert np.isfinite(probs).all()
            # Scores keep the logits' compute dtype, so sigmoid(-500)
            # saturates at that dtype's underflow floor: ~3e-39 under
            # float32, ~7e-218 under float64 — tiny either way.
            assert probs[1] < 1e-38
            assert probs[-2] == 1.0   # sigmoid(+500) saturates to 1
