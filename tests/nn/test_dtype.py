"""The global dtype policy (repro.nn.dtype) and its round-trips.

Training and inference default to float32 (half the memory traffic of
the old float64 everywhere); REPRO_DTYPE overrides the default, and
gradient-check suites pin float64 via their conftest.  Save/load must
round-trip across the policy: weights trained under either dtype load
back under either dtype, landing in whatever the *loading* session's
default is.
"""

import numpy as np
import pytest

from repro.nn import (Tensor, default_dtype, get_default_dtype,
                      load_model, save_model, set_default_dtype)
from repro.nn.dtype import _coerce
from repro.models.sevuldet import SEVulDetNet


class TestPolicy:
    def test_conftest_pins_float64_here(self):
        assert get_default_dtype() == np.float64

    def test_set_returns_previous(self):
        previous = set_default_dtype(np.float32)
        try:
            assert previous == np.float64
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        finally:
            set_default_dtype(previous)

    def test_context_manager_restores(self):
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_accepts_string_names(self):
        previous = set_default_dtype("float32")
        try:
            assert get_default_dtype() == np.float32
        finally:
            set_default_dtype(previous)

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_coerce_rejects_unknown_env_value(self):
        with pytest.raises(ValueError):
            _coerce("int8")

    def test_float16_is_not_a_supported_dtype(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.float16)

    def test_gradients_match_parameter_dtype(self):
        with default_dtype(np.float32):
            x = Tensor([1.0, 2.0], requires_grad=True)
            (x * x).sum().backward()
            assert x.grad.dtype == np.float32


class TestSaveLoadRoundTrip:
    """float32 <-> float64 persistence round-trips."""

    def build(self, seed=1):
        return SEVulDetNet(vocab_size=24, dim=8, channels=8, seed=seed)

    @pytest.mark.parametrize("save_dtype,load_dtype", [
        (np.float32, np.float64),
        (np.float64, np.float32),
        (np.float32, np.float32),
    ])
    def test_cross_dtype_round_trip(self, tmp_path, save_dtype,
                                    load_dtype):
        with default_dtype(save_dtype):
            source = self.build(seed=1)
            path = tmp_path / "model.npz"
            save_model(source, path)
            reference = {k: v.copy()
                         for k, v in source.state_dict().items()}
        with default_dtype(load_dtype):
            target = self.build(seed=99)
            load_model(target, path)
            ids = np.random.default_rng(0).integers(
                0, 24, size=(2, 11))
            for key, value in target.state_dict().items():
                assert value.dtype == load_dtype, key
                assert np.allclose(value, reference[key], atol=1e-6), \
                    key
            target.eval()
            out = target(ids)
            assert out.data.dtype == load_dtype
            assert np.all(np.isfinite(out.data))

    def test_outputs_close_across_dtypes(self, tmp_path):
        """A float64-trained model scores the same inputs nearly
        identically after a float32 round-trip."""
        ids = np.random.default_rng(0).integers(0, 24, size=(2, 11))
        with default_dtype(np.float64):
            source = self.build(seed=1)
            source.eval()
            wide = source(ids).data
            path = tmp_path / "model.npz"
            save_model(source, path)
        with default_dtype(np.float32):
            target = self.build(seed=99)
            load_model(target, path)
            target.eval()
            narrow = target(ids).data
        assert np.allclose(wide, narrow, atol=1e-4)
