"""Reduced-precision archive round-trips."""

import numpy as np

from repro.models.sevuldet import SEVulDetNet
from repro.nn.quantize import apply_inference_dtype
from repro.nn.serialize import load_model, save_model


class TestReducedPrecisionArchives:
    def test_float16_archive_round_trips_bitwise(self, tmp_path):
        net = SEVulDetNet(vocab_size=15, dim=6, channels=4, seed=4)
        net.eval()
        apply_inference_dtype(net, "float16")
        saved = {k: v.copy() for k, v in net.state_dict().items()}
        path = tmp_path / "f16.npz"
        save_model(net, path, metadata={"inference_dtype": "float16"})

        fresh = SEVulDetNet(vocab_size=15, dim=6, channels=4, seed=8)
        metadata = load_model(fresh, path)
        assert metadata["inference_dtype"] == "float16"
        # load_state_dict lands in the session default (float32);
        # re-applying the dtype recovers the exact half-precision
        # bytes because f16 -> f32 -> f16 is lossless
        apply_inference_dtype(fresh, "float16")
        for key, value in fresh.state_dict().items():
            assert value.dtype == saved[key].dtype, key
            assert np.array_equal(value, saved[key]), key

    def test_float16_archive_stores_half_precision_bytes(self, tmp_path):
        net = SEVulDetNet(vocab_size=15, dim=6, channels=4, seed=4)
        apply_inference_dtype(net, "float16")
        path = tmp_path / "f16.npz"
        save_model(net, path)
        with np.load(path) as archive:
            dtypes = {archive[key].dtype for key in archive.files
                      if key != "__metadata__"
                      and archive[key].ndim >= 2}
        assert dtypes == {np.dtype(np.float16)}
