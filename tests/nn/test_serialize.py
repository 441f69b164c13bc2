"""Reduced-precision archive round-trips."""

import numpy as np

from repro.models.sevuldet import SEVulDetNet
from repro.nn.quantize import apply_inference_dtype
from repro.nn.serialize import load_model, save_model


class TestReducedPrecisionArchives:
    def test_int8_archive_round_trips_bitwise(self, tmp_path):
        # int8 archives hold the dequantized float32 grid values, so
        # loading restores the quantized weights exactly
        net = SEVulDetNet(vocab_size=15, dim=6, channels=4, seed=4)
        net.eval()
        apply_inference_dtype(net, "int8")
        saved = {k: v.copy() for k, v in net.state_dict().items()}
        path = tmp_path / "int8.npz"
        save_model(net, path, metadata={"inference_dtype": "int8"})

        fresh = SEVulDetNet(vocab_size=15, dim=6, channels=4, seed=8)
        metadata = load_model(fresh, path)
        assert metadata["inference_dtype"] == "int8"
        for key, value in fresh.state_dict().items():
            assert np.array_equal(value, saved[key]), key
