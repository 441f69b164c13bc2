"""Serialization round-trips for the full model zoo."""

import numpy as np
import pytest

from repro.models.bgru import BGRUNet
from repro.models.blstm import BLSTMNet
from repro.models.multiclass import CWETypeNet
from repro.models.sevuldet import SEVulDetNet
from repro.nn import load_model, save_model


def assert_same_outputs(a, b, ids):
    a.eval(), b.eval()
    assert np.allclose(a(ids).data, b(ids).data)


class TestModelRoundTrips:
    def test_sevuldet(self, tmp_path):
        source = SEVulDetNet(vocab_size=40, dim=8, channels=8, seed=1)
        path = tmp_path / "sevuldet.npz"
        save_model(source, path)
        target = SEVulDetNet(vocab_size=40, dim=8, channels=8, seed=99)
        load_model(target, path)
        ids = np.random.default_rng(0).integers(0, 40, size=(3, 15))
        assert_same_outputs(source, target, ids)

    def test_sevuldet_without_attention(self, tmp_path):
        source = SEVulDetNet(vocab_size=40, dim=8, channels=8, seed=1,
                             use_token_attention=False, use_cbam=False)
        path = tmp_path / "cnn.npz"
        save_model(source, path)
        target = SEVulDetNet(vocab_size=40, dim=8, channels=8,
                             seed=99, use_token_attention=False,
                             use_cbam=False)
        load_model(target, path)
        ids = np.random.default_rng(0).integers(0, 40, size=(2, 9))
        assert_same_outputs(source, target, ids)

    @pytest.mark.parametrize("cls", [BLSTMNet, BGRUNet])
    def test_brnn(self, cls, tmp_path):
        source = cls(vocab_size=30, dim=6, hidden=5, time_steps=8,
                     seed=1)
        path = tmp_path / "rnn.npz"
        save_model(source, path)
        target = cls(vocab_size=30, dim=6, hidden=5, time_steps=8,
                     seed=99)
        load_model(target, path)
        ids = np.zeros((2, 8), dtype=np.int64)
        assert_same_outputs(source, target, ids)

    def test_multiclass(self, tmp_path):
        source = CWETypeNet(vocab_size=30, num_classes=4, dim=8,
                            channels=8, seed=1)
        path = tmp_path / "typer.npz"
        save_model(source, path)
        target = CWETypeNet(vocab_size=30, num_classes=4, dim=8,
                            channels=8, seed=99)
        load_model(target, path)
        ids = np.random.default_rng(0).integers(0, 30, size=(2, 7))
        assert_same_outputs(source, target, ids)

    def test_mismatched_architecture_rejected(self, tmp_path):
        source = SEVulDetNet(vocab_size=40, dim=8, channels=8)
        path = tmp_path / "m.npz"
        save_model(source, path)
        smaller = SEVulDetNet(vocab_size=40, dim=4, channels=8)
        with pytest.raises(ValueError):
            load_model(smaller, path)

    def test_ablation_variant_mismatch_rejected(self, tmp_path):
        source = SEVulDetNet(vocab_size=40, dim=8, channels=8,
                             use_cbam=False)
        path = tmp_path / "m.npz"
        save_model(source, path)
        full = SEVulDetNet(vocab_size=40, dim=8, channels=8)
        with pytest.raises(KeyError):
            load_model(full, path)


class TestLegacyArchives:
    """Archives are keyed by dotted parameter names; positional
    ``param0``..``paramN`` archives from older code do not load."""

    def test_positional_archive_raises_key_error(self, tmp_path):
        source = SEVulDetNet(vocab_size=40, dim=8, channels=8, seed=1)
        path = tmp_path / "legacy.npz"
        np.savez(path, **{f"param{i}": p.data
                          for i, p in enumerate(source.parameters())})
        target = SEVulDetNet(vocab_size=40, dim=8, channels=8, seed=99)
        with pytest.raises(KeyError, match="embedding.weight"):
            load_model(target, path)

    def test_new_archives_are_name_keyed(self, tmp_path):
        model = SEVulDetNet(vocab_size=40, dim=8, channels=8, seed=1)
        path = tmp_path / "named.npz"
        save_model(model, path)
        with np.load(path) as archive:
            keys = set(archive.files)
        expected = {name for name, _ in model.named_parameters()}
        assert expected <= keys
        assert not any(k.startswith("param") and k[5:].isdigit()
                       for k in keys)
