"""Crash-and-resume training tests.

The headline guarantee: a run killed mid-training and resumed from its
checkpoint finishes with *exactly* the weights an uninterrupted run
would have produced — same RNG draws, same batch schedule, same Adam
trajectory.  Everything here asserts exact array equality, not
closeness.
"""

import numpy as np
import pytest

from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.core.train import train_classifier
from repro.core.resilience import TrainingCheckpoint
from repro.core.telemetry import Telemetry
from repro.datasets.sard import generate_sard_corpus
from repro.models.sevuldet import SEVulDetNet
from repro.nn.optim import Adam
from repro.testing import faults


@pytest.fixture(scope="module")
def dataset():
    gadgets = extract_gadgets(generate_sard_corpus(10, seed=7))
    return encode_gadgets(gadgets, dim=8, w2v_epochs=0, seed=2)


def fresh_model(dataset):
    return SEVulDetNet(len(dataset.vocab), dim=8, channels=8, seed=3)


def state_of(model):
    return {key: value.copy()
            for key, value in model.state_dict().items()}


def assert_states_equal(left, right):
    assert sorted(left) == sorted(right)
    for key in left:
        assert np.array_equal(left[key], right[key]), key


class TestCheckpointWrites:
    def test_checkpoint_written_atomically(self, dataset, tmp_path):
        model = fresh_model(dataset)
        train_classifier(model, dataset.samples, epochs=2, seed=5,
                         checkpoint_dir=tmp_path)
        checkpoint = TrainingCheckpoint(tmp_path)
        assert checkpoint.exists()
        assert not list(tmp_path.glob("*.tmp"))
        state = checkpoint.load()
        assert state.epoch == 1  # last completed epoch, 0-based
        assert len(state.losses) == 2

    def test_checkpoint_every_skips_epochs(self, dataset, tmp_path):
        telemetry = Telemetry()
        train_classifier(fresh_model(dataset), dataset.samples,
                         epochs=4, seed=5, checkpoint_dir=tmp_path,
                         checkpoint_every=3, telemetry=telemetry)
        # epoch 2 (every-3rd) and the final epoch 3
        assert telemetry.get("checkpoint_writes") == 2

    def test_telemetry_counts_writes(self, dataset, tmp_path):
        telemetry = Telemetry()
        train_classifier(fresh_model(dataset), dataset.samples,
                         epochs=3, seed=5, checkpoint_dir=tmp_path,
                         telemetry=telemetry)
        assert telemetry.get("checkpoint_writes") == 3


class TestKillAndResume:
    def test_resume_matches_uninterrupted_exactly(self, dataset,
                                                  tmp_path):
        baseline = fresh_model(dataset)
        train_classifier(baseline, dataset.samples, epochs=4, seed=5)
        expected = state_of(baseline)

        victim = fresh_model(dataset)
        with faults.injected("raise@train-batch:2.0"):
            with pytest.raises(RuntimeError):
                train_classifier(victim, dataset.samples, epochs=4,
                                 seed=5, checkpoint_dir=tmp_path)
        # epochs 0 and 1 completed and were checkpointed
        assert TrainingCheckpoint(tmp_path).load().epoch == 1

        resumed = fresh_model(dataset)
        telemetry = Telemetry()
        report = train_classifier(resumed, dataset.samples, epochs=4,
                                  seed=5, checkpoint_dir=tmp_path,
                                  resume=True, telemetry=telemetry)
        assert telemetry.get("checkpoint_resumes") == 1
        assert len(report.losses) == 4
        assert_states_equal(state_of(resumed), expected)

    def test_resume_with_validation_matches_exactly(self, dataset,
                                                    tmp_path):
        split = len(dataset.samples) * 3 // 4
        train, val = (dataset.samples[:split], dataset.samples[split:])

        baseline = fresh_model(dataset)
        base_report = train_classifier(baseline, train, epochs=4,
                                       seed=5, validation=val)
        expected = state_of(baseline)

        victim = fresh_model(dataset)
        with faults.injected("raise@train-batch:2.0"):
            with pytest.raises(RuntimeError):
                train_classifier(victim, train, epochs=4, seed=5,
                                 validation=val,
                                 checkpoint_dir=tmp_path)

        resumed = fresh_model(dataset)
        report = train_classifier(resumed, train, epochs=4, seed=5,
                                  validation=val,
                                  checkpoint_dir=tmp_path,
                                  resume=True)
        assert report.val_f1 == base_report.val_f1
        assert report.best_epoch == base_report.best_epoch
        assert_states_equal(state_of(resumed), expected)

    def test_resume_losses_continue_the_same_trajectory(
            self, dataset, tmp_path):
        baseline = fresh_model(dataset)
        base_report = train_classifier(baseline, dataset.samples,
                                       epochs=4, seed=5)
        victim = fresh_model(dataset)
        with faults.injected("raise@train-batch:2.0"):
            with pytest.raises(RuntimeError):
                train_classifier(victim, dataset.samples, epochs=4,
                                 seed=5, checkpoint_dir=tmp_path)
        report = train_classifier(fresh_model(dataset),
                                  dataset.samples, epochs=4, seed=5,
                                  checkpoint_dir=tmp_path, resume=True)
        assert report.losses == base_report.losses

    def test_resume_on_empty_dir_trains_from_scratch(self, dataset,
                                                     tmp_path):
        baseline = fresh_model(dataset)
        train_classifier(baseline, dataset.samples, epochs=2, seed=5)
        resumed = fresh_model(dataset)
        train_classifier(resumed, dataset.samples, epochs=2, seed=5,
                         checkpoint_dir=tmp_path, resume=True)
        assert_states_equal(state_of(resumed), state_of(baseline))

    def test_config_mismatch_refuses_to_resume(self, dataset,
                                               tmp_path):
        train_classifier(fresh_model(dataset), dataset.samples,
                         epochs=2, seed=5, checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="different settings"):
            train_classifier(fresh_model(dataset), dataset.samples,
                             epochs=2, seed=6,  # different seed
                             checkpoint_dir=tmp_path, resume=True)

    def test_finished_run_can_be_extended(self, dataset, tmp_path):
        baseline = fresh_model(dataset)
        train_classifier(baseline, dataset.samples, epochs=5, seed=5)

        model = fresh_model(dataset)
        train_classifier(model, dataset.samples, epochs=3, seed=5,
                         checkpoint_dir=tmp_path)
        report = train_classifier(model, dataset.samples, epochs=5,
                                  seed=5, checkpoint_dir=tmp_path,
                                  resume=True)
        assert len(report.losses) == 5
        assert_states_equal(state_of(model), state_of(baseline))


class TestOptimizerState:
    def test_adam_state_dict_roundtrip(self, dataset):
        twin = fresh_model(dataset)
        source = Adam(twin.parameters(), lr=1e-3)
        rng = np.random.default_rng(0)
        for param in twin.parameters():
            param.grad = rng.normal(size=param.data.shape)
        source.step()
        state = source.state_dict()
        target = Adam(fresh_model(dataset).parameters(), lr=1e-3)
        target.load_state_dict(state)
        restored = target.state_dict()
        assert sorted(state) == sorted(restored)
        for key in state:
            assert np.array_equal(state[key], restored[key]), key

    def test_adam_rejects_mismatched_shapes(self, dataset):
        model = fresh_model(dataset)
        optimizer = Adam(model.parameters(), lr=1e-3)
        state = optimizer.state_dict()
        state["m0"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            optimizer.load_state_dict(state)


class TestResumeViaCLI:
    def test_interrupt_resume_matches_uninterrupted(self, tmp_path):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        base = tmp_path / "base.npz"
        resumed = tmp_path / "resumed.npz"
        common = ["train", "--cases", "10", "--seed", "3",
                  "--cache-dir", cache]

        assert main(common + ["--out", str(base)]) == 0

        checkpoints = str(tmp_path / "checkpoints")
        with faults.injected("raise@train-batch:1.0"):
            with pytest.raises(RuntimeError):
                main(common + ["--out", str(resumed),
                               "--checkpoint-dir", checkpoints])
        assert main(common + ["--out", str(resumed),
                              "--checkpoint-dir", checkpoints,
                              "--resume"]) == 0

        with np.load(base) as left, np.load(resumed) as right:
            assert sorted(left.files) == sorted(right.files)
            for key in left.files:
                assert np.array_equal(left[key], right[key]), key

    def test_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["train", "--cases", "1", "--resume",
                     "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_extract_cli_quarantines_hung_case(self, tmp_path,
                                               capsys):
        from repro.cli import main

        qpath = tmp_path / "quarantine.jsonl"
        out = tmp_path / "gadgets.jsonl"
        with faults.injected("hang@case:#1:30"):
            code = main(["extract", "--cases", "5", "--seed", "3",
                         "--case-timeout", "0.5",
                         "--quarantine", str(qpath),
                         "--out", str(out), "--stats"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "skipped 1 case(s)" in captured
        assert "timeout" in captured
        assert qpath.exists()


class TestNameKeyedCheckpoints:
    """Optimizer moments are keyed by dotted parameter names."""

    def _param_names(self, model, optimizer):
        by_id = {id(p): name for name, p in model.named_parameters()}
        return [by_id[id(p)] for p in optimizer.params]

    def test_checkpoint_optimizer_arrays_are_name_keyed(
            self, dataset, tmp_path):
        model = fresh_model(dataset)
        train_classifier(model, dataset.samples, epochs=1, seed=5,
                         checkpoint_dir=tmp_path)
        with np.load(tmp_path / "checkpoint.npz") as archive:
            optim_keys = [k for k in archive.files
                          if k.startswith("optim::")]
        assert optim_keys
        named = [k for k in optim_keys if "::m::" in k or "::v::" in k]
        assert named, optim_keys
        assert all("." in key for key in named)  # dotted paths
        assert not any(k.removeprefix("optim::").startswith(("m0", "v0"))
                       for k in optim_keys if k != "optim::t")

    def test_name_keyed_save_load_roundtrip(self, dataset, tmp_path):
        from repro.core.resilience import TrainingCheckpoint

        model = fresh_model(dataset)
        optimizer = Adam(model.parameters(), lr=1e-3)
        rng = np.random.default_rng(0)
        for param in optimizer.params:
            param.grad = rng.normal(size=param.data.shape)
        optimizer.step()
        expected = optimizer.state_dict()

        checkpoint = TrainingCheckpoint(tmp_path)
        checkpoint.save(epoch=0, model=model, optimizer=optimizer,
                        rng=rng, losses=[0.5], val_f1=[],
                        best_epoch=-1, best_f1=-1.0, stale=0,
                        best_state=None, config_token="tok",
                        param_names=self._param_names(model, optimizer))
        state = checkpoint.load("tok")
        assert sorted(state.optim_state) == sorted(expected)
        for key in expected:
            assert np.array_equal(state.optim_state[key],
                                  expected[key]), key

    def test_checkpoint_without_param_names_is_refused(self, dataset,
                                                       tmp_path):
        """A checkpoint whose metadata lacks param_names cannot match
        its optimizer moments to parameters, so load refuses it."""
        import json

        from repro.nn.serialize import save_npz_atomic

        train_classifier(fresh_model(dataset), dataset.samples,
                         epochs=1, seed=5, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint.npz"
        with np.load(path) as archive:
            metadata = json.loads(
                archive["__metadata__"].tobytes().decode())
            arrays = {k: archive[k] for k in archive.files
                      if k != "__metadata__"}
        assert metadata.pop("param_names")  # the writer recorded them
        save_npz_atomic(path, arrays, metadata)

        with pytest.raises(ValueError, match="param_names") as error:
            TrainingCheckpoint(tmp_path).load()
        assert str(path) in str(error.value)
        with pytest.raises(ValueError, match="param_names"):
            train_classifier(fresh_model(dataset), dataset.samples,
                             epochs=2, seed=5, checkpoint_dir=tmp_path,
                             resume=True)

    def test_unknown_name_rejected_as_corrupt(self, tmp_path):
        from repro.core.resilience import _optim_state_to_indices

        state = {"m::ghost.weight": np.zeros(2), "t": np.array(3)}
        with pytest.raises(ValueError, match="corrupt"):
            _optim_state_to_indices(state, ["fc.weight"],
                                    tmp_path / "checkpoint.npz")
