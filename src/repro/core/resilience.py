"""Fault tolerance: per-case budgets, quarantine, and checkpoints.

The ROADMAP's target corpora (SARD-scale, then real-world code) are
messy: single pathological programs hang the slicer, exhaust the
recursion stack, or take a pool worker down with them, and a multi-hour
``fit`` can die with nothing to show for it.  This module collects the
mechanisms :func:`repro.core.extract.extract_gadgets` and
:func:`repro.core.train.train_classifier` use to survive all of
that:

* :func:`time_limit` — a SIGALRM-based per-case wall-clock budget that
  turns a hang into a catchable :class:`CaseTimeout` (works identically
  inline and inside pool workers; degrades to a no-op off the main
  thread or on platforms without ``SIGALRM``).
* :class:`CaseFailure` — the structured record a failed case leaves
  behind instead of an exception or a silent skip.
* :class:`Quarantine` — a persistent JSONL list of poison cases keyed
  by content fingerprint, reloaded on later runs so a case that hung
  yesterday is skipped for pennies today (and retried automatically
  the moment its source changes, because the fingerprint changes).
* :class:`TrainingCheckpoint` — atomic (temp file + rename) epoch
  checkpoints of model weights, Adam moments, RNG state, and the loss
  trajectory, so an interrupted training run resumed with ``--resume``
  finishes with byte-identical weights to an uninterrupted one.

Recovery *events* (timeouts, retries, quarantines, checkpoint writes)
are counted by the caller's :class:`~repro.core.telemetry.Telemetry`;
this module only supplies the mechanisms.
"""

from __future__ import annotations

import json
import logging
import re
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["CaseTimeout", "time_limit", "CaseFailure",
           "QUARANTINE_REASONS", "Quarantine", "coerce_quarantine",
           "TrainingCheckpoint", "CHECKPOINT_VERSION"]

logger = logging.getLogger(__name__)

#: Failure reasons poisonous enough to quarantine: retrying them is
#: expensive (hangs burn the full budget again, allocation storms
#: thrash the host).  Parse errors stay un-quarantined — re-failing is
#: cheap and keeps the diagnostics visible on every run.  'worker-crash'
#: is also excluded: pool breakage takes a whole *chunk* down, so the
#: record cannot name the guilty case and quarantining would blacklist
#: innocent chunk-mates.
QUARANTINE_REASONS = frozenset({"timeout", "memory"})


class CaseTimeout(Exception):
    """A case exceeded its wall-clock extraction budget."""


def _on_alarm(signum, frame):  # pragma: no cover - trivial
    raise CaseTimeout()


@contextmanager
def time_limit(seconds: float | None) -> Iterator[None]:
    """Raise :class:`CaseTimeout` in the block after ``seconds``.

    Uses ``SIGALRM`` (via ``setitimer``, so fractional budgets work),
    which interrupts pure-Python hangs and blocking sleeps alike.  When
    ``seconds`` is None/0, off the main thread, or on a platform
    without ``SIGALRM``, the block runs unguarded — callers degrade to
    the pre-timeout behavior rather than erroring.
    """
    if not seconds or seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return
    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not the main thread of this process
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class CaseFailure:
    """Structured record of one case the pipeline could not extract.

    Attributes:
        case_name: the failing case.
        reason: 'parse-error' | 'timeout' | 'recursion' | 'memory' |
            'worker-crash' | 'quarantined' | 'error'.
        detail: human-readable specifics (exception text, budget).
        attempts: extraction attempts consumed (0 for quarantine skips).
        quarantined: whether this run added the case to the quarantine.
    """

    case_name: str
    reason: str
    detail: str = ""
    attempts: int = 1
    quarantined: bool = False

    def as_record(self) -> dict:
        return {"case": self.case_name, "reason": self.reason,
                "detail": self.detail, "attempts": self.attempts,
                "quarantined": self.quarantined}


class Quarantine:
    """Persistent poison-case list (JSON lines, append-only op log).

    Cases are keyed by :meth:`~repro.datasets.manifest.TestCase.
    fingerprint`, i.e. by *content*: editing a quarantined case's
    source automatically un-quarantines it.  Corrupt or truncated
    lines are skipped on load — a half-written record can never take
    the whole list (or the run reading it) down.

    Entries used to be permanent, which turned *transient* failures
    (a timeout under load) into forever-skips.  The file is now an op
    log replayed on load: an ``add`` record activates a fingerprint,
    each ``{"op": "skip"}`` marker counts one pre-skip, and an
    ``{"op": "discharge"}`` marker retires the entry (appended when a
    quarantined case extracts cleanly again, or by operator tooling).
    With ``retry_after=N`` an entry that has been skipped N times
    stops matching :meth:`__contains__` — the next run retries it for
    real; a repeat failure re-:meth:`add`\\ s it with a fresh skip
    budget, a success :meth:`discharge`\\ s it.  The default
    ``retry_after=None`` keeps the historical skip-forever behavior.
    """

    def __init__(self, path: str | Path,
                 retry_after: int | None = None):
        self.path = Path(path)
        self.retry_after = retry_after
        #: active fingerprint -> pre-skips observed since its last add
        self._active: dict[str, int] | None = None

    def _load(self) -> dict[str, int]:
        if self._active is None:
            active: dict[str, int] = {}
            skipped = 0
            try:
                with self.path.open() as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            record = json.loads(line)
                            fingerprint = str(record["fingerprint"])
                            op = record.get("op", "add")
                        except (ValueError, TypeError, KeyError):
                            skipped += 1  # tolerate torn lines
                            continue
                        if op == "add":
                            active[fingerprint] = 0
                        elif op == "skip":
                            if fingerprint in active:
                                active[fingerprint] += 1
                        elif op == "discharge":
                            active.pop(fingerprint, None)
                        else:
                            skipped += 1
            except OSError:
                pass
            if skipped:
                # visible, not fatal: operators should know records
                # were lost to a torn write, but a half-written line
                # must never take the run down
                logger.warning(
                    "%s: skipped %d corrupt quarantine line(s) "
                    "(torn writes from an interrupted process)",
                    self.path, skipped)
            self._active = active
        return self._active

    def _append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, separators=(",", ":"))
                         + "\n")

    @staticmethod
    def _fingerprint_of(case) -> str:
        return case if isinstance(case, str) else case.fingerprint()

    def __contains__(self, case) -> bool:
        """Should this case (or raw fingerprint) be pre-skipped?

        False once an entry has exhausted its ``retry_after`` skip
        budget — the case is *listed* but due for a retry.
        """
        skips = self._load().get(self._fingerprint_of(case))
        if skips is None:
            return False
        return self.retry_after is None or skips < self.retry_after

    def listed(self, case) -> bool:
        """Is the case active in the log, retry-eligible or not?"""
        return self._fingerprint_of(case) in self._load()

    def __len__(self) -> int:
        return len(self._load())

    def add(self, case, reason: str, detail: str = "") -> bool:
        """Record a poison case; returns False if already skippable.

        Re-adding a retry-eligible entry (its skip budget ran out and
        the retry failed again) succeeds and resets the budget.
        """
        fingerprint = self._fingerprint_of(case)
        if fingerprint in self:
            return False
        self._load()[fingerprint] = 0
        self._append({"v": 1, "fingerprint": fingerprint,
                      "name": getattr(case, "name", ""),
                      "reason": reason, "detail": detail})
        return True

    def note_skip(self, case) -> None:
        """Count one pre-skip against the entry's retry budget."""
        fingerprint = self._fingerprint_of(case)
        active = self._load()
        if fingerprint not in active:
            return
        active[fingerprint] += 1
        self._append({"op": "skip", "fingerprint": fingerprint})

    def discharge(self, case) -> bool:
        """Retire an entry (the case extracts cleanly again)."""
        fingerprint = self._fingerprint_of(case)
        active = self._load()
        if fingerprint not in active:
            return False
        del active[fingerprint]
        self._append({"op": "discharge", "fingerprint": fingerprint})
        return True

    def reset(self) -> int:
        """Drop every entry (the ``--requarantine`` escape hatch).

        Truncates the log; returns how many active entries were
        dropped.  Cases that still fail re-enter on the next run.
        """
        dropped = len(self._load())
        self._active = {}
        if self.path.exists():
            self.path.write_text("")
        return dropped

    def records(self) -> list[dict]:
        """All readable quarantine records (diagnostics/reporting)."""
        out: list[dict] = []
        try:
            with self.path.open() as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        out.append(record)
        except OSError:
            pass
        return out


def coerce_quarantine(quarantine) -> Quarantine | None:
    """Accept a Quarantine, a JSONL path, or None."""
    if quarantine is None or isinstance(quarantine, Quarantine):
        return quarantine
    return Quarantine(quarantine)


#: Bump when the checkpoint payload layout changes.
CHECKPOINT_VERSION = 1

_MODEL_PREFIX = "model::"
_OPTIM_PREFIX = "optim::"
_BEST_PREFIX = "best::"

#: Positional optimizer moment keys, e.g. Adam's ``m0`` / ``v12``.
_MOMENT_KEY = re.compile(r"^([a-z]+?)(\d+)$")


def _optim_key_to_name(key: str, param_names: list[str]) -> str:
    """Rewrite a positional moment key (``m0``) to a name-keyed one
    (``m::fc1.weight``); scalar keys (``t``) and keys with no matching
    name pass through unchanged."""
    match = _MOMENT_KEY.match(key)
    if match is None:
        return key
    kind, index = match.group(1), int(match.group(2))
    if index >= len(param_names):
        return key
    return f"{kind}::{param_names[index]}"


def _optim_state_to_indices(optim_state: dict[str, np.ndarray],
                            param_names: list[str],
                            path) -> dict[str, np.ndarray]:
    """Translate name-keyed moment arrays (``m::fc1.weight``) back to
    the positional keys the optimizer's ``load_state_dict`` expects."""
    index_of = {name: i for i, name in enumerate(param_names)}
    translated: dict[str, np.ndarray] = {}
    for key, value in optim_state.items():
        kind, sep, name = key.partition("::")
        if not sep:
            translated[key] = value
            continue
        if name not in index_of:
            raise ValueError(
                f"checkpoint {path} stores optimizer state for "
                f"parameter {name!r}, which is not in the archive's "
                f"param_names list — the archive is corrupt")
        translated[f"{kind}{index_of[name]}"] = value
    return translated


@dataclass
class CheckpointState:
    """One loaded checkpoint, ready to be restored into a run."""

    epoch: int  # last *completed* epoch (0-based)
    model_state: dict[str, np.ndarray]
    optim_state: dict[str, np.ndarray]
    best_state: dict[str, np.ndarray] | None
    rng_state: dict
    model_rng_states: dict
    losses: list[float]
    val_f1: list[float]
    best_epoch: int
    best_f1: float
    stale: int
    config_token: str

    @property
    def next_epoch(self) -> int:
        return self.epoch + 1


class TrainingCheckpoint:
    """Atomic on-disk training checkpoints (one ``.npz`` per run).

    The archive bundles everything the training loop's future depends
    on — model parameters, Adam moments and step count, the numpy
    Generator's bit-generator state, the loss/early-stopping
    trajectory, and a ``config_token`` describing the run's
    hyper-parameters — so a resumed run replays the exact batch
    schedule and optimizer path of the run it continues.  Writes go to
    a sibling temp file renamed over the target: a crash mid-write
    leaves the previous checkpoint intact, never a torn archive.
    """

    FILENAME = "checkpoint.npz"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME

    def exists(self) -> bool:
        return self.path.exists()

    def clear(self) -> None:
        """Remove the checkpoint (e.g. after a completed run)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def save(self, *, epoch: int, model, optimizer,
             rng: np.random.Generator, losses: list[float],
             val_f1: list[float], best_epoch: int, best_f1: float,
             stale: int, best_state: dict[str, np.ndarray] | None,
             config_token: str, param_names: list[str]) -> None:
        """Persist the state reached after completing ``epoch``.

        ``param_names`` (dotted parameter names in optimizer order,
        from :meth:`~repro.nn.layers.Module.named_parameters`) keys the
        optimizer moment arrays by name — ``optim::m::fc1.weight`` —
        instead of the optimizer's positional ``m0``/``v0`` keys, so an
        archive stays readable if parameter *order* shifts but names do
        not.
        """
        from ..nn.serialize import save_npz_atomic

        arrays: dict[str, np.ndarray] = {}
        for key, value in model.state_dict().items():
            arrays[_MODEL_PREFIX + key] = value
        for key, value in optimizer.state_dict().items():
            arrays[_OPTIM_PREFIX + _optim_key_to_name(key, param_names)
                   ] = value
        if best_state is not None:
            for key, value in best_state.items():
                arrays[_BEST_PREFIX + key] = value
        metadata = {
            "version": CHECKPOINT_VERSION,
            "epoch": int(epoch),
            "rng_state": rng.bit_generator.state,
            # dropout draws from the model's own generator(s); resume
            # must continue those streams mid-sequence too
            "model_rng": getattr(model, "rng_states", dict)(),
            "losses": [float(x) for x in losses],
            "val_f1": [float(x) for x in val_f1],
            "best_epoch": int(best_epoch),
            "best_f1": float(best_f1),
            "stale": int(stale),
            "has_best": best_state is not None,
            "config_token": config_token,
            "param_names": param_names,
        }
        save_npz_atomic(self.path, arrays, metadata)

    def load(self, config_token: str | None = None
             ) -> CheckpointState | None:
        """Read the checkpoint back; None when there is none yet.

        Raises ``ValueError`` with the offending field named when the
        archive belongs to a different checkpoint format version, has
        no ``param_names`` to key its optimizer moments by, or — if
        ``config_token`` is given — belongs to a run with different
        hyper-parameters, instead of resuming into silent divergence.
        """
        if not self.path.exists():
            return None
        model_state: dict[str, np.ndarray] = {}
        optim_state: dict[str, np.ndarray] = {}
        best_state: dict[str, np.ndarray] = {}
        with np.load(self.path) as archive:
            metadata = json.loads(
                archive["__metadata__"].tobytes().decode())
            for key in archive.files:
                if key.startswith(_MODEL_PREFIX):
                    model_state[key[len(_MODEL_PREFIX):]] = archive[key]
                elif key.startswith(_OPTIM_PREFIX):
                    optim_state[key[len(_OPTIM_PREFIX):]] = archive[key]
                elif key.startswith(_BEST_PREFIX):
                    best_state[key[len(_BEST_PREFIX):]] = archive[key]
        version = metadata.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.path} has format version {version!r} "
                f"but this code writes version {CHECKPOINT_VERSION}; "
                f"delete it (or finish the run with matching code)")
        param_names = metadata.get("param_names")
        if not param_names:
            raise ValueError(
                f"checkpoint {self.path} has no param_names, so its "
                f"optimizer moments cannot be matched to parameters; "
                f"delete it and restart the run")
        optim_state = _optim_state_to_indices(
            optim_state, param_names, self.path)
        saved_token = metadata.get("config_token", "")
        if config_token is not None and saved_token != config_token:
            raise ValueError(
                f"checkpoint {self.path} was written by a run with "
                f"different settings ({saved_token!r}) than this one "
                f"({config_token!r}); resuming would diverge — use a "
                f"fresh --checkpoint-dir or matching hyper-parameters")
        return CheckpointState(
            epoch=int(metadata["epoch"]),
            model_state=model_state,
            optim_state=optim_state,
            best_state=best_state if metadata.get("has_best") else None,
            rng_state=metadata["rng_state"],
            model_rng_states=metadata.get("model_rng", {}),
            losses=list(metadata.get("losses", [])),
            val_f1=list(metadata.get("val_f1", [])),
            best_epoch=int(metadata.get("best_epoch", -1)),
            best_f1=float(metadata.get("best_f1", -1.0)),
            stale=int(metadata.get("stale", 0)),
            config_token=saved_token,
        )
