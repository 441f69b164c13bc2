"""Stage-level pipeline instrumentation (wall time + counters).

Extraction at corpus scale is the hot path the ROADMAP targets; this
module gives it a lightweight, dependency-free observability layer.  A
:class:`Telemetry` object accumulates named counters (cases parsed,
cases skipped, gadgets emitted, dedup hits, cache hits/misses, ...) and
per-stage wall-clock timings.  Worker processes build their own
instances and the fan-in :meth:`Telemetry.merge`\\ s them, so the same
object works for the serial path, the process pool, and warm-cache
runs alike.  The CLI prints :meth:`Telemetry.summary`; tests and
benchmarks assert on the raw counters.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Telemetry"]

#: (counter, stage, unit) triples rendered as throughputs by
#: :meth:`Telemetry.summary` when both sides were recorded; the
#: counters come from Word2Vec.train and train_classifier.
_KNOWN_RATES = (
    ("w2v_tokens", "w2v-train", "tokens/s"),
    ("w2v_pairs", "w2v-train", "pairs/s"),
    ("train_samples", "train", "samples/s"),
    ("train_batches", "train", "batches/s"),
    ("scan_cases", "scan", "cases/s"),
)

#: Per-distribution sample cap: each distribution keeps its most recent
#: samples, so memory stays bounded and a long-running daemon's
#: percentiles follow current traffic instead of its first requests.
MAX_OBSERVATIONS = 4096


#: Structured events kept per Telemetry instance; overflow is counted
#: in ``events_dropped`` rather than growing without bound.
MAX_EVENTS = 100


@dataclass
class Telemetry:
    """Named counters, per-stage wall times, and a bounded event log.

    One instance may be shared across threads (the scan service's
    scorer workers, its extraction thread, server dispatchers):
    every read-modify-write runs under an internal re-entrant lock, so
    concurrent increments are never lost.  The lock is an
    implementation detail — it stays out of :meth:`as_dict` payloads
    and is recreated on unpickle.
    """

    counters: dict[str, int] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_calls: dict[str, int] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    observations: dict[str, deque[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # RLock: event() counts events_dropped while already holding
        # the lock.  Not a dataclass field so __eq__/repr/pickle stay
        # payload-only.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- counters ------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never counted)."""
        return self.counters.get(name, 0)

    # -- events --------------------------------------------------------------

    def event(self, kind: str, **fields) -> None:
        """Append one structured event (skip reasons, recovery steps).

        Events carry the *why* that counters flatten away — e.g.
        ``event("case-skip", case="x.c", reason="timeout")`` — and are
        capped at :data:`MAX_EVENTS` per instance so a pathological
        corpus cannot turn telemetry into the memory hog.
        """
        with self._lock:
            if len(self.events) < MAX_EVENTS:
                self.events.append({"kind": kind, **fields})
            else:
                self.count("events_dropped")

    # -- distributions -------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one sample of distribution ``name`` (latency, queue
        depth, batch fill, ...).  Each distribution keeps its most
        recent :data:`MAX_OBSERVATIONS` samples; every evicted sample
        increments ``observations_dropped``."""
        with self._lock:
            samples = self.observations.get(name)
            if samples is None:
                samples = self.observations[name] = deque(
                    maxlen=MAX_OBSERVATIONS)
            if len(samples) == MAX_OBSERVATIONS:
                self.count("observations_dropped")
            samples.append(float(value))

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile (0-100) of distribution ``name``
        (0.0 when nothing was observed)."""
        with self._lock:
            ordered = sorted(self.observations.get(name, ()))
        if not ordered:
            return 0.0
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def observation_stats(self, name: str) -> dict[str, float]:
        """count / mean / p50 / p95 / max of one distribution."""
        with self._lock:
            samples = list(self.observations.get(name, ()))
        if not samples:
            return {"count": 0}
        return {
            "count": len(samples),
            "mean": sum(samples) / len(samples),
            "p50": self.percentile(name, 50.0),
            "p95": self.percentile(name, 95.0),
            "max": max(samples),
        }

    # -- stages --------------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one invocation of stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, time.perf_counter() - start)

    def add_stage(self, name: str, seconds: float,
                  calls: int = 1) -> None:
        """Record ``seconds`` of wall time (and ``calls`` invocations)
        against stage ``name``."""
        with self._lock:
            self.stage_seconds[name] = \
                self.stage_seconds.get(name, 0.0) + seconds
            self.stage_calls[name] = \
                self.stage_calls.get(name, 0) + calls

    def seconds(self, name: str) -> float:
        """Accumulated wall time of stage ``name``."""
        return self.stage_seconds.get(name, 0.0)

    def calls(self, name: str) -> int:
        """Accumulated invocation count of stage ``name``."""
        return self.stage_calls.get(name, 0)

    def rate(self, counter: str, stage: str) -> float:
        """Counter per second of stage wall time (0.0 when untimed)."""
        seconds = self.seconds(stage)
        return self.get(counter) / seconds if seconds > 0 else 0.0

    def rates(self) -> dict[str, float]:
        """The known throughputs (tokens/sec, pairs/sec, ...) that have
        both a counter and a timed stage recorded."""
        out: dict[str, float] = {}
        for counter, stage, unit in _KNOWN_RATES:
            if self.get(counter) and self.seconds(stage) > 0:
                out[unit] = self.rate(counter, stage)
        return out

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold another instance (e.g. from a worker) into this one."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, seconds in other.stage_seconds.items():
            self.add_stage(name, seconds,
                           calls=other.stage_calls.get(name, 0))
        for event in other.events:
            self.event(**event)
        for name, samples in other.observations.items():
            for value in samples:
                self.observe(name, value)
        return self

    def merge_dict(self, data: dict) -> "Telemetry":
        """Fold an :meth:`as_dict` payload (picklable worker result)."""
        for name, value in data.get("counters", {}).items():
            self.count(name, int(value))
        calls = data.get("stage_calls", {})
        for name, seconds in data.get("stage_seconds", {}).items():
            self.add_stage(name, float(seconds),
                           calls=int(calls.get(name, 0)))
        for event in data.get("events", ()):
            self.event(**event)
        for name, samples in data.get("observations", {}).items():
            for value in samples:
                self.observe(name, float(value))
        return self

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON/pickle friendly)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "stage_seconds": dict(self.stage_seconds),
                "stage_calls": dict(self.stage_calls),
                "events": [dict(event) for event in self.events],
                "observations": {name: list(samples) for name, samples
                                 in self.observations.items()},
            }

    def summary(self) -> str:
        """Human-readable multi-line report (counters then stages)."""
        with self._lock:
            return self._summary_locked()

    def _summary_locked(self) -> str:
        lines = ["telemetry:"]
        for name in sorted(self.counters):
            lines.append(f"  {name:<24s} {self.counters[name]}")
        for name in sorted(self.stage_seconds):
            lines.append(
                f"  stage {name:<18s} {self.stage_seconds[name]:9.4f}s"
                f"  ({self.stage_calls.get(name, 0)} calls)")
        for unit, value in self.rates().items():
            lines.append(f"  rate  {unit:<18s} {value:12.1f}")
        for name in sorted(self.observations):
            stats = self.observation_stats(name)
            lines.append(
                f"  dist  {name:<18s} n={stats['count']}"
                f" mean={stats['mean']:.4f} p50={stats['p50']:.4f}"
                f" p95={stats['p95']:.4f} max={stats['max']:.4f}")
        for event in self.events:
            fields = " ".join(f"{key}={value}" for key, value
                              in event.items() if key != "kind")
            lines.append(f"  event {event.get('kind', '?'):<18s} "
                         f"{fields}")
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)
