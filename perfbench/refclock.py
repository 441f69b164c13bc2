"""Reference-normalized timing.

The host this benchmark was built on switches each of its CPUs, on
its own, between speed states about 1.45x apart, every quarter second
to ten seconds, so raw wall times of the same code differ by more than
a tenth from run to run.  Every timed slice
(about 0.1 s of work) therefore runs between two calls to a fixed
pure-Python reference loop, run once on each CPU, and its raw time is
rescaled by the mean of those two reference times::

    normalized = raw * REF_NOMINAL_S / mean(ref_before, ref_after)

A normalized second is "one second on a host where the reference loop
takes exactly ``REF_NOMINAL_S``".  The reference loop and its two
constants are part of the benchmark's definition: editing them
changes every normalized number, so they are never edited.

The reference is only trusted while the program is idle.  An
:class:`IdleGuard` samples the on-CPU time (``/proc/.../schedstat``)
of every *other* thread of this process and of every process in the
watched daemon trees around each reference call; if they gained more
than ``IDLE_TOLERANCE`` of the reference's wall time, the reference is
marked contaminated and the slices next to it use the run's median
reference instead.  Without the guard a background thread left
spinning would slow the reference and inflate every normalized number.

Set-up lasts seconds, long enough for the host to change state inside
it, so it is normalized phase by phase: :meth:`RefClock.mark` closes a
phase at a natural boundary (imports done, model loaded, service
started, ...) with a reference of its own, and each phase is rescaled
by the references at its two ends, like a slice.  A phase's work can
run on other threads or processes and the host's speed changes within
it, so this tracks set-up less closely than a slice: set-up is sampled
several times per run and the median is reported.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

#: iterations of the reference loop (about 5 ms on the build host)
REF_ITERATIONS = 40_000
#: the reference time a normalized second is defined against
REF_NOMINAL_S = 0.005
#: other-thread CPU gained during a reference, as a share of its wall
#: time, above which the reference counts as contaminated
IDLE_TOLERANCE = 0.02
#: a slice ends at the first operation boundary after this much work
SLICE_TARGET_S = 0.1
#: ``tail_ms`` is read at no higher percentile than this
TAIL_CAP = 90
#: operations that must lie beyond the ``tail_ms`` percentile
TAIL_BEYOND = 10


def reference_loop() -> int:
    """The fixed arithmetic reference: integer multiply-add-mask."""
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def _schedstat_ns(path: Path) -> int:
    """On-CPU nanoseconds of one task (0 if it vanished)."""
    try:
        return int(path.read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0


def descendants(pid: int) -> list[int]:
    """``pid`` and every live descendant process."""
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        for children in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                stack.extend(int(c) for c in children.read_text().split())
            except (OSError, ValueError):
                continue
    return found


def wait_gone(pids: list[int], timeout: float = 30.0) -> None:
    """Wait until none of ``pids`` exists (they need not be our
    children, so this polls ``/proc``)."""
    deadline = time.monotonic() + timeout
    while any(Path(f"/proc/{pid}").exists() for pid in pids) and \
            time.monotonic() < deadline:
        time.sleep(0.01)


class IdleGuard:
    """CPU time of everything that must stay idle during a reference:
    this process's other threads plus the watched process trees."""

    def __init__(self):
        self.watched: list[int] = []

    def watch(self, pid: int) -> None:
        self.watched.append(pid)

    def busy_ns(self) -> int:
        me = threading.get_native_id()
        total = 0
        for task in Path("/proc/self/task").iterdir():
            if int(task.name) != me:
                total += _schedstat_ns(task / "schedstat")
        for root in self.watched:
            for pid in descendants(root):
                for task in Path(f"/proc/{pid}/task").glob("*"):
                    total += _schedstat_ns(task / "schedstat")
        return total


@dataclass
class Slice:
    """One timed stretch of work between two reference calls."""

    raw_s: float
    ref_before: int
    ref_after: int
    #: (raw latency in seconds, files brought to a checked verdict)
    ops: list[tuple[float, int]] = field(default_factory=list)
    traced: bool = False


@dataclass
class Phase:
    """One stretch of set-up between two reference calls; ``counted``
    is false for history that is timed but is not set-up."""

    name: str
    raw_s: float
    ref_before: int
    ref_after: int
    counted: bool = True


class RefClock:
    """Runs references, records slices and set-up phases, and
    normalizes them.  ``start`` is when set-up began (process start)."""

    def __init__(self, start: float | None = None):
        self.guard = IdleGuard()
        self.refs: list[float] = []
        self.contaminated: list[bool] = []
        self.slices: list[Slice] = []
        self.phases: list[Phase] = []
        self._phase_start = time.perf_counter() if start is None else start
        self._phase_ref: int | None = None

    def reference(self) -> int:
        """Run the reference once on each CPU this process may use and
        keep the mean time; returns its index.

        The host's CPUs change speed independently of each other, and
        the program's threads run on all of them, so one CPU's speed
        says little about a slice's."""
        busy_before = self.guard.busy_ns()
        cpus = os.sched_getaffinity(0)
        seconds = 0.0
        try:
            for cpu in sorted(cpus):
                # pid 0 pins only the calling thread
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                reference_loop()
                seconds += time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, cpus)
        seconds /= len(cpus)
        gained = self.guard.busy_ns() - busy_before
        self.refs.append(seconds)
        self.contaminated.append(gained > IDLE_TOLERANCE * seconds * 1e9)
        return len(self.refs) - 1

    def mark(self, name: str, counted: bool = True) -> None:
        """Close the set-up phase ``name`` that began at the previous
        mark (or at ``start``).  The reference run here is off the
        clock; the first phase has no reference before it and is
        rescaled by the one after it alone."""
        end = time.perf_counter()
        after = self.reference()
        before = after if self._phase_ref is None else self._phase_ref
        self.phases.append(Phase(name, end - self._phase_start, before,
                                 after, counted))
        self._phase_ref = after
        self._phase_start = time.perf_counter()

    def phase_seconds(self) -> dict[str, dict]:
        """Raw and normalized seconds of each set-up phase (summed over
        the phases of one name)."""
        totals: dict[str, dict] = {}
        for p in self.phases:
            entry = totals.setdefault(p.name, {
                "raw_s": 0.0, "normalized_s": 0.0, "counted": p.counted})
            entry["raw_s"] += p.raw_s
            entry["normalized_s"] += p.raw_s * self.factor(p.ref_before,
                                                           p.ref_after)
        return totals

    def setup_seconds(self) -> tuple[float, float]:
        """Normalized and raw seconds of the counted set-up phases."""
        counted = [p for p in self.phases if p.counted]
        return (sum(p.raw_s * self.factor(p.ref_before, p.ref_after)
                    for p in counted),
                sum(p.raw_s for p in counted))

    def loop(self, prepare, run, finish, seconds: float,
             trace=None) -> None:
        """Run operations ``0, 1, ...`` for ``seconds``, closing a
        slice at the first operation boundary after ``SLICE_TARGET_S``
        of timed work.

        Only ``run`` is timed; ``prepare`` and ``finish`` (input
        generation, cleanup) happen inside the slice but off the
        clock.  With a ``trace(on)`` switch every other slice is
        traced, so traced and untraced slices see the same drift."""
        deadline = time.perf_counter() + seconds
        index = 0
        before = self.reference()
        while time.perf_counter() < deadline:
            raw, ops = 0.0, []
            traced = trace is not None and len(self.slices) % 2 == 1
            if trace is not None:
                trace(traced)
            while raw < SLICE_TARGET_S:
                payload = prepare(index)
                start = time.perf_counter()
                ops.extend(run(payload))
                raw += time.perf_counter() - start
                finish(payload)
                index += 1
            if traced:
                trace(False)
            after = self.reference()
            self.slices.append(Slice(raw, before, after, ops, traced))
            before = after

    # -- normalization -------------------------------------------------------

    def median_ref(self) -> float:
        clean = [r for r, bad in zip(self.refs, self.contaminated)
                 if not bad]
        return statistics.median(clean or self.refs)

    def effective(self, index: int) -> float:
        """A reference's time, or the run's median if contaminated."""
        if self.contaminated[index]:
            return self.median_ref()
        return self.refs[index]

    def factor(self, before: int, after: int) -> float:
        return REF_NOMINAL_S / ((self.effective(before)
                                 + self.effective(after)) / 2)


def tail_percentile(count: int) -> int:
    """Highest whole percentile (50..``TAIL_CAP``) with at least
    ``TAIL_BEYOND`` samples above it."""
    for p in range(TAIL_CAP, 49, -1):
        if math.floor(count * (100 - p) / 100) >= TAIL_BEYOND:
            return p
    return 50


def latency_summary(latencies_s: list[float]) -> dict:
    """Median and tail of per-operation latencies, in ms."""
    p = tail_percentile(len(latencies_s))
    return {
        "p50_ms": float(numpy.percentile(latencies_s, 50)) * 1e3,
        "tail_ms": float(numpy.percentile(latencies_s, p)) * 1e3,
        "tail_percentile": p,
        "tail_beyond": math.floor(len(latencies_s) * (100 - p) / 100),
        "samples": len(latencies_s),
    }


def summarize(clock: RefClock, slices: list[Slice]) -> dict:
    """Normalized and raw throughput/latency over ``slices``."""
    files = sum(n for s in slices for _, n in s.ops)
    raw_s = sum(s.raw_s for s in slices)
    norm_s = 0.0
    raw_lat, norm_lat = [], []
    for s in slices:
        factor = clock.factor(s.ref_before, s.ref_after)
        norm_s += s.raw_s * factor
        for latency, _ in s.ops:
            raw_lat.append(latency)
            norm_lat.append(latency * factor)
    return {
        "files": files,
        "ops": len(raw_lat),
        "slices": len(slices),
        "normalized": {"cases_per_s": files / norm_s,
                       **latency_summary(norm_lat)},
        "raw": {"cases_per_s": files / raw_s,
                **latency_summary(raw_lat)},
        "ref_ms_median": statistics.median(clock.refs) * 1e3,
        "ref_contaminated": sum(clock.contaminated),
        "refs": len(clock.refs),
    }
