"""Deterministic fault injection for the resilience layer.

Production code calls :func:`fire` at a handful of *fault sites* (one
per case extracted, one per training batch, one per cache shard
written).  When the ``REPRO_FAULTS`` environment variable is unset —
the normal state — every hook is a dictionary lookup and an early
return.  When it holds a fault spec, matching sites raise, hang, crash
the worker process, or corrupt the file being written, so the tests in
``tests/core/test_resilience.py`` can exercise every recovery path of
:mod:`repro.core.resilience` without flaky timing tricks or
monkeypatching internals across process boundaries (the environment is
inherited by pool workers, which is exactly why an env var carries the
plan).

Spec grammar (semicolon-separated rules)::

    action@site:match[:arg]

    raise@case:case_003.c:RecursionError   # raise at that case
    hang@case:case_005.c:30                # sleep 30s (interruptible)
    crash@case:case_007.c                  # os._exit, workers only
    raise@train-batch:2.0                  # raise at epoch 2, batch 0
    corrupt@shard:*                        # garbage every cache shard
    drop@server-conn:#5                    # server hangs up after its
                                           # 5th parsed message
    drop@server-admit:#2-6                 # shed storm: admissions
                                           # 2..6 are refused

``match`` is an exact key, ``*`` (any key), ``#N`` (the Nth visit to
that site in this process, 1-based), or ``#N-M`` (every visit in that
inclusive range).  ``arg`` names a builtin exception for ``raise``
(default ``RuntimeError``) and a sleep budget in seconds for ``hang``
(default 10, bounded so a broken timeout costs seconds, not a wedged
CI job).

Serving-layer sites: ``server-conn`` and ``server-admit`` are boolean
:func:`should_drop` sites the scan server consults to sever a client
connection mid-stream (conn-drop) or refuse an admission as if
overloaded (shed-storm).

Faults fire every time their rule matches: a resumed run must clear
the spec (or scope it with :func:`injected`) to get past the fault,
mirroring how a real poison case keeps failing until quarantined.
"""

from __future__ import annotations

import builtins
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = ["ENV_VAR", "FaultRule", "FaultPlan", "plan", "fire",
           "corrupt_file", "should_drop", "injected", "reset_visits"]

ENV_VAR = "REPRO_FAULTS"

#: Exit status used by ``crash`` rules, distinctive in worker logs.
CRASH_EXIT_CODE = 70

_DEFAULT_HANG_SECONDS = 10.0


@dataclass(frozen=True)
class FaultRule:
    """One parsed ``action@site:match[:arg]`` clause."""

    action: str  # 'raise' | 'hang' | 'crash' | 'corrupt'
    site: str
    match: str
    arg: str = ""

    def matches(self, key: str, visit: int) -> bool:
        if self.match == "*":
            return True
        if self.match.startswith("#"):
            spec = self.match[1:]
            if "-" in spec:
                low, _, high = spec.partition("-")
                return int(low) <= visit <= int(high)
            return visit == int(spec)
        return self.match == key


@dataclass(frozen=True)
class FaultPlan:
    """All rules parsed from one spec string."""

    rules: tuple[FaultRule, ...]

    def for_site(self, site: str) -> tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.site == site)


_ACTIONS = frozenset({"raise", "hang", "crash", "corrupt", "drop"})

# Parsed-plan cache keyed on the raw spec string so fire() costs one
# os.environ lookup + one comparison when nothing changed.
_cached_spec: str | None = None
_cached_plan: FaultPlan | None = None

# Per-process visit counters, one per site, for '#N' matches.
_visits: dict[str, int] = {}


def _parse(spec: str) -> FaultPlan:
    rules = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        try:
            action, rest = clause.split("@", 1)
            site, _, match_arg = rest.partition(":")
            match, _, arg = match_arg.partition(":")
        except ValueError:
            raise ValueError(f"bad fault clause {clause!r}; expected "
                             f"'action@site:match[:arg]'") from None
        if action not in _ACTIONS:
            raise ValueError(f"unknown fault action {action!r} in "
                             f"{clause!r}; choose from "
                             f"{sorted(_ACTIONS)}")
        if not site or not match:
            raise ValueError(f"fault clause {clause!r} needs both a "
                             f"site and a match key")
        rules.append(FaultRule(action=action, site=site, match=match,
                               arg=arg))
    return FaultPlan(tuple(rules))


def plan() -> FaultPlan | None:
    """The active plan, or None when ``REPRO_FAULTS`` is unset."""
    global _cached_spec, _cached_plan
    spec = os.environ.get(ENV_VAR)
    if spec != _cached_spec:
        _cached_spec = spec
        _cached_plan = _parse(spec) if spec else None
    return _cached_plan


def reset_visits() -> None:
    """Forget the per-site visit counters ('#N' matches restart)."""
    _visits.clear()


def _in_worker_process() -> bool:
    import multiprocessing

    return multiprocessing.parent_process() is not None


def _apply(rule: FaultRule) -> None:
    if rule.action == "raise":
        exc = getattr(builtins, rule.arg or "RuntimeError", None)
        if not (isinstance(exc, type) and issubclass(exc, BaseException)):
            exc = RuntimeError
        raise exc(f"injected fault: {rule.action}@{rule.site}:"
                  f"{rule.match}")
    if rule.action == "hang":
        seconds = float(rule.arg) if rule.arg else _DEFAULT_HANG_SECONDS
        # bounded: an escaped hang should cost seconds, never wedge CI
        time.sleep(min(seconds, 120.0))
        return
    if rule.action == "crash":
        # Only kill worker processes: the inline (fallback) retry of a
        # crashed case must be able to succeed, exactly like a case
        # that only breaks a worker's address space, not the parent's.
        if _in_worker_process():
            os._exit(CRASH_EXIT_CODE)
        return
    # 'corrupt' rules only act at corrupt_file() sites and 'drop'
    # rules only at should_drop() sites


def fire(site: str, key: str) -> None:
    """Fault hook: no-op unless an active rule matches (site, key)."""
    active = plan()
    if active is None:
        return
    visit = _visits[site] = _visits.get(site, 0) + 1
    for rule in active.for_site(site):
        if rule.action not in ("corrupt", "drop") \
                and rule.matches(key, visit):
            _apply(rule)


def corrupt_file(site: str, key: str, path: str | Path) -> bool:
    """Corruption hook: garbage ``path`` if a corrupt rule matches."""
    active = plan()
    if active is None:
        return False
    visit = _visits[site] = _visits.get(site, 0) + 1
    for rule in active.for_site(site):
        if rule.action == "corrupt" and rule.matches(key, visit):
            Path(path).write_bytes(b"\x00injected shard corruption\x00")
            return True
    return False


def should_drop(site: str, key: str) -> bool:
    """Boolean hook for refusal-style faults: True when a ``drop``
    rule matches (site, key).  The caller decides what dropping means
    — the scan server severs the connection at ``server-conn`` sites
    and sheds the admission at ``server-admit`` sites."""
    active = plan()
    if active is None:
        return False
    visit = _visits[site] = _visits.get(site, 0) + 1
    for rule in active.for_site(site):
        if rule.action == "drop" and rule.matches(key, visit):
            return True
    return False


@contextmanager
def injected(spec: str) -> Iterator[None]:
    """Scope a fault spec: sets ``REPRO_FAULTS`` (inherited by pool
    workers forked inside the block) and restores the previous value
    and visit counters on exit."""
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = spec
    reset_visits()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        reset_visits()
