"""Diff-aware and watch-mode scanning front ends.

The one-shot ``scan`` treats every invocation as a cold universe; the
workload the ROADMAP targets is a *commit*: two nearly-identical trees
where a handful of functions changed.  :class:`DiffScanner` scans the
base tree and then the target tree through one
:class:`~repro.core.serve.ScanService`, so

* unchanged files resolve from the service's in-memory
  :class:`~repro.core.serve.ResultCache` (cases are named by
  tree-relative path, making base and target keys collide exactly when
  content matches),
* changed files re-slice only the call components their edits touched,
  via the service's :class:`~repro.core.cache.FunctionGadgetCache`,
* and the two verdict maps reduce to a stream of *deltas* —
  ``added`` (newly flagged), ``changed`` (still flagged, different
  record), ``cleared`` (no longer flagged, or file removed) — the
  record shape CI gates and review bots consume.

:class:`WatchLoop` runs the same reduction continuously: poll mtimes,
rescan only the files whose stat signature moved, emit the deltas as
JSONL.  Verdicts are byte-identical to a cold scan of the same tree —
the caches only ever skip work, never change results (pinned by
``tests/core/test_diffscan.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from ..datasets.manifest import TestCase
from ..lang.callgraph import AnalyzedProgram, analyze
from ..lang.parser import ParseError
from .fingerprint import (DEFAULT_FRONTIER_DEPTH, function_fingerprints,
                          invalidation_frontier, program_fingerprints)
from .serve import ScanService, case_for_file
from .telemetry import Telemetry

__all__ = ["VerdictDelta", "DiffReport", "DiffScanner", "WatchLoop",
           "compute_deltas"]


@dataclass(frozen=True)
class VerdictDelta:
    """One verdict transition between two scans of a tree.

    ``event`` is ``added`` (not flagged -> flagged), ``changed``
    (flagged -> flagged with a different record), or ``cleared``
    (flagged -> clean/skipped/removed).  ``verdict`` is the new record
    (None when the file was removed), ``before`` the old one (None
    when the file is new).
    """

    event: str
    name: str
    verdict: dict | None
    before: dict | None

    def as_record(self) -> dict:
        return {"event": self.event, "name": self.name,
                "verdict": self.verdict, "before": self.before}


def _flagged(record: dict | None) -> bool:
    return record is not None and record.get("status") == "flagged"


def compute_deltas(before: dict[str, dict],
                   after: dict[str, dict]) -> list[VerdictDelta]:
    """Reduce two name->verdict-record maps to sorted deltas.

    Files absent from ``after`` were removed (``cleared`` if they were
    flagged); files absent from ``before`` are new.  Quiet transitions
    (clean -> clean, clean -> skipped, ...) emit nothing — the stream
    carries only what a gate must act on.
    """
    deltas: list[VerdictDelta] = []
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name), after.get(name)
        if _flagged(new) and not _flagged(old):
            deltas.append(VerdictDelta("added", name, new, old))
        elif _flagged(new) and _flagged(old) and new != old:
            deltas.append(VerdictDelta("changed", name, new, old))
        elif _flagged(old) and not _flagged(new):
            deltas.append(VerdictDelta("cleared", name, new, old))
    return deltas


def _relative_files(root: Path, pattern: str) -> dict[str, Path]:
    """relpath -> absolute path for every ``pattern`` file under
    ``root``, sorted (the expand_scan_paths walk, rooted)."""
    return {path.relative_to(root).as_posix(): path
            for path in sorted(root.rglob(pattern))}


def _file_frontier(base_source: str | None, target: TestCase,
                   depth: int, telemetry: Telemetry
                   ) -> tuple[list[str], AnalyzedProgram | None]:
    """Reported re-slice plan for one changed file: edited functions
    plus callers within ``depth`` hops (in the *target* call graph;
    when the target does not parse, the fingerprint diff alone).
    Returns the target's analyzed program too (None when it does not
    parse), for extraction to slice.  Each version is lexed once."""
    base = (function_fingerprints(base_source)
            if base_source is not None else {})
    try:
        with telemetry.stage("analyze"):
            program = analyze(target.source, path=target.name)
    except (ParseError, RecursionError):
        program, edges = None, {}
        fingerprints = function_fingerprints(target.source)
    else:
        edges = program.call_graph.edges
        fingerprints = program_fingerprints(program)
    changed = {name for name in base.keys() | fingerprints.keys()
               if base.get(name) != fingerprints.get(name)}
    return sorted(invalidation_frontier(edges, changed, depth)), program


@dataclass
class DiffReport:
    """Everything one :meth:`DiffScanner.diff` run learned.

    ``verdicts`` maps every target relpath to its verdict record;
    ``frontier`` maps each changed file to the functions planned for
    re-slicing (reporting — cache keys decide actual reuse, and only
    ever over-invalidate; none when removed); ``deltas`` is the
    gate-facing stream.
    """

    base_root: str
    target_root: str
    changed_files: list[str] = field(default_factory=list)
    frontier: dict[str, list[str]] = field(default_factory=dict)
    deltas: list[VerdictDelta] = field(default_factory=list)
    verdicts: dict[str, dict] = field(default_factory=dict)
    base_verdicts: dict[str, dict] = field(default_factory=dict)

    @property
    def dirty(self) -> bool:
        """True when the diff introduced or changed a flagged file."""
        return any(d.event in ("added", "changed") for d in self.deltas)


class DiffScanner:
    """Two-tree (or names-file) incremental scanning front end."""

    def __init__(self, service: ScanService, *, pattern: str = "*.c",
                 frontier_depth: int = DEFAULT_FRONTIER_DEPTH):
        self.service = service
        self.pattern = pattern
        self.frontier_depth = frontier_depth

    def _tree_cases(self, root: Path) -> dict[str, TestCase]:
        """relpath -> scan case for every matching file under
        ``root``, each file read once."""
        return {rel: case_for_file(path, name=rel)
                for rel, path in _relative_files(root,
                                                 self.pattern).items()}

    def _scan(self, cases: Iterable[TestCase],
              programs=None) -> dict[str, dict]:
        return {verdict.name: verdict.as_record()
                for verdict in self.service.scan_stream(cases, programs)}

    def scan_tree(self, root: str | Path) -> dict[str, dict]:
        """Scan every matching file under ``root``; relpath-keyed
        verdict records."""
        return self._scan(self._tree_cases(Path(root)).values())

    def diff(self, base: str | Path,
             target: str | Path) -> DiffReport:
        """Scan ``base`` then ``target``; report deltas + frontier.

        The base scan warms every cache layer (in-memory verdicts,
        per-case gadgets, per-function components), so the target scan
        pays only for the edit: unchanged files are verdict-cache
        hits, changed files re-slice their invalidated components.
        Target verdicts are byte-identical to a cold scan of the
        target tree alone.
        Each tree is walked and read once; a changed target is
        analyzed once, for its frontier and (inline) its extraction.
        """
        base, target = Path(base), Path(target)
        report = DiffReport(base_root=str(base),
                            target_root=str(target))
        base_cases = self._tree_cases(base)
        target_cases = self._tree_cases(target)
        programs: dict[str, AnalyzedProgram] = {}
        for rel in sorted(base_cases.keys() | target_cases.keys()):
            old, new = base_cases.get(rel), target_cases.get(rel)
            base_text = old.source if old is not None else None
            if new is not None and base_text == new.source:
                continue
            report.changed_files.append(rel)
            if new is None:
                report.frontier[rel] = []  # removed: nothing re-slices
                continue
            report.frontier[rel], program = _file_frontier(
                base_text, new, self.frontier_depth,
                self.service.telemetry)
            if program is not None:
                programs[new.fingerprint()] = program
        report.base_verdicts = self._scan(base_cases.values())
        report.verdicts = self._scan(target_cases.values(), programs)
        report.deltas = compute_deltas(report.base_verdicts,
                                       report.verdicts)
        return report

    def scan_names(self, target: str | Path,
                   names: Iterable[str]) -> DiffReport:
        """CI-gate mode: scan only the listed relpaths under
        ``target`` (``git diff --name-only`` output).

        There is no base tree to compare against, so ``deltas``
        reduces against an empty baseline: every flagged listed file
        surfaces as ``added``.  Names outside ``pattern`` or missing
        from the tree are skipped silently (deleted files show up in
        name-only diffs too).
        """
        target = Path(target)
        report = DiffReport(base_root="", target_root=str(target))
        cases = []
        for raw in names:
            rel = raw.strip()
            if not rel:
                continue
            path = target / rel
            if not path.is_file() or not path.match(self.pattern):
                continue
            report.changed_files.append(rel)
            cases.append(case_for_file(path, name=rel))
        report.verdicts = {
            verdict.name: verdict.as_record()
            for verdict in self.service.scan_stream(cases)}
        report.deltas = compute_deltas({}, report.verdicts)
        return report


class WatchLoop:
    """Poll a tree's mtimes and stream verdict deltas as they happen.

    The first poll scans the whole tree and emits its flagged files as
    ``added`` (the delta from an empty baseline); every later poll
    stats the tree, rescans only files whose ``(mtime_ns, size)``
    signature moved or that appeared, and emits the deltas.  Removed
    files emit ``cleared`` when they were flagged.  Rescans go through
    the same service caches as diff mode, so a watch iteration costs
    what the edit touched, not the tree.
    """

    def __init__(self, service: ScanService, root: str | Path, *,
                 pattern: str = "*.c", interval: float = 0.5,
                 max_polls: int | None = None,
                 emit: Callable[[VerdictDelta], None] | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.service = service
        self.root = Path(root)
        self.pattern = pattern
        self.interval = interval
        self.max_polls = max_polls
        self.emit = emit
        self._clock = clock
        self._sleep = sleep
        self.verdicts: dict[str, dict] = {}
        self._signatures: dict[str, tuple[int, int]] = {}
        self.polls = 0

    def _stat_tree(self) -> dict[str, tuple[Path, tuple[int, int]]]:
        out: dict[str, tuple[Path, tuple[int, int]]] = {}
        for rel, path in _relative_files(self.root,
                                         self.pattern).items():
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted between glob and stat
            out[rel] = (path, (stat.st_mtime_ns, stat.st_size))
        return out

    def poll(self) -> list[VerdictDelta]:
        """One poll: rescan what moved, return (and emit) the deltas."""
        self.polls += 1
        snapshot = self._stat_tree()
        stale = [rel for rel, (_, sig) in snapshot.items()
                 if self._signatures.get(rel) != sig]
        removed = [rel for rel in self._signatures
                   if rel not in snapshot]
        deltas: list[VerdictDelta] = []
        if stale or removed:
            cases = [case_for_file(snapshot[rel][0], name=rel)
                     for rel in stale]
            before = dict(self.verdicts)
            for verdict in self.service.scan_stream(cases):
                self.verdicts[verdict.name] = verdict.as_record()
            for rel in removed:
                self.verdicts.pop(rel, None)
                del self._signatures[rel]
            for rel, (_, sig) in snapshot.items():
                self._signatures[rel] = sig
            after = dict(self.verdicts)
            # reduce only over touched names so an unrelated flagged
            # file never re-emits
            touched = set(stale) | set(removed)
            deltas = [delta for delta
                      in compute_deltas(before, after)
                      if delta.name in touched]
            if self.emit is not None:
                for delta in deltas:
                    self.emit(delta)
        return deltas

    def run(self) -> int:
        """Poll until ``max_polls`` (forever when None); returns the
        number of polls executed."""
        while self.max_polls is None or self.polls < self.max_polls:
            started = self._clock()
            self.poll()
            if self.max_polls is not None \
                    and self.polls >= self.max_polls:
                break
            elapsed = self._clock() - started
            self._sleep(max(0.0, self.interval - elapsed))
        return self.polls


def deltas_as_jsonl(deltas: Iterable[VerdictDelta]) -> Iterator[str]:
    """Serialize deltas as sorted-key JSON lines (stable byte-wise)."""
    import json

    for delta in deltas:
        yield json.dumps(delta.as_record(), sort_keys=True)
