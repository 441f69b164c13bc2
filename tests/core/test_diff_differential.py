"""Diff mode against the two-pass reference, and its per-file counts.

``DiffScanner.diff`` walks and reads each tree once, analyzes each
changed target once, and hands that program from the frontier to
extraction.  Its report must equal a reference that works file by
file the original way: the frontier lexes and parses each version on
its own, then base and target are scanned from a fresh walk of each
tree on a fresh service whose function cache starts in the same
(empty) state.  Trees come from the CWE templates and random
statement programs; edit plans mix body constant edits, comment-only
edits, added and removed files and functions, ``#ifdef`` duplicate
definitions and targets that do not parse.

The count tests pin the sharing itself, and the pool test checks that
extraction in worker processes (which analyze their own cases) gives
the same report.

The tier-1 suite runs the property at hypothesis's default budget.
CI runs the module's own profile, 200 examples:

    PYTHONPATH=src python -m tests.core.test_diff_differential
"""

import pathlib
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SCALE_PRESETS, SEVulDet, diffscan
from repro.core.diffscan import DiffScanner, compute_deltas
from repro.core.fingerprint import changed_functions, invalidation_frontier
from repro.core.serve import ScanService, case_for_file
from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.datasets.sard import generate_sard_corpus
from repro.lang.callgraph import ast_call_edges
from repro.lang.parser import ParseError, parse
from repro.lang.source import SourceFile
from tests.lang.test_properties import random_programs

settings.register_profile("diff-differential", max_examples=200,
                          deadline=None)
if __name__ == "__main__":
    settings.load_profile("diff-differential")

EDITS = ("constant", "comment", "add-file", "remove-file",
         "add-function", "remove-function", "ifdef", "broken")


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    det.fit(generate_sard_corpus(60, seed=31))
    det.threshold = 0.5
    return det


# -- trees and edit plans -----------------------------------------------------

@st.composite
def sources(draw):
    if draw(st.booleans()):
        return draw(random_programs())
    template = draw(st.sampled_from(TEMPLATES))
    return generate_case(template, vulnerable=draw(st.booleans()),
                         seed=draw(st.integers(0, 50))).source


def _extra_function(tag: int) -> str:
    return (f"int extra_{tag}(int n) {{\n    char b[8];\n"
            f"    b[0] = n;\n    return b[0] + {tag % 7};\n}}\n")


def _apply(edit: str, draw_int: int, base: dict, target: dict,
           spare: str) -> None:
    """One edit on ``target`` (``remove-function`` adds to ``base``)."""
    if edit == "add-file" or not target:
        target[f"pkg/new_{draw_int % 5}.c"] = spare
        return
    rel = sorted(target)[draw_int % len(target)]
    text = target[rel]
    if edit == "constant":
        numbers = list(re.finditer(r"\b\d+\b", text))
        if numbers:
            hit = numbers[draw_int % len(numbers)]
            text = (text[:hit.start()] + str(int(hit.group()) + 1)
                    + text[hit.end():])
    elif edit == "comment":
        lines = text.split("\n")
        index = draw_int % len(lines)
        lines[index] += " /* reviewed */"
        text = "\n".join(lines)
    elif edit == "remove-file":
        del target[rel]
        return
    elif edit == "add-function":
        text += "\n" + _extra_function(draw_int)
    elif edit == "remove-function":
        base[rel] = base.get(rel, text) + "\n" + _extra_function(draw_int)
    elif edit == "ifdef":
        text += (f"\n#ifdef ALT\nint dup(int n) {{ return n + 1; }}\n"
                 f"#else\nint dup(int n) {{ return n * {draw_int % 9}; }}"
                 f"\n#endif\n")
    else:  # broken
        text += "\nint broken( {\n"
    target[rel] = text


@st.composite
def tree_pairs(draw):
    files = {f"pkg/f{i}.c": draw(sources())
             for i in range(draw(st.integers(1, 3)))}
    base, target = dict(files), dict(files)
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1,
                              max_size=3)):
        _apply(edit, draw(st.integers(0, 10_000)), base, target,
               draw(sources()))
    return base, target


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    root.mkdir(parents=True, exist_ok=True)
    return root


# -- the reference: each version lexed and parsed on its own ------------------

def reference_frontier(base_source: str, target_source: str,
                       depth: int) -> list[str]:
    target = SourceFile("<target>", target_source)
    changed = changed_functions(base_source, target.tokens)
    if not changed:
        return []
    try:
        edges = ast_call_edges(parse(target))
    except (ParseError, RecursionError):
        return sorted(changed)
    return sorted(invalidation_frontier(edges, changed, depth))


def reference_report(scanner: DiffScanner, base: Path,
                     target: Path) -> dict:
    def read(root):
        return {path.relative_to(root).as_posix():
                path.read_text(encoding="utf-8", errors="replace")
                for path in sorted(root.rglob(scanner.pattern))}

    base_texts, target_texts = read(base), read(target)
    changed, frontier = [], {}
    for rel in sorted(base_texts.keys() | target_texts.keys()):
        old, new = base_texts.get(rel), target_texts.get(rel)
        if old == new:
            continue
        changed.append(rel)
        frontier[rel] = ([] if new is None else reference_frontier(
            old or "", new, scanner.frontier_depth))
    base_verdicts = scanner.scan_tree(base)
    verdicts = scanner.scan_tree(target)
    return {"changed_files": changed, "frontier": frontier,
            "base_verdicts": list(base_verdicts.items()),
            "verdicts": list(verdicts.items()),
            "deltas": compute_deltas(base_verdicts, verdicts)}


def as_compared(report) -> dict:
    return {"changed_files": report.changed_files,
            "frontier": report.frontier,
            "base_verdicts": list(report.base_verdicts.items()),
            "verdicts": list(report.verdicts.items()),
            "deltas": report.deltas}


def _fn_counters(service: ScanService) -> tuple:
    telemetry = service.telemetry
    return (telemetry.get("fn_cache_hits") or 0,
            telemetry.get("fn_cache_misses") or 0)


def check_against_reference(detector, base_files, target_files):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        base = write_tree(root / "base", base_files)
        target = write_tree(root / "target", target_files)
        handed = []
        stream = ScanService.scan_stream

        def spy(self, cases, programs=None):
            handed.append(dict(programs or {}))
            return stream(self, cases, programs)

        with ScanService(detector, workers=1, batch_size=8,
                         fn_cache=root / "fn-a") as service:
            ScanService.scan_stream = spy
            try:
                report = DiffScanner(service).diff(base, target)
            finally:
                ScanService.scan_stream = stream
            counters = _fn_counters(service)
        with ScanService(detector, workers=1, batch_size=8,
                         fn_cache=root / "fn-b") as fresh:
            reference = reference_report(DiffScanner(fresh), base,
                                         target)
            assert counters == _fn_counters(fresh)
        # a handed-over program is its case's text under its name
        cases = {rel: case_for_file(target / rel, name=rel)
                 for rel in target_files}
        for fingerprint, program in (item for programs in handed
                                     for item in programs.items()):
            case = cases.get(program.source.path)
            assert case is not None
            assert case.fingerprint() == fingerprint
            assert program.source.text == case.source
    assert as_compared(report) == reference
    return report


class TestDiffMatchesReference:
    @settings(deadline=None)
    @given(tree_pairs())
    def test_random_edits(self, detector, pair):
        check_against_reference(detector, *pair)

    def test_every_edit_kind(self, detector):
        base = {"pkg/a.c": generate_case(TEMPLATES[0], vulnerable=True,
                                         seed=1).source,
                "pkg/b.c": generate_case(TEMPLATES[3], vulnerable=False,
                                         seed=2).source,
                "pkg/c.c": "int main() { int a = 1; return a; }\n"}
        target = dict(base)
        for draw_int, edit in enumerate(EDITS):
            _apply(edit, draw_int, base, target,
                   generate_case(TEMPLATES[5], vulnerable=True,
                                 seed=draw_int).source)
        report = check_against_reference(detector, base, target)
        assert len(report.changed_files) >= 3


# -- counts -------------------------------------------------------------------

def _count_calls(monkeypatch, module, attr):
    """Count calls of ``module.attr`` through every loaded ``repro``
    module that refers to it; returns the list of first arguments."""
    original = getattr(module, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, key, counted)
    return calls


HELPER = """\
int helper(int n) {
    char buf[8];
    buf[0] = n;
    return buf[0] + 1;
}
int compute(int n) {
    char out[8];
    out[0] = helper(n);
    return out[0];
}
"""

SINK = """\
void sink(char *data) {
    char buf[4];
    strcpy(buf, data);
}
int main() {
    char line[64];
    fgets(line, 64, 0);
    sink(line);
    return 0;
}
"""

QUIET = "int quiet(int n) { return n * 2; }\n"

BASE = {"pkg/alpha.c": SINK, "pkg/beta.c": HELPER, "pkg/gamma.c": QUIET}
TARGET = {"pkg/alpha.c": SINK.replace("64", "65"),
          "pkg/beta.c": HELPER.replace("+ 1;", "+ 2;"),
          "pkg/gamma.c": QUIET}


class TestDiffCounts:
    """k changed files: k parses, one lex, fingerprint and read of
    each version, one walk of each tree."""

    def test_each_version_is_done_once(self, detector, tmp_path,
                                       monkeypatch):
        from repro.core import fingerprint
        from repro.lang import lexer, parser

        base = write_tree(tmp_path / "base", BASE)
        target = write_tree(tmp_path / "target", TARGET)
        changed = [rel for rel in BASE if BASE[rel] != TARGET[rel]]
        with ScanService(detector, workers=1, batch_size=8,
                         fn_cache=tmp_path / "fn") as service:
            scanner = DiffScanner(service)
            scanner.scan_tree(base)  # warm: the base scan re-reads nothing
            analyzed = service.telemetry.calls("analyze")
            parses = _count_calls(monkeypatch, parser, "parse")
            lexes = _count_calls(monkeypatch, lexer, "tokenize")
            hashes = _count_calls(monkeypatch, fingerprint,
                                  "function_fingerprints")
            walks = _count_calls(monkeypatch, diffscan,
                                 "_relative_files")
            reads = []
            read_text = pathlib.Path.read_text

            def counted_read(path, *args, **kwargs):
                reads.append(path)
                return read_text(path, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, "read_text", counted_read)
            report = scanner.diff(base, target)
            assert service.telemetry.calls("analyze") - analyzed == \
                len(changed)
        assert report.changed_files == changed
        assert report.frontier == {"pkg/alpha.c": ["main"],
                                   "pkg/beta.c": ["compute", "helper"]}
        assert len(parses) == len(changed)
        # (normalization lexes gadget statements too: count files only)
        versions = [BASE[rel] for rel in changed] + \
            [TARGET[rel] for rel in changed]
        assert sorted(text for text in lexes if text in versions) == \
            sorted(versions)
        assert len(hashes) == 2 * len(changed)
        assert walks == [base, target]
        assert sorted(reads) == sorted(
            [base / rel for rel in BASE] + [target / rel for rel in TARGET])


class TestPoolParity:
    def test_pool_report_equals_inline(self, detector, tmp_path,
                                       monkeypatch):
        base = write_tree(tmp_path / "base", BASE)
        target = write_tree(tmp_path / "target", TARGET)
        reports, analyzed = [], []
        for workers in (0, 2):
            monkeypatch.setattr(detector, "workers", workers)
            with ScanService(detector, workers=1, batch_size=8,
                             fn_cache=tmp_path / f"fn{workers}") as service:
                reports.append(as_compared(
                    DiffScanner(service).diff(base, target)))
                analyzed.append(service.telemetry.calls("analyze"))
        assert reports[0] == reports[1]
        # worker processes analyzed both changed files again
        assert analyzed[1] - analyzed[0] == 2


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
