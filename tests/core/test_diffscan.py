"""Diff-aware and watch-mode incremental scanning, end to end.

The load-bearing invariant: incremental verdicts are *byte-identical*
to a cold scan of the same tree — every cache layer (in-memory
verdicts, per-function components) only ever skips work, never changes
results.  On top of that, the accounting tests pin exactly which
functions re-slice after an edit: the edited call component and
nothing else.
"""

import json

import pytest

from repro.core import SCALE_PRESETS, SEVulDet
from repro.core.diffscan import (DiffScanner, VerdictDelta, WatchLoop,
                                 compute_deltas, deltas_as_jsonl)
from repro.core.serve import ScanService, case_for_file
from repro.datasets.sard import generate_sard_corpus

VULN_SOURCE = """\
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

BETA_SOURCE = """\
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

GAMMA_SOURCE = """\
int gamma_one(int n) {
    char buf[8];
    buf[0] = n;
    return buf[0] + 3;
}
int gamma_two(int n) {
    char out[8];
    out[0] = n;
    return out[0] + 5;
}
"""

CLEAN_SOURCE = "int main() { int a = 1; return a; }\n"


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    det.fit(generate_sard_corpus(80, seed=31))
    det.threshold = 0.5
    return det


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BASE_FILES = {
    "pkg/alpha.c": VULN_SOURCE,
    "pkg/beta.c": BETA_SOURCE,
    "pkg/gamma.c": GAMMA_SOURCE,
}

TARGET_FILES = {
    # unchanged: must not re-scan at all
    "pkg/alpha.c": VULN_SOURCE,
    # callee body edit: helper's component is {helper, compute}
    "pkg/beta.c": BETA_SOURCE.replace("return buf[0] + 1;",
                                      "return buf[0] + 2;"),
    # comment-only edit on an existing line: no fingerprint moves
    "pkg/gamma.c": GAMMA_SOURCE.replace(
        "return buf[0] + 3;", "return buf[0] + 3; /* audited */"),
}


def _rec(status, score=None):
    record = {"status": status, "findings": []}
    if score is not None:
        record["findings"] = [{"score": score}]
    return record


class TestComputeDeltas:
    def test_added_changed_cleared(self):
        before = {"a.c": _rec("flagged", 0.9), "b.c": _rec("clean"),
                  "c.c": _rec("flagged", 0.8), "d.c": _rec("clean")}
        after = {"a.c": _rec("flagged", 0.7), "b.c": _rec("flagged", 0.6),
                 "c.c": _rec("clean"), "d.c": _rec("clean")}
        deltas = compute_deltas(before, after)
        assert [(d.event, d.name) for d in deltas] == [
            ("changed", "a.c"), ("added", "b.c"), ("cleared", "c.c")]

    def test_removed_flagged_file_clears(self):
        deltas = compute_deltas({"gone.c": _rec("flagged", 0.9)}, {})
        assert [(d.event, d.name, d.verdict) for d in deltas] == [
            ("cleared", "gone.c", None)]

    def test_quiet_transitions_emit_nothing(self):
        before = {"a.c": _rec("clean")}
        after = {"a.c": _rec("skipped"), "new.c": _rec("clean")}
        assert compute_deltas(before, after) == []

    def test_identical_flagged_record_is_silent(self):
        record = _rec("flagged", 0.9)
        assert compute_deltas({"a.c": record}, {"a.c": dict(record)}) \
            == []

    def test_jsonl_lines_are_stable(self):
        deltas = [VerdictDelta("added", "a.c", _rec("flagged", 0.5),
                               None)]
        lines = list(deltas_as_jsonl(deltas))
        assert lines == list(deltas_as_jsonl(deltas))
        assert json.loads(lines[0])["event"] == "added"


class TestDiffScanner:
    def test_verdicts_byte_identical_to_cold_scan(self, detector,
                                                  tmp_path):
        base = write_tree(tmp_path / "base", BASE_FILES)
        target = write_tree(tmp_path / "target", TARGET_FILES)
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            report = DiffScanner(service).diff(base, target)
        # a fresh service, no function cache, scanning the target
        # alone: the incremental run must reproduce it byte for byte
        with ScanService(detector, workers=2,
                         batch_size=8) as fresh:
            cold = DiffScanner(fresh).scan_tree(target)
        assert report.verdicts == cold

    def test_changed_files_and_frontier(self, detector, tmp_path):
        base = write_tree(tmp_path / "base", BASE_FILES)
        target = write_tree(tmp_path / "target", TARGET_FILES)
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            report = DiffScanner(service).diff(base, target)
        assert report.changed_files == ["pkg/beta.c", "pkg/gamma.c"]
        # editing helper invalidates its caller too
        assert report.frontier["pkg/beta.c"] == ["compute", "helper"]
        # a comment-only edit moves no fingerprints
        assert report.frontier["pkg/gamma.c"] == []
        # nothing went from clean to flagged
        assert report.deltas == []
        assert not report.dirty

    def test_removed_file_has_empty_frontier(self, detector, tmp_path):
        base = write_tree(tmp_path / "base", BASE_FILES)
        target = write_tree(tmp_path / "target", {
            rel: text for rel, text in TARGET_FILES.items()
            if rel != "pkg/beta.c"})
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            report = DiffScanner(service).diff(base, target)
        assert "pkg/beta.c" in report.changed_files
        # nothing of a deleted file is sliced
        assert report.frontier["pkg/beta.c"] == []
        assert "pkg/beta.c" not in report.verdicts

    def test_only_the_edited_component_reslices(self, detector,
                                                tmp_path):
        base = write_tree(tmp_path / "base", BASE_FILES)
        target = write_tree(tmp_path / "target", TARGET_FILES)
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            scanner = DiffScanner(service)
            scanner.scan_tree(base)
            telemetry = service.telemetry
            analyzed = telemetry.calls("analyze")
            misses = telemetry.get("fn_cache_misses") or 0
            hits = telemetry.get("fn_cache_hits") or 0
            # base scan was all-cold: every function group missed
            assert misses == 6 and hits == 0
            scanner.scan_tree(target)
            # alpha.c is byte-identical -> result-cache hit, not even
            # re-analyzed; only the two changed files parse again
            assert telemetry.calls("analyze") - analyzed == 2
            # beta.c: helper's edit invalidates {helper, compute};
            # gamma.c's comment edit invalidates nothing, so both its
            # function groups come back from the cache
            assert (telemetry.get("fn_cache_misses") or 0) \
                - misses == 2
            assert (telemetry.get("fn_cache_hits") or 0) - hits == 2

    def test_new_vulnerability_is_added_and_dirty(self, detector,
                                                  tmp_path):
        base = write_tree(tmp_path / "base", dict(
            BASE_FILES, **{"pkg/delta.c": CLEAN_SOURCE}))
        target = write_tree(tmp_path / "target", dict(
            TARGET_FILES, **{"pkg/delta.c": VULN_SOURCE}))
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            report = DiffScanner(service).diff(base, target)
        assert [(d.event, d.name) for d in report.deltas] == [
            ("added", "pkg/delta.c")]
        assert report.dirty
        # alpha.c is flagged in both trees with an identical record:
        # no delta for it
        assert report.verdicts["pkg/alpha.c"]["status"] == "flagged"

    def test_fixed_vulnerability_clears(self, detector, tmp_path):
        base = write_tree(tmp_path / "base", BASE_FILES)
        target = write_tree(tmp_path / "target", dict(
            TARGET_FILES, **{"pkg/alpha.c": CLEAN_SOURCE}))
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            report = DiffScanner(service).diff(base, target)
        assert [(d.event, d.name) for d in report.deltas] == [
            ("cleared", "pkg/alpha.c")]
        assert not report.dirty  # clearing a finding never gates

    def test_scan_names_mode(self, detector, tmp_path):
        target = write_tree(tmp_path / "target", dict(
            TARGET_FILES, **{"README.md": "# docs\n"}))
        names = ["pkg/alpha.c", "pkg/beta.c", "README.md",
                 "pkg/removed.c", "", "  "]
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            report = DiffScanner(service).scan_names(target, names)
        # non-.c and missing names are skipped silently
        assert report.changed_files == ["pkg/alpha.c", "pkg/beta.c"]
        assert set(report.verdicts) == {"pkg/alpha.c", "pkg/beta.c"}
        # no baseline: flagged listed files surface as added
        assert [(d.event, d.name) for d in report.deltas] == [
            ("added", "pkg/alpha.c")]
        assert report.dirty


class TestWatchLoop:
    def test_first_poll_emits_added_for_flagged(self, detector,
                                                tmp_path):
        root = write_tree(tmp_path / "tree", BASE_FILES)
        emitted = []
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            loop = WatchLoop(service, root, emit=emitted.append)
            deltas = loop.poll()
        assert [(d.event, d.name) for d in deltas] == [
            ("added", "pkg/alpha.c")]
        assert emitted == deltas

    def test_quiet_poll_rescans_nothing(self, detector, tmp_path):
        root = write_tree(tmp_path / "tree", BASE_FILES)
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            loop = WatchLoop(service, root)
            loop.poll()
            analyzed = service.telemetry.calls("analyze")
            assert loop.poll() == []
            # untouched tree: not a single case re-entered extraction
            assert service.telemetry.calls("analyze") == analyzed

    def test_edit_emits_delta_without_reemitting_others(
            self, detector, tmp_path):
        root = write_tree(tmp_path / "tree", BASE_FILES)
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            loop = WatchLoop(service, root)
            loop.poll()
            # beta.c turns vulnerable; alpha.c stays flagged but must
            # not re-emit
            (root / "pkg/beta.c").write_text(VULN_SOURCE)
            deltas = loop.poll()
            assert [(d.event, d.name) for d in deltas] == [
                ("added", "pkg/beta.c")]
            # ...and turns clean again
            (root / "pkg/beta.c").write_text(BETA_SOURCE)
            deltas = loop.poll()
            assert [(d.event, d.name) for d in deltas] == [
                ("cleared", "pkg/beta.c")]

    def test_removed_flagged_file_clears(self, detector, tmp_path):
        root = write_tree(tmp_path / "tree", BASE_FILES)
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            loop = WatchLoop(service, root)
            loop.poll()
            (root / "pkg/alpha.c").unlink()
            deltas = loop.poll()
        assert [(d.event, d.name, d.verdict) for d in deltas] == [
            ("cleared", "pkg/alpha.c", None)]

    def test_run_paces_with_injected_clock(self, detector, tmp_path):
        root = write_tree(tmp_path / "tree",
                          {"pkg/gamma.c": GAMMA_SOURCE})
        ticks = iter(range(1000))
        sleeps = []
        with ScanService(detector, workers=2, batch_size=8,
                         fn_cache=tmp_path / "fncache") as service:
            loop = WatchLoop(service, root, interval=5.0, max_polls=3,
                             clock=lambda: float(next(ticks)),
                             sleep=sleeps.append)
            polls = loop.run()
        assert polls == 3
        # two sleeps between three polls, each interval minus the
        # 1-tick poll cost
        assert sleeps == [4.0, 4.0]


class TestScanStreamDeterminism:
    def test_workers_4_stream_matches_workers_1(self, detector):
        corpus = generate_sard_corpus(24, seed=77)
        with ScanService(detector, workers=1,
                         batch_size=4) as service:
            reference = [v.as_record()
                         for v in service.scan_stream(corpus)]
        with ScanService(detector, workers=4,
                         batch_size=8) as service:
            streamed = [v.as_record()
                        for v in service.scan_stream(corpus)]
        assert [r["name"] for r in streamed] == \
            [case.name for case in corpus]
        assert streamed == reference

    def test_stream_jsonl_bytes_reproducible(self, detector):
        corpus = generate_sard_corpus(24, seed=78)
        runs = []
        for _ in range(2):
            with ScanService(detector, workers=4,
                             batch_size=8) as service:
                runs.append("\n".join(
                    json.dumps(v.as_record(), sort_keys=True)
                    for v in service.scan_stream(corpus)))
        assert runs[0] == runs[1]
