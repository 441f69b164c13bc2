"""The benchmark's own tests (small and fast).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, refclock, tracing  # noqa: E402
from perfbench.refclock import RefClock, Slice  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SCORE_TOLERANCE, WORKLOADS, DiffRescan, compare)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- inputs --------------------------------------------------------------------

def test_same_seed_same_scan_inputs_and_other_seed_differs():
    first = inputs.scan_mix(7, "cold", 3, 6)
    again = inputs.scan_mix(7, "cold", 3, 6)
    other = inputs.scan_mix(8, "cold", 3, 6)
    assert inputs.digest_cases(first) == inputs.digest_cases(again)
    assert inputs.digest_cases(first) != inputs.digest_cases(other)
    # operations of one run never repeat a file
    later = inputs.scan_mix(7, "cold", 4, 6)
    assert not {c.source for c in first} & {c.source for c in later}


def test_modules_are_one_translation_unit():
    from repro.lang.parser import parse

    module = inputs.scan_mix(1, "t", 0, 1)[0]
    assert "module" in module.name
    unit = parse(module.source)
    names = [fn.name for fn in unit.functions]
    assert len(names) == len(set(names)) >= 6


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*.c"))}


def test_same_seed_same_monorepo_and_edits(tmp_path):
    owner = inputs.build_monorepo(tmp_path / "a", 5, 40, 4)
    inputs.build_monorepo(tmp_path / "b", 5, 40, 4)
    inputs.build_monorepo(tmp_path / "c", 6, 40, 4)
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")
    assert inputs.edit_plan(5, 2, owner, 3) == \
        inputs.edit_plan(5, 2, owner, 3)
    assert inputs.edit_plan(5, 2, owner, 3) != \
        inputs.edit_plan(6, 2, owner, 3)


def test_edits_change_only_the_planned_functions(tmp_path):
    from repro.core.fingerprint import function_fingerprints

    base, target = tmp_path / "base", tmp_path / "target"
    owner = inputs.build_monorepo(base, 5, 40, 4)
    inputs.build_monorepo(target, 5, 40, 4)
    plan = inputs.edit_plan(5, 0, owner, 3)
    changed = inputs.apply_edits(base, target, owner, plan, 0)
    moved = set()
    for rel in changed:
        before = function_fingerprints((base / rel).read_text())
        after = function_fingerprints((target / rel).read_text())
        moved |= {fn for fn in after if after[fn] != before.get(fn)}
    assert moved == set(plan)
    # the next edit restores every file the previous one touched
    inputs.apply_edits(base, target, owner,
                       inputs.edit_plan(5, 1, owner, 3), 1)
    untouched = set(_tree_bytes(base)) - set(
        inputs.apply_edits(base, target, owner,
                           inputs.edit_plan(5, 1, owner, 3), 1))
    assert all((base / rel).read_bytes() == (target / rel).read_bytes()
               for rel in untouched)


# -- metric names --------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert e2e == ["setup_s", "peak_rss_mb", "cases_per_s", "p50_ms",
                   "tail_ms"]
    # every traced layer metric is declared, every workload implemented
    assert set(tracing.layer_metrics(tracing.Tracer(), 64)) <= \
        set(per_layer)
    assert set(WORKLOADS) == {w["name"] for w in declared["workloads"]}
    for name in e2e + per_layer + [w["name"]
                                   for w in declared["workloads"]]:
        assert NAME.fullmatch(name), name


# -- normalization -------------------------------------------------------------

def _clock(refs, contaminated=None) -> RefClock:
    clock = RefClock()
    clock.refs = list(refs)
    clock.contaminated = list(contaminated or [False] * len(refs))
    return clock


def test_slices_are_rescaled_by_the_mean_of_their_references():
    nominal = refclock.REF_NOMINAL_S
    # the host runs at half speed around the second slice
    clock = _clock([nominal, nominal, 2 * nominal, 2 * nominal])
    clock.slices = [Slice(0.1, 0, 1, [(0.1, 4)]),
                    Slice(0.3, 1, 2, [(0.3, 4)]),
                    Slice(0.2, 2, 3, [(0.1, 2), (0.1, 2)])]
    assert clock.factor(0, 1) == pytest.approx(1.0)
    assert clock.factor(1, 2) == pytest.approx(1 / 1.5)
    assert clock.factor(2, 3) == pytest.approx(0.5)
    summary = refclock.summarize(clock, clock.slices)
    assert summary["normalized"]["cases_per_s"] == pytest.approx(
        12 / (0.1 + 0.2 + 0.1))
    assert summary["raw"]["cases_per_s"] == pytest.approx(12 / 0.6)
    # normalized latencies 100, 200, 50 and 50 ms
    assert summary["normalized"]["p50_ms"] == pytest.approx(75.0)


def test_contaminated_reference_uses_the_run_median():
    nominal = refclock.REF_NOMINAL_S
    clock = _clock([nominal, 9 * nominal, nominal, nominal],
                   [False, True, False, False])
    assert clock.median_ref() == pytest.approx(nominal)
    assert clock.factor(0, 1) == pytest.approx(1.0)


def test_setup_phases_use_their_own_references():
    nominal = refclock.REF_NOMINAL_S
    clock = _clock([nominal, 2 * nominal, 2 * nominal])
    clock.phases = [
        # the first phase has only the reference after it
        refclock.Phase("imports", 0.5, 0, 0),
        refclock.Phase("history", 3.0, 0, 1, counted=False),
        refclock.Phase("model", 1.0, 1, 2),
    ]
    normalized, raw = clock.setup_seconds()
    assert raw == pytest.approx(1.5)
    assert normalized == pytest.approx(0.5 + 1.0 / 2)


def test_mark_closes_phases_off_the_clock():
    start = time.perf_counter()
    clock = RefClock(start=start)
    time.sleep(0.02)
    clock.mark("first")
    clock.mark("second", counted=False)
    assert [p.name for p in clock.phases] == ["first", "second"]
    first, second = clock.phases
    assert (first.ref_before, first.ref_after) == (0, 0)
    assert (second.ref_before, second.ref_after) == (0, 1)
    assert first.raw_s >= 0.02
    # the reference between the two phases is in neither
    assert second.raw_s < clock.refs[1]
    assert clock.setup_seconds()[1] == first.raw_s


def test_tail_choice():
    assert refclock.tail_percentile(100) == refclock.TAIL_CAP == 90
    assert refclock.tail_percentile(200) == 90
    assert refclock.tail_percentile(40) == 75
    assert refclock.tail_percentile(12) == 50
    values = [float(v) for v in range(1, 101)]
    summary = refclock.latency_summary([v / 1e3 for v in values])
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["tail_ms"] == pytest.approx(90.1)
    assert summary["tail_beyond"] >= refclock.TAIL_BEYOND


def test_findings_match_in_order_except_among_near_ties():
    eps = SCORE_TOLERANCE / 4
    a = ("f", 3, "API", "CWE-120", 0.75)
    b = ("g", 9, "AU", "CWE-190", 0.5 + eps)
    c = ("g", 7, "AU", "CWE-190", 0.5)
    expected = ("x.c", "flagged", (a, b, c))
    assert compare(expected, expected) == "exact"
    nudged = ("x.c", "flagged", (a, b[:4] + (0.5 + 2 * eps,), c))
    assert compare(expected, nudged) == "within"
    # b and c are near-tied: a last-bit score difference may swap them
    swapped = ("x.c", "flagged", (a, c[:4] + (0.5 + 2 * eps,), b))
    assert compare(expected, swapped) == "reordered"
    # a is not tied with anything, so it must stay first
    assert compare(expected, ("x.c", "flagged", (b, a, c))) == "mismatch"
    far = ("x.c", "flagged", (a, b[:4] + (0.5 + 2 * SCORE_TOLERANCE,), c))
    assert compare(expected, far) == "mismatch"
    assert compare(expected, ("x.c", "clean", (a, b, c))) == "mismatch"


def test_a_busy_thread_contaminates_the_reference():
    clock = RefClock()
    clock.reference()
    assert clock.contaminated == [False]
    stop = threading.Event()
    block = bytes(1 << 20)

    def spin():
        # hashing a large buffer releases the GIL, so this thread
        # burns CPU while the reference runs
        while not stop.is_set():
            hashlib.sha256(block).digest()
    thread = threading.Thread(target=spin)
    thread.start()
    try:
        time.sleep(0.01)
        clock.reference()
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert clock.contaminated[-1]


# -- tracing -------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap("child", child)

    def parent():
        time.sleep(0.01)
        traced_child()

    traced_parent = tracer.wrap("parent", parent)
    tracer.enabled = True
    traced_parent()
    selfs = tracer.self_times()
    assert selfs["child"] >= 0.02
    assert 0.01 <= selfs["parent"] < 0.02
    assert tracer.counts["parent"][0] == tracer.counts["child"][0] == 1


# -- diff-rescan ---------------------------------------------------------------

@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    from repro.core.config import SCALE_PRESETS
    from repro.core.detector import SEVulDet
    from repro.datasets.sard import generate_sard_corpus

    detector = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    detector.fit(generate_sard_corpus(12, seed=31), epochs=1)
    path = tmp_path_factory.mktemp("model") / "model.npz"
    detector.save(path)
    return path


def test_every_diff_operation_reslices_and_matches_the_oracle(
        small_model, tmp_path):
    workload = DiffRescan(small_model, tmp_path, seed=4, clock=RefClock())
    workload.functions, workload.source_files = 60, 6
    workload.setup()
    try:
        for index in range(3):
            workload.run(workload.prepare(index))
    finally:
        workload.close()
    assert len(workload.resliced) == 3
    assert all(1 <= n < workload.functions // 4
               for n in workload.resliced)
    outcome = workload.verify()
    assert outcome["attempted"] == 3
    assert outcome["failed"] == outcome["mismatched"] == 0
