#!/usr/bin/env python3
"""The repository's benchmark: one workload, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-scan --seed 1 \\
        --seconds 10 --trace 0

Runs the named workload for ``--seconds`` of reference-normalized
timing (see ``perfbench/refclock.py``), checks every verdict against a
serial ``detect_case`` oracle, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``peak_rss_mb``, ``cases_per_s``, ``p50_ms``,
``tail_ms``); with ``--trace 1`` the run is split into an untraced and
a traced half and the metrics are the per-layer ones.  The line before
it is a ``{"detail": ...}`` object with the raw wall numbers, the
reference times, the environment block and the set-up samples.

The fixture model is trained once per source tree (in a subprocess,
so its time and memory stay out of every metric) and cached under
``.bench_build/perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, as near as Python gets

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
#: BLAS thread settings are pinned so they cannot differ between runs
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
os.environ.setdefault("REPRO_SCALE", "small")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import declaration  # noqa: E402

#: set-up is measured this many times per run; the median is reported
SETUP_SAMPLES = 5
#: program packages the benchmark imports one at a time, each closed by
#: a set-up mark, so that the imports are normalized in parts of a few
#: tenths of a second rather than as one
IMPORT_STAGES = ("repro.lang", "repro.core.encode", "repro.core.detector")
#: the fixture model: a small SEVulDet trained on a seeded SARD corpus
FIXTURE = {"scale": "small", "seed": 3, "train_cases": 80,
           "corpus_seed": 31, "threshold": 0.5}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    declared = declaration()
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--train-fixture", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- fixture -------------------------------------------------------------------

def fixture_path() -> Path:
    """Cache path of the fixture model: keyed on the recipe and on
    every source file of the program, so a code change retrains."""
    digest = hashlib.sha256(json.dumps(FIXTURE, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return WORK / f"fixture-{digest.hexdigest()[:16]}.npz"


def train_fixture(path: Path) -> None:
    from repro.core.config import SCALE_PRESETS
    from repro.core.detector import SEVulDet
    from repro.datasets.sard import generate_sard_corpus

    detector = SEVulDet(scale=SCALE_PRESETS[FIXTURE["scale"]],
                        seed=FIXTURE["seed"])
    detector.fit(generate_sard_corpus(FIXTURE["train_cases"],
                                      seed=FIXTURE["corpus_seed"]))
    detector.threshold = FIXTURE["threshold"]
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.stem}.{os.getpid()}.partial.npz")
    detector.save(partial)
    os.replace(partial, path)


def ensure_fixture() -> tuple[Path, float]:
    """The fixture model path and the seconds spent training it now
    (0 when cached)."""
    path = fixture_path()
    if path.exists():
        return path, 0.0
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--workload", "cold-scan",
                    "--seed", "0", "--train-fixture"], check=True,
                   timeout=600)
    return path, time.perf_counter() - start


# -- environment ---------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, if it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def environment(args: argparse.Namespace) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "scale": os.environ.get("REPRO_SCALE"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- the run -------------------------------------------------------------------

def stop_children() -> None:
    """Stop the resource tracker the oracle's process pool started
    (it would otherwise outlive this process briefly) and wait for
    every other child to end."""
    from multiprocessing import resource_tracker

    from perfbench.refclock import descendants, wait_gone

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    wait_gone([pid for pid in descendants(os.getpid())
               if pid != os.getpid()])


def setup_probe(args: argparse.Namespace, work: Path) -> dict:
    """Normalized and raw seconds from the start of a fresh process to
    ready-to-scan (the probe may reuse history from this run's
    ``work``)."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", str(work)],
        check=True, capture_output=True, text=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in declaration()[kind]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.train_fixture:
        train_fixture(fixture_path())
        return 0

    from perfbench import refclock
    clock = refclock.RefClock(start=_T0)
    clock.mark("start")
    for package in IMPORT_STAGES:
        importlib.import_module(package)
        clock.mark("imports")
    from perfbench import tracing
    from perfbench.workloads import BATCH_SIZE, WORKLOADS
    clock.mark("imports")

    model, train_s = ensure_fixture()
    # training is a one-off per source tree, not set-up
    clock.mark("fixture", counted=train_s == 0)
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](model, work, args.seed, clock,
                                        reuse=args.setup_probe)
    tracer = tracing.Tracer()
    layer_units = declared_units("per_layer")
    # layers a workload never reaches read 0
    layers = dict.fromkeys(layer_units, 0)
    try:
        workload.setup()
        setup_s, setup_raw = clock.setup_seconds()
        sample = {"setup_s": setup_s, "raw_s": setup_raw,
                  "phases": clock.phase_seconds(),
                  "contaminated": sum(clock.contaminated),
                  "refs": len(clock.refs)}
        if args.setup_probe is not None:
            print(json.dumps(sample))
            return 0
        ended = {"setup": time.perf_counter() - _T0}
        # set-up samples: this process, then fresh probe processes
        setup = [sample] + [
            setup_probe(args, work) for _ in range(SETUP_SAMPLES - 1)]
        ended["probes"] = time.perf_counter() - _T0
        stats_before = workload.stats()
        if args.trace:
            tracer.install()
        try:
            clock.loop(workload.prepare, workload.run, workload.finish,
                       args.seconds,
                       trace=tracer.switch if args.trace else None)
        finally:
            tracer.uninstall()
        peak_rss = workload.peak_rss_mb()
        ended["measure"] = time.perf_counter() - _T0
        if args.trace:
            layers.update(tracing.layer_metrics(tracer, BATCH_SIZE))
            layers.update(workload.layer_metrics(stats_before))
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    outcome = workload.verify()
    ended["verify"] = time.perf_counter() - _T0

    timed = [s for s in clock.slices if not s.traced]
    summary = refclock.summarize(clock, timed)
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": peak_rss,
        "cases_per_s": summary["normalized"]["cases_per_s"],
        "p50_ms": summary["normalized"]["p50_ms"],
        "tail_ms": summary["normalized"]["tail_ms"],
    }
    detail = {
        "environment": environment(args),
        "inputs_sha256": workload.input_digest(),
        "fixture": {"path": model.name, "train_s": train_s},
        "setup": {"normalized_s": [s["setup_s"] for s in setup],
                  "raw_s": [s["raw_s"] for s in setup],
                  "phases": [s["phases"] for s in setup]},
        "summary": summary,
        "end_to_end": e2e,
        "oracle": outcome,
        "workload": workload.detail(),
        "phases_end_s": ended,
    }
    if args.trace:
        traced = [s for s in clock.slices if s.traced]
        untraced_cps = summary["normalized"]["cases_per_s"]
        traced_cps = refclock.summarize(clock, traced)[
            "normalized"]["cases_per_s"]
        layers["bench.ref_ms"] = statistics.median(clock.refs) * 1e3
        layers["bench.ref_contaminated"] = sum(clock.contaminated)
        layers["bench.trace_overhead_frac"] = 1 - traced_cps / untraced_cps
        wall = sum(s.raw_s for s in traced)
        detail["layer_share_of_wall"] = tracing.layer_shares(tracer, wall)
        detail["layers"] = layers
        trace_file = WORK / "traces" / (f"{args.workload}-seed{args.seed}"
                                        ".jsonl")
        tracer.write(trace_file)
        detail["trace_file"] = trace_file.relative_to(ROOT).as_posix()
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in declared_units("end_to_end").items()}
    correct = outcome["failed"] == 0 and outcome["mismatched"] == 0
    stop_children()
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
