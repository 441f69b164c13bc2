#!/usr/bin/env python3
"""Run the detectors x datasets benchmark matrix and record it.

Writes machine-readable JSON to
``benchmarks/results/BENCH_matrix.json``::

    PYTHONPATH=src python scripts/bench_matrix.py          # full grid
    PYTHONPATH=src python scripts/bench_matrix.py --smoke  # CI-sized

Full mode runs the acceptance grid — SEVulDet, the SySeVR BRNN, four
classical scanners, and the fuzzer, across the SARD/NVD/Xen/Juliet/
CVEfixes adapters — with paired-bootstrap significance against
flawfinder per dataset.  The ``cells`` section of the JSON is the
regression-tracked artifact: adapters are deterministic in the seed,
detector seeds derive per cell, so reruns on one machine reproduce it
exactly (the ``timing`` section is environment-dependent and excluded
from that contract).

Two correctness gates run in every mode (CI asserts these, never
timings):

* **determinism** — a second, fresh run of a cheap sub-grid must
  produce byte-identical cell payloads (pins the regression-tracking
  contract).
* **parity** — one framework cell must equal the pre-refactor
  ``train_and_evaluate`` serial path on the same seed (the protocol
  refactor moved wiring, not numbers).  Smoke mode shrinks the corpus
  and epochs so this finishes in CI time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import Scale, current_scale  # noqa: E402
from repro.core.context import RunContext  # noqa: E402
from repro.datasets.adapters import (JulietAdapter,  # noqa: E402
                                     SardAdapter, default_adapters)
from repro.eval.comparison import (FRAMEWORKS,  # noqa: E402
                                   train_and_evaluate)
from repro.eval.detector import (FrameworkDetector,  # noqa: E402
                                 build_detector)
from repro.eval.matrix import MatrixRunner  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results" / "BENCH_matrix.json"

FULL_DETECTORS = ("SEVulDet", "SySeVR", "flawfinder", "rats",
                  "checkmarx", "vuddy", "afl")
SMOKE_DETECTORS = ("flawfinder", "rats")

SMOKE_SCALE = Scale("smoke", cases_per_experiment=40, dim=8,
                    channels=8, hidden=8, epochs=6, batch_size=16,
                    time_steps=40, w2v_epochs=1)


def detector_factory(name: str, scale, seed: int, fuzz_execs: int):
    """A named zero-arg factory so every cell gets a fresh instance."""
    from repro.datasets.adapters import derive_seed

    class _Factory:
        def __init__(self, detector_name: str):
            self.name = detector_name

        def __call__(self):
            return build_detector(
                self.name, scale=scale,
                seed=derive_seed(seed, "cell", self.name),
                fuzz_execs=fuzz_execs)

    return _Factory(name)


def gate_determinism(adapters, seed: int) -> dict:
    """Two fresh runs of a cheap static-tool sub-grid must agree."""
    def run():
        runner = MatrixRunner(
            [detector_factory(name, None, seed, 50)
             for name in ("flawfinder", "rats")],
            adapters, baseline="flawfinder", seed=seed,
            resamples=100)
        result = runner.run()
        return [dict(cell.to_json(), significance=cell.significance)
                for cell in result.cells]

    first, second = run(), run()
    return {
        "identical": first == second,
        "cells_compared": len(first),
    }


def gate_parity(scale, seed: int) -> dict:
    """One SEVulDet cell vs the pre-refactor serial path."""
    adapter = SardAdapter(
        max(scale.cases_per_experiment // 2, 30),
        max(scale.cases_per_experiment // 4, 16))
    split = adapter.load(seed)
    detector = FrameworkDetector("SEVulDet", scale, seed=seed)
    ctx = RunContext.create()
    detector.fit(split.train, ctx)
    prediction = detector.predict(split.test, ctx)
    labels = [1 if case.vulnerable else 0 for case in split.test]
    matrix_metrics = prediction.metrics(labels)
    legacy_metrics, _ = train_and_evaluate(
        FRAMEWORKS["SEVulDet"], split.train, split.test, scale,
        seed=seed)
    return {
        "equal": matrix_metrics == legacy_metrics,
        "matrix_f1": matrix_metrics.f1,
        "legacy_f1": legacy_metrics.f1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized: 2 detectors x 2 datasets, "
                             "tiny corpora, gates only")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--train-cases", type=int, default=None,
                        help="training programs per dataset "
                             "(default 100 full / 30 smoke)")
    parser.add_argument("--test-cases", type=int, default=None,
                        help="test programs per dataset "
                             "(default 50 full / 16 smoke)")
    parser.add_argument("--resamples", type=int, default=500)
    parser.add_argument("--fuzz-execs", type=int, default=150)
    parser.add_argument("--output", type=Path, default=RESULTS)
    args = parser.parse_args(argv)

    scale = SMOKE_SCALE if args.smoke else current_scale()
    train = args.train_cases if args.train_cases is not None \
        else (30 if args.smoke else 100)
    test = args.test_cases if args.test_cases is not None \
        else (16 if args.smoke else 50)
    adapters = default_adapters(train, test)
    if args.smoke:
        detector_names = SMOKE_DETECTORS
        dataset_names = ("sard", "juliet")
    else:
        detector_names = FULL_DETECTORS
        dataset_names = ("sard", "nvd", "xen", "juliet", "cvefixes")

    started = time.perf_counter()
    runner = MatrixRunner(
        [detector_factory(name, scale, args.seed, args.fuzz_execs)
         for name in detector_names],
        [adapters[name] for name in dataset_names],
        baseline="flawfinder", seed=args.seed,
        resamples=args.resamples,
        progress=lambda message: print(message, flush=True))
    result = runner.run()
    grid_seconds = time.perf_counter() - started
    print()
    print(result.leaderboard().render())

    errors = [cell for cell in result.cells if not cell.ok]
    determinism = gate_determinism(
        [SardAdapter(20, 12), JulietAdapter(16, 10)], args.seed)
    print(f"determinism gate: identical={determinism['identical']}")
    parity = gate_parity(SMOKE_SCALE if args.smoke else scale,
                         args.seed)
    print(f"parity gate: equal={parity['equal']} "
          f"(matrix F1 {parity['matrix_f1']:.3f})")

    report = {
        "benchmark": "matrix",
        "mode": "smoke" if args.smoke else "full",
        "dtype": os.environ.get("REPRO_DTYPE", "float32"),
        "scale": scale.name,
        "seed": args.seed,
        "counts": {"train": train, "test": test},
        "detectors": list(detector_names),
        "datasets": list(dataset_names),
        "fuzz_execs": args.fuzz_execs,
        "resamples": args.resamples,
        "note": ("'grid.cells' is deterministic per machine/seed and "
                 "regression-tracked; 'grid.timing' and "
                 "'grid_seconds' are environment-dependent"),
        "grid": result.to_json(),
        "grid_seconds": round(grid_seconds, 2),
        "cell_errors": len(errors),
        "gates": {"determinism": determinism, "parity": parity},
        "targets_met": {
            "no_cell_errors": not errors,
            "determinism": determinism["identical"],
            "parity": parity["equal"],
        },
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output} ({grid_seconds:.1f}s grid)")

    if errors:
        for cell in errors:
            print(f"error cell {cell.detector} x {cell.dataset}: "
                  f"{cell.error}", file=sys.stderr)
        return 1
    if not determinism["identical"] or not parity["equal"]:
        print("error: correctness gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
