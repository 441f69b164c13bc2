#!/usr/bin/env python3
"""Benchmark the fused inference path and the reduced-precision dtypes.

Scores one extracted gadget corpus through every inference
configuration and writes machine-readable JSON to
``benchmarks/results/BENCH_infer.json``::

    PYTHONPATH=src python scripts/bench_infer.py          # full run
    PYTHONPATH=src python scripts/bench_infer.py --smoke  # CI-sized

Two measurements:

* ``fused`` — the graph ``forward`` under ``no_grad`` vs the fused
  ``forward_inference`` kernel (:mod:`repro.models.fused`), same
  float32 weights, same batches.  Outputs must be **bit-identical**
  (this is the correctness gate; the run fails if they diverge).  The
  speedup target is >= 1.15x — the kernel saves per-op Tensor
  allocation, not FLOPs, so it holds even on one CPU.
* ``dtypes`` — cases/sec plus the measured guardband (max |Δprob| vs
  float32 and the verdict-flip count at the paper's 0.8 threshold)
  for float32 / int8 weights.  int8 shrinks the stored payload; its
  throughput ratio is disclosed, not gated.

``--smoke`` shrinks the corpus so CI finishes in seconds; CI asserts
the JSON contract and the bit-identity flag, never throughput ratios.
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

import numpy as np  # noqa: E402

from repro.core.encode import encode_gadgets  # noqa: E402
from repro.core.extract import extract_gadgets  # noqa: E402
from repro.core.score import (SCORE_MIN_LENGTH,  # noqa: E402
                              predict_proba)
from repro.datasets.sard import generate_sard_corpus  # noqa: E402
from repro.models.sevuldet import (DECISION_THRESHOLD,  # noqa: E402
                                   SEVulDetNet)
from repro.nn import (bucketed_batches, no_grad,  # noqa: E402
                      stable_sigmoid)
from repro.nn.quantize import apply_inference_dtype  # noqa: E402

TARGET_FUSED = 1.15
DTYPES = ("float32", "int8")


def build_model(train_cases, dim: int, channels: int):
    """A trained-shape model + vocab (random weights: the benchmark
    measures wall-clock and numeric deltas, not accuracy)."""
    gadgets = extract_gadgets(train_cases)
    dataset = encode_gadgets(gadgets, dim=dim, w2v_epochs=0, seed=13)
    model = SEVulDetNet(len(dataset.vocab), dim=dim,
                        channels=channels,
                        pretrained=dataset.word2vec.vectors, seed=3)
    dataset.bind_embedding_aliases(model)
    model.eval()
    return model, dataset.vocab


def clone_model(model, dtype: str):
    """An independent copy of ``model`` re-represented at ``dtype``."""
    spec = {
        "dim": model.embedding.dim,
        "channels": int(model.conv.weight.data.shape[0]),
    }
    clone = SEVulDetNet(model.embedding.vocab_size, **spec)
    clone.load_state_dict({key: value.copy() for key, value
                           in model.state_dict().items()})
    if model.embedding.id_aliases is not None:
        clone.embedding.id_aliases = model.embedding.id_aliases.copy()
    clone.eval()
    report = apply_inference_dtype(clone, dtype)
    return clone, report


def predict_unfused(model, samples, batch_size: int) -> np.ndarray:
    """predict_proba's exact batching, scored through the autograd
    graph forward — the pre-fusion inference path."""
    scores = np.zeros(len(samples))
    model.eval()
    with no_grad():
        for ids, _, indices in bucketed_batches(
                samples, batch_size, min_length=SCORE_MIN_LENGTH,
                with_indices=True):
            scores[indices] = stable_sigmoid(
                model.forward(ids).data.reshape(-1))
    return scores


def best_time(fn, repeats: int):
    """Best wall-clock of ``repeats`` calls; returns (seconds, times,
    last_result)."""
    best, times, result = None, [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        times.append(round(elapsed, 4))
        if best is None or elapsed < best:
            best = elapsed
    return best, times, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: tiny corpus, no perf gate")
    parser.add_argument("--cases", type=int, default=None,
                        help="corpus programs (default 96, smoke 10)")
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed passes per config, best kept "
                             "(default 3, smoke 1)")
    parser.add_argument("--output", type=Path,
                        default=ROOT / "benchmarks" / "results"
                        / "BENCH_infer.json")
    args = parser.parse_args(argv)

    n_cases = args.cases or (10 if args.smoke else 96)
    repeats = args.repeats or (1 if args.smoke else 3)
    dim, channels = (8, 8) if args.smoke else (30, 128)
    cpus = os.cpu_count() or 1

    model, vocab = build_model(generate_sard_corpus(40, seed=31),
                               dim, channels)
    corpus = generate_sard_corpus(n_cases, seed=99)
    gadgets = extract_gadgets(corpus)
    samples = [g.sample(vocab) for g in gadgets]
    print(f"scoring {len(samples)} gadgets from {n_cases} cases "
          f"({cpus} cpu(s), dim={dim}, channels={channels}, "
          f"best of {repeats})")

    # -- fused vs unfused (float32, bit-identity gated) ----------------------
    unfused_s, unfused_times, unfused_scores = best_time(
        lambda: predict_unfused(model, samples, args.batch_size),
        repeats)
    fused_s, fused_times, fused_scores = best_time(
        lambda: predict_proba(model, samples,
                              batch_size=args.batch_size), repeats)
    bit_identical = bool(np.array_equal(unfused_scores, fused_scores))
    fused_speedup = round(unfused_s / max(fused_s, 1e-9), 2)
    print(f"fused forward: graph {unfused_s:.4f}s, fused "
          f"{fused_s:.4f}s -> {fused_speedup}x "
          f"(bit-identical: {bit_identical})")

    # -- per-dtype throughput + guardband ------------------------------------
    base_scores = np.asarray(fused_scores, dtype=np.float64)
    dtype_rows = {}
    for dtype in DTYPES:
        clone, qreport = clone_model(model, dtype)
        seconds, times, scores = best_time(
            lambda m=clone: predict_proba(m, samples,
                                          batch_size=args.batch_size),
            repeats)
        delta = np.abs(np.asarray(scores, dtype=np.float64)
                       - base_scores)
        flips = int(np.sum(
            (np.asarray(scores, dtype=np.float64)
             >= DECISION_THRESHOLD)
            != (base_scores >= DECISION_THRESHOLD)))
        dtype_rows[dtype] = {
            "seconds": round(seconds, 4),
            "all_runs_seconds": times,
            "cases_per_sec": round(n_cases / seconds, 2),
            "gadgets_per_sec": round(len(samples) / seconds, 2),
            "speedup_vs_float32": None,  # filled below
            "max_abs_delta": float(delta.max()) if len(delta) else 0.0,
            "mean_abs_delta": (float(delta.mean())
                               if len(delta) else 0.0),
            "flips_at_threshold": flips,
            "flip_rate": (flips / len(samples)) if samples else 0.0,
            "weights_nbytes": qreport.weights_nbytes_after,
            "payload_nbytes": qreport.payload_nbytes,
        }
    f32_seconds = dtype_rows["float32"]["seconds"]
    for dtype, row in dtype_rows.items():
        row["speedup_vs_float32"] = round(
            f32_seconds / max(row["seconds"], 1e-9), 2)
        print(f"{dtype:8s}: {row['gadgets_per_sec']} gadgets/s "
              f"({row['speedup_vs_float32']}x vs float32), "
              f"max |dprob|={row['max_abs_delta']:.2e}, "
              f"flips={row['flips_at_threshold']}/{len(samples)}")

    report = {
        "benchmark": "infer",
        "mode": "smoke" if args.smoke else "full",
        "cpus": cpus,
        "cpu_count": cpus,
        "corpus": {"cases": n_cases, "gadgets": len(samples)},
        "model": {"dim": dim, "channels": channels,
                  "vocab": model.embedding.vocab_size},
        "batch_size": args.batch_size,
        "repeats": repeats,
        "threshold": DECISION_THRESHOLD,
        "fused": {
            "unfused_seconds": round(unfused_s, 4),
            "unfused_all_runs_seconds": unfused_times,
            "fused_seconds": round(fused_s, 4),
            "fused_all_runs_seconds": fused_times,
            "speedup": fused_speedup,
            "bit_identical": bit_identical,
        },
        "dtypes": dtype_rows,
        "targets": {"fused_speedup": TARGET_FUSED},
        "targets_met": {
            "fused_speedup": fused_speedup >= TARGET_FUSED,
            "fused_bit_identical": bit_identical,
            "flip_rate_zero": all(
                row["flips_at_threshold"] == 0
                for row in dtype_rows.values()),
        },
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not bit_identical:
        print("error: fused forward diverged from the graph forward "
              "at float32", file=sys.stderr)
        return 1
    if not args.smoke and fused_speedup < TARGET_FUSED:
        print("warning: fused speedup target not met",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
