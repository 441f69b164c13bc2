#!/usr/bin/env python3
"""Benchmark the vectorized training hot path.

Times the two word2vec backends (batched SGNS vs the per-pair
reference loop) on an identical extracted-gadget corpus, then times
end-to-end ``SEVulDet.fit`` under each backend, and writes the
measurements as machine-readable JSON to
``benchmarks/results/BENCH_train.json``::

    PYTHONPATH=src python scripts/bench_train.py          # full run
    PYTHONPATH=src python scripts/bench_train.py --smoke  # CI-sized

``--smoke`` shrinks the corpus so the script finishes in seconds and
records ``"mode": "smoke"``; CI runs it only to assert the script and
its JSON contract stay healthy, never to gate on the speedups (CI
machines are too noisy for that).  The checked-in BENCH_train.json
comes from a full run and records the targets the vectorization work
was acceptance-tested against: batched word2vec >= 5x the per-pair
loop, end-to-end fit >= 2x.

Alongside the speedups the report captures statistical-equivalence
evidence (final losses of both backends plus nearest-neighbor overlap
of the most frequent tokens) and the telemetry throughputs
(tokens/sec, pairs/sec, batches/sec) that ``repro train --stats``
prints.
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

from repro.core.detector import SEVulDet  # noqa: E402
from repro.core.extract import extract_gadgets  # noqa: E402
from repro.core.telemetry import Telemetry  # noqa: E402
from repro.datasets.sard import generate_sard_corpus  # noqa: E402
from repro.embedding.vocab import Vocabulary  # noqa: E402
from repro.embedding.word2vec import Word2Vec  # noqa: E402

TARGET_W2V_SPEEDUP = 5.0
TARGET_FIT_SPEEDUP = 2.0


def _build_corpora(cases) -> tuple[Vocabulary, list[list[int]]]:
    """Extract gadgets and encode them exactly like encode_gadgets."""
    gadgets = extract_gadgets(cases)
    vocab = Vocabulary.build([list(g.tokens) for g in gadgets])
    corpora = [vocab.encode(list(g.tokens)) for g in gadgets]
    return vocab, corpora


def _neighborhood_overlap(reference: Word2Vec, candidate: Word2Vec,
                          corpora: list[list[int]],
                          probes: int = 10, top_k: int = 5) -> float:
    """Mean nearest-neighbor overlap on the most frequent tokens."""
    counts: dict[int, int] = {}
    for corpus in corpora:
        for token_id in corpus:
            counts[token_id] = counts.get(token_id, 0) + 1
    frequent = sorted((i for i in counts if i >= 2),
                      key=lambda i: -counts[i])[:probes]
    if not frequent:
        return 1.0
    overlaps = []
    for token_id in frequent:
        token = reference.vocab.id_to_token[token_id]
        ref = {t for t, _ in reference.most_similar(token, top_k)}
        cand = {t for t, _ in candidate.most_similar(token, top_k)}
        overlaps.append(len(ref & cand) / max(len(ref), 1))
    return sum(overlaps) / len(overlaps)


def bench_word2vec(vocab: Vocabulary, corpora: list[list[int]],
                   dim: int, epochs: int, seed: int) -> dict:
    """Time both backends on the same corpus and seed."""
    results: dict[str, object] = {}
    models: dict[str, Word2Vec] = {}
    for backend in ("pairwise", "batched"):
        model = Word2Vec(vocab, dim=dim, seed=seed, backend=backend)
        telemetry = Telemetry()
        start = time.perf_counter()
        loss = model.train(corpora, epochs=epochs, telemetry=telemetry)
        elapsed = time.perf_counter() - start
        models[backend] = model
        results[f"{backend}_seconds"] = round(elapsed, 4)
        results[f"{backend}_final_loss"] = round(float(loss), 4)
        if backend == "batched":
            results["tokens_per_sec"] = round(
                telemetry.rate("w2v_tokens", "w2v-train"), 1)
            results["pairs_per_sec"] = round(
                telemetry.rate("w2v_pairs", "w2v-train"), 1)
    results["speedup"] = round(
        results["pairwise_seconds"] / max(results["batched_seconds"],
                                          1e-9), 2)
    results["neighborhood_overlap"] = round(_neighborhood_overlap(
        models["pairwise"], models["batched"], corpora), 3)
    return results


def bench_fit(cases, epochs: int, seed: int) -> dict:
    """Time end-to-end SEVulDet.fit under each word2vec backend."""
    results: dict[str, object] = {}
    previous = os.environ.get("REPRO_W2V_BACKEND")
    try:
        for backend in ("pairwise", "batched"):
            os.environ["REPRO_W2V_BACKEND"] = backend
            detector = SEVulDet(seed=seed)
            start = time.perf_counter()
            report = detector.fit(cases, epochs=epochs)
            elapsed = time.perf_counter() - start
            results[f"{backend}_seconds"] = round(elapsed, 4)
            results[f"{backend}_final_loss"] = round(
                float(report.losses[-1]), 4)
            if backend == "batched":
                telemetry = detector.telemetry
                results["batches_per_sec"] = round(
                    telemetry.rate("train_batches", "train"), 1)
                results["samples_per_sec"] = round(
                    telemetry.rate("train_samples", "train"), 1)
    finally:
        if previous is None:
            os.environ.pop("REPRO_W2V_BACKEND", None)
        else:
            os.environ["REPRO_W2V_BACKEND"] = previous
    results["speedup"] = round(
        results["pairwise_seconds"] / max(results["batched_seconds"],
                                          1e-9), 2)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: tiny corpus, no perf gate")
    parser.add_argument("--cases", type=int, default=None,
                        help="corpus programs (default 60, smoke 10)")
    parser.add_argument("--output", type=Path,
                        default=ROOT / "benchmarks" / "results"
                        / "BENCH_train.json")
    args = parser.parse_args(argv)

    cases_n = args.cases or (10 if args.smoke else 60)
    w2v_epochs = 1 if args.smoke else 3
    fit_epochs = 2 if args.smoke else 8
    seed = 7

    cases = generate_sard_corpus(cases_n, seed=31)
    vocab, corpora = _build_corpora(cases)
    tokens = sum(len(c) for c in corpora)
    print(f"corpus: {cases_n} cases, {len(corpora)} gadgets, "
          f"{tokens} tokens, vocab {len(vocab)}")

    w2v = bench_word2vec(vocab, corpora, dim=16, epochs=w2v_epochs,
                         seed=seed)
    print(f"word2vec: pairwise {w2v['pairwise_seconds']}s, batched "
          f"{w2v['batched_seconds']}s -> {w2v['speedup']}x "
          f"(overlap {w2v['neighborhood_overlap']})")

    fit = bench_fit(cases, epochs=fit_epochs, seed=seed)
    print(f"fit: pairwise {fit['pairwise_seconds']}s, batched "
          f"{fit['batched_seconds']}s -> {fit['speedup']}x")

    report = {
        "benchmark": "train",
        "mode": "smoke" if args.smoke else "full",
        "dtype": os.environ.get("REPRO_DTYPE", "float32"),
        "corpus": {"cases": cases_n, "gadgets": len(corpora),
                   "tokens": tokens, "vocab": len(vocab)},
        "word2vec": w2v,
        "fit": fit,
        "targets": {"word2vec_speedup": TARGET_W2V_SPEEDUP,
                    "fit_speedup": TARGET_FIT_SPEEDUP},
        "targets_met": {
            "word2vec": w2v["speedup"] >= TARGET_W2V_SPEEDUP,
            "fit": fit["speedup"] >= TARGET_FIT_SPEEDUP,
        },
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.smoke and not all(report["targets_met"].values()):
        print("warning: speedup targets not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
