"""Design ablation: gadget deduplication and mislabel auditing (Step II).

Two data-path choices DESIGN.md calls out:

* **Deduplication** — the paper de-duplicates merged corpora; this
  bench measures how many exact duplicates the synthetic corpus
  produces and that dedup does not change the class balance direction.
* **k-fold mislabel audit** — Step II's cross-validation check: plant
  label flips into the gadget dataset and confirm the auditor's recall
  on them, using a nearest-neighbour token classifier as the probe.
"""

import numpy as np

from repro.core.extract import extract_gadgets
from repro.slicing.labeling import MislabelAuditor

from conftest import run_once


def _token_overlap_classifier(train_x, train_y, test_x):
    """1-NN under Jaccard token-set similarity (cheap audit probe)."""
    train_sets = [frozenset(tokens) for tokens in train_x]
    predictions = []
    for tokens in test_x:
        probe = frozenset(tokens)
        best_score, best_label = -1.0, 0
        for candidate, label in zip(train_sets, train_y):
            union = len(probe | candidate)
            score = len(probe & candidate) / union if union else 0.0
            if score > best_score:
                best_score, best_label = score, label
        predictions.append(best_label)
    return predictions


def test_ablation_dedup_and_mislabel_audit(benchmark, reporter,
                                           train_cases):
    def experiment():
        raw = extract_gadgets(train_cases, deduplicate=False)
        deduped = extract_gadgets(train_cases, deduplicate=True)

        rng = np.random.default_rng(11)
        samples = [list(g.tokens) for g in deduped]
        labels = [g.label for g in deduped]
        flip_count = max(len(labels) // 25, 3)
        flipped = rng.choice(len(labels), size=flip_count,
                             replace=False)
        noisy = list(labels)
        for index in flipped:
            noisy[index] = 1 - noisy[index]

        auditor = MislabelAuditor(k=5, threshold=2, )
        suspicious = auditor.audit(samples, noisy,
                                   _token_overlap_classifier, rounds=2)
        caught = len(set(suspicious) & set(flipped.tolist()))
        return raw, deduped, flip_count, caught, len(suspicious)

    raw, deduped, planted, caught, reported = run_once(benchmark,
                                                       experiment)

    table = reporter("ablation_dedup_audit",
                     "Design ablation — dedup volume & Step II "
                     "mislabel audit")
    table.add(metric="raw gadgets", value=len(raw))
    table.add(metric="after dedup", value=len(deduped))
    table.add(metric="duplicates removed",
              value=len(raw) - len(deduped))
    table.add(metric="planted label flips", value=planted)
    table.add(metric="flips flagged by audit", value=caught)
    table.add(metric="total flagged", value=reported)
    table.save_and_print()

    # Dedup removes something (template corpora repeat shapes) but
    # never inflates the dataset.
    assert len(deduped) <= len(raw)
    # The audit achieves non-trivial recall on planted flips.
    assert caught >= planted // 2, (caught, planted)
