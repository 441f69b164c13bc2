#!/usr/bin/env python3
"""Step II in action: k-fold cross-validation mislabel auditing.

The paper labels gadgets heuristically (a gadget covering a flagged
line inherits label 1) and notes this mislabels some of them; its
remedy is k-fold cross-validation to narrow down the check range,
followed by manual judgment.  This script plants label flips into a
gadget dataset, runs the auditor, and shows its precision/recall on the
planted corruption — with the execution oracle standing in for the
paper's human reviewer.
"""

import numpy as np

from repro.core.extract import extract_gadgets
from repro.datasets.sard import generate_sard_corpus
from repro.slicing.labeling import MislabelAuditor


def token_jaccard_classifier(train_x, train_y, test_x):
    """1-NN on token-set Jaccard similarity — a cheap, fast probe."""
    train_sets = [frozenset(tokens) for tokens in train_x]
    out = []
    for tokens in test_x:
        probe = frozenset(tokens)
        best, label = -1.0, 0
        for candidate, candidate_label in zip(train_sets, train_y):
            union = len(probe | candidate)
            score = len(probe & candidate) / union if union else 0.0
            if score > best:
                best, label = score, candidate_label
        out.append(label)
    return out


def main() -> None:
    print("=== Step II: k-fold mislabel audit ===\n")

    cases = generate_sard_corpus(120, seed=33)
    gadgets = extract_gadgets(cases)
    samples = [list(g.tokens) for g in gadgets]
    labels = [g.label for g in gadgets]
    print(f"dataset: {len(gadgets)} gadgets, "
          f"{sum(labels)} labelled vulnerable")

    rng = np.random.default_rng(4)
    flip_count = max(len(labels) // 20, 5)
    flipped = set(rng.choice(len(labels), size=flip_count,
                             replace=False).tolist())
    noisy = [1 - label if index in flipped else label
             for index, label in enumerate(labels)]
    print(f"planted {flip_count} label flips\n")

    auditor = MislabelAuditor(k=5, threshold=2)
    suspicious = auditor.audit(samples, noisy,
                               token_jaccard_classifier, rounds=2)
    caught = set(suspicious) & flipped
    print(f"audit flagged {len(suspicious)} gadgets for review")
    print(f"recall on planted flips : "
          f"{len(caught)}/{flip_count} "
          f"({len(caught) / flip_count:.0%})")
    print(f"review precision        : "
          f"{len(caught)}/{len(suspicious)} "
          f"({len(caught) / max(len(suspicious), 1):.0%})")

    # The oracle (here: the original labels, which came from the
    # execution-validated manifests) plays the paper's human reviewer.
    repaired = auditor.relabel(noisy, suspicious,
                               oracle=lambda index: labels[index])
    remaining = sum(1 for a, b in zip(repaired, labels) if a != b)
    print(f"\nafter oracle-backed relabeling: {remaining} corrupted "
          f"labels remain (was {flip_count})")


if __name__ == "__main__":
    main()
