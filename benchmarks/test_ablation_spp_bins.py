"""Design ablation (beyond the paper's tables): SPP pyramid depth.

The paper fixes the pyramid at (4, 2, 1) bins without ablating it.
This bench compares the full pyramid against a single global-max bin
(the degenerate "bag of features" pooling) and a flat 7-bin pooling
with the same output width — probing whether the *pyramid* structure,
not just fixed-width pooling, carries positional information the task
needs (guard placement is a positional property).
"""

import numpy as np

from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.core.score import evaluate_classifier
from repro.core.train import train_classifier
from repro.models.sevuldet import SEVulDetNet

from conftest import run_once

CONFIGS = {
    "pyramid (4,2,1)": (4, 2, 1),
    "flat (7)": (7,),
    "global (1)": (1,),
}
SEEDS = (7, 23)


def test_ablation_spp_bins(benchmark, reporter, scale, train_cases,
                           test_cases):
    def experiment():
        train_gadgets = extract_gadgets(train_cases)
        test_gadgets = extract_gadgets(test_cases)
        dataset = encode_gadgets(train_gadgets, dim=scale.dim,
                                 w2v_epochs=scale.w2v_epochs, seed=3)
        test_samples = [g.sample(dataset.vocab) for g in test_gadgets]
        results = {}
        for label, bins in CONFIGS.items():
            scores = []
            for seed in SEEDS:
                model = SEVulDetNet(
                    len(dataset.vocab), dim=scale.dim,
                    channels=scale.channels, bins=bins,
                    pretrained=dataset.word2vec.vectors, seed=seed)
                train_classifier(model, dataset.samples,
                                 epochs=scale.epochs,
                                 batch_size=scale.batch_size,
                                 lr=scale.learning_rate, seed=seed)
                scores.append(
                    evaluate_classifier(model, test_samples))
            results[label] = scores
        return results

    results = run_once(benchmark, experiment)

    table = reporter("ablation_spp_bins",
                     "Design ablation — SPP pyramid depth "
                     f"(mean over seeds {SEEDS})")
    means = {}
    for label, runs in results.items():
        f1 = float(np.mean([m.f1 for m in runs]))
        accuracy = float(np.mean([m.accuracy for m in runs]))
        means[label] = f1
        table.add(pooling=label,
                  **{"A(%)": round(accuracy * 100, 1),
                     "F1(%)": round(f1 * 100, 1)})
    table.save_and_print()

    # Every pooling flavour learns (fixed-width pooling is what makes
    # flexible length possible at all) ...
    for label, f1 in means.items():
        assert f1 > 0.5, label
    # ... and multi-bin pooling preserves positional signal that the
    # single global bin cannot represent.
    assert max(means["pyramid (4,2,1)"], means["flat (7)"]) >= \
        means["global (1)"] - 0.02
