#!/usr/bin/env python3
"""Definition 8 in practice: what fixed-length truncation costs.

Builds a long-preamble vulnerable program (the ``long_chain_strcpy``
family), shows that the vulnerable sink's tokens fall *past* a short
fixed window — so a BRNN literally never sees them — then trains both
a fixed-length BLSTM and the flexible-length SEVulDet network on the
same data and compares their scores on held-out long gadgets.
"""

import numpy as np

from repro.core.config import SCALE_PRESETS
from repro.core.encode import encode_gadgets
from repro.core.extract import extract_gadgets
from repro.core.score import predict_proba
from repro.core.train import train_classifier
from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.datasets.sard import generate_sard_corpus
from repro.models.blstm import BLSTMNet
from repro.models.sevuldet import SEVulDetNet
from repro.nn.data import pad_or_truncate

SHORT_WINDOW = 40  # a deliberately tight tau


def main() -> None:
    print("=== flexible length vs fixed time steps ===\n")
    scale = SCALE_PRESETS["small"]

    template = next(t for t in TEMPLATES
                    if t.name == "long_chain_strcpy")
    sample_case = generate_case(template, vulnerable=True, seed=404)
    (gadget,) = [g for g in extract_gadgets([sample_case],
                                            deduplicate=False)
                 if g.criterion.token == "strncpy"]
    sink_position = max(index for index, token
                        in enumerate(gadget.tokens)
                        if token == "strncpy")
    print(f"sample long gadget: {len(gadget.tokens)} tokens; the "
          f"vulnerable strncpy sits at token {sink_position}")
    truncated = pad_or_truncate(range(len(gadget.tokens)),
                                SHORT_WINDOW)
    survives = sink_position < len(truncated)
    print(f"with tau = {SHORT_WINDOW}, the sink "
          f"{'survives' if survives else 'IS TRUNCATED AWAY'} "
          f"(Definition 8)\n")

    print("training both models on the same corpus ...")
    train_cases = generate_sard_corpus(120, seed=88)
    train_gadgets = extract_gadgets(train_cases)
    dataset = encode_gadgets(train_gadgets, dim=scale.dim,
                             w2v_epochs=scale.w2v_epochs, seed=4)

    blstm = BLSTMNet(len(dataset.vocab), dim=scale.dim,
                     hidden=scale.hidden, time_steps=SHORT_WINDOW,
                     pretrained=dataset.word2vec.vectors, seed=4)
    sevuldet = SEVulDetNet(len(dataset.vocab), dim=scale.dim,
                           channels=scale.channels,
                           pretrained=dataset.word2vec.vectors, seed=4)
    for model in (blstm, sevuldet):
        train_classifier(model, dataset.samples, epochs=scale.epochs,
                         batch_size=scale.batch_size,
                         lr=scale.learning_rate, seed=4)

    print("scoring held-out long-chain gadgets ...\n")
    rows = []
    for seed in range(900, 912):
        for vulnerable in (True, False):
            case = generate_case(template, vulnerable=vulnerable,
                                 seed=seed)
            gadgets = [g for g in extract_gadgets([case],
                                                  deduplicate=False)
                       if g.criterion.token == "strncpy"]
            if not gadgets:
                continue
            samples = [g.sample(dataset.vocab) for g in gadgets]
            rows.append((vulnerable,
                         float(predict_proba(blstm, samples).max()),
                         float(predict_proba(sevuldet,
                                             samples).max())))

    def auc_like(scores):
        positives = [s for is_vuln, s in scores if is_vuln]
        negatives = [s for is_vuln, s in scores if not is_vuln]
        pairs = [(p > n) + 0.5 * (p == n)
                 for p in positives for n in negatives]
        return sum(pairs) / len(pairs) if pairs else float("nan")

    print(f"{'truth':8s} {'BLSTM(tau=' + str(SHORT_WINDOW) + ')':18s} "
          f"SEVulDet(flexible)")
    for vulnerable, blstm_score, sevuldet_score in rows:
        print(f"{'vuln' if vulnerable else 'good':8s} "
              f"{blstm_score:18.3f} {sevuldet_score:.3f}")
    blstm_auc = auc_like([(v, b) for v, b, _ in rows])
    sevul_auc = auc_like([(v, s) for v, _, s in rows])
    print(f"\npairwise ranking quality (AUC-like): "
          f"BLSTM {blstm_auc:.2f} vs SEVulDet {sevul_auc:.2f}")
    print("\nThe truncated model cannot separate the long-chain pairs "
          "— the flaw\nnever enters its window; the SPP model ingests "
          "the whole gadget.")


if __name__ == "__main__":
    main()
