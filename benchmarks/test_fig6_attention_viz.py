"""Fig 6 (RQ4) — attention-weight interpretability on CVE-2016-9776.

The paper feeds the mcf_fec path-sensitive gadget (711 tokens, no
truncation) into the trained model, hooks the token-attention weights,
and shows that the top-10 tokens cluster on the loop-forming lines.
Here: same pipeline on the miniature — the flexible-length model
ingests the whole gadget, and the attention mass concentrated on the
vulnerable loop lines must exceed a uniform allocation.
"""

import numpy as np

from repro.core.attention_hook import attention_report, weights_by_line
from repro.core.detector import SEVulDet
from repro.core.extract import extract_gadgets
from repro.datasets.xen import cve_2016_9776

from conftest import run_once


def test_fig6_attention_visualization(benchmark, reporter, scale,
                                      train_cases, xen_train_cases):
    def experiment():
        detector = SEVulDet(scale=scale, seed=43)
        detector.fit(train_cases + xen_train_cases)
        case = cve_2016_9776(vulnerable=True)
        gadgets = extract_gadgets([case], deduplicate=False,
                                  keep_gadget=True)
        # the receive-loop gadget: one anchored inside mcf_fec_receive
        # covering the vulnerable lines
        candidates = [g for g in gadgets
                      if g.criterion.function == "mcf_fec_receive"
                      and g.label == 1]
        gadget = max(candidates, key=lambda g: len(g.tokens))
        model = detector.model
        vocab = detector.dataset.vocab
        top = attention_report(model, vocab, gadget, top_k=10)
        by_line = weights_by_line(model, vocab, gadget)
        return case, gadget, top, by_line

    case, gadget, top, by_line = run_once(benchmark, experiment)

    table = reporter("fig6_attention",
                     "Fig 6 — top-10 attention tokens, CVE-2016-9776 "
                     "path-sensitive gadget")
    for entry in top:
        table.add(rank=top.index(entry) + 1, token=entry.token,
                  position=entry.position,
                  weight=round(entry.weight, 5),
                  percent_of_peak=entry.percent)
    table.save_and_print()

    line_table = reporter("fig6_attention_by_line",
                          "Fig 6 — attention mass per gadget line")
    source_lines = case.source.split("\n")
    for line_no in sorted(by_line):
        line_text = source_lines[line_no - 1].strip() \
            if line_no <= len(source_lines) else ""
        line_table.add(line=line_no,
                       attention=round(by_line[line_no], 4),
                       vulnerable=line_no in case.vulnerable_lines,
                       text=line_text[:48])
    line_table.save_and_print()

    # The model ingests the whole gadget: no truncation happened.
    assert len(gadget.tokens) > 40

    # Interpretability shape: attention mass on the vulnerable lines
    # exceeds their uniform share of the gadget.
    vulnerable_mass = sum(weight for line, weight in by_line.items()
                          if line in case.vulnerable_lines)
    uniform_share = (sum(1 for line in by_line
                         if line in case.vulnerable_lines)
                     / max(len(by_line), 1))
    assert vulnerable_mass > 0
    assert vulnerable_mass >= uniform_share * 0.8, \
        (vulnerable_mass, uniform_share)

    # Top-10 report is sorted and normalised to its peak.
    weights = [entry.weight for entry in top]
    assert weights == sorted(weights, reverse=True)
    assert top[0].percent == 100.0
