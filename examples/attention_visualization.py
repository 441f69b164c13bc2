#!/usr/bin/env python3
"""Fig 6: visualizing what the detector attends to (RQ4).

Trains SEVulDet, extracts the CVE-2016-9776 path-sensitive gadget
without truncation, hooks the token-attention weights, and renders the
top-10 tokens as an ASCII bar chart plus a per-line attention heat
strip over the gadget — the paper's interpretability study.
"""

from repro import SEVulDet, generate_sard_corpus
from repro.core.attention_hook import attention_report, weights_by_line
from repro.core.config import SCALE_PRESETS
from repro.core.extract import extract_gadgets
from repro.datasets.xen import cve_2016_9776


def bar(fraction: float, width: int = 34) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    print("=== Fig 6: attention-weight visualization ===\n")

    print("[1/2] training SEVulDet ...")
    detector = SEVulDet(scale=SCALE_PRESETS["small"], seed=13)
    detector.fit(generate_sard_corpus(120, seed=17))

    print("[2/2] extracting the CVE-2016-9776 gadget ...\n")
    case = cve_2016_9776(vulnerable=True)
    gadgets = extract_gadgets([case], deduplicate=False,
                              keep_gadget=True)
    candidates = [g for g in gadgets
                  if g.criterion.function == "mcf_fec_receive"
                  and g.label == 1]
    gadget = max(candidates, key=lambda g: len(g.tokens))
    print(f"gadget: {gadget.criterion} — {len(gadget.tokens)} tokens, "
          "ingested whole (no truncation)\n")

    model, vocab = detector.model, detector.dataset.vocab
    top = attention_report(model, vocab, gadget, top_k=10)
    print("top-10 attention tokens (percent of peak weight):")
    for rank, entry in enumerate(top, start=1):
        print(f"  {rank:2d}. {entry.token:12s} "
              f"{bar(entry.percent / 100)} {entry.percent:5.1f}%")

    print("\nattention mass per gadget source line "
          "(* = ground-truth vulnerable line):")
    by_line = weights_by_line(model, vocab, gadget)
    peak = max(by_line.values()) or 1.0
    source_lines = case.source.split("\n")
    for line_no in sorted(by_line):
        marker = "*" if line_no in case.vulnerable_lines else " "
        text = source_lines[line_no - 1].strip()[:44] \
            if line_no <= len(source_lines) else ""
        print(f"  {marker} L{line_no:3d} "
              f"{bar(by_line[line_no] / peak, 20)} {text}")

    vulnerable_mass = sum(w for line, w in by_line.items()
                          if line in case.vulnerable_lines)
    print(f"\nattention mass on the vulnerable lines: "
          f"{vulnerable_mass:.1%} "
          f"(uniform share would be "
          f"{sum(1 for l in by_line if l in case.vulnerable_lines) / len(by_line):.1%})")


if __name__ == "__main__":
    main()
