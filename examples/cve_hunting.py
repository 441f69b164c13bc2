#!/usr/bin/env python3
"""Hunting the three Xen/QEMU CVEs (paper Table VII / RQ4).

Trains SEVulDet on the synthetic SARD corpus, then applies it — plus a
coverage-guided AFL campaign — to faithful miniatures of
CVE-2016-9776 (mcf_fec infinite loop), CVE-2016-4453 (vmware_vga
unbounded FIFO loop), and CVE-2016-9104 (9pfs integer-overflow bounds
bypass).  Reproduces the paper's matrix: fuzzing finds the two
reachable hangs but misses the magic-offset overflow; the learned
detector flags all three.
"""

from repro import SEVulDet, generate_sard_corpus
from repro.baselines.afl import AFLFuzzer
from repro.core.config import SCALE_PRESETS
from repro.core.extract import extract_gadgets
from repro.datasets.xen import CVE_CASES, generate_xen_corpus


def main() -> None:
    print("=== CVE hunting on the Xen miniatures ===\n")

    print("[1/3] training SEVulDet on synthetic SARD + Xen-flavoured "
          "templates\n      (the CVE miniatures themselves are held "
          "out) ...")
    xen_templates = [case for case
                     in generate_xen_corpus(60, seed=777)
                     if "cve" not in case.meta]
    detector = SEVulDet(scale=SCALE_PRESETS["small"], seed=5,
                        threshold=0.5)
    detector.fit(generate_sard_corpus(130, seed=3) + xen_templates)

    print("[2/3] running AFL campaigns (600 execs each) ...")
    afl_found = {}
    for cve, build in CVE_CASES.items():
        case = build(vulnerable=True)
        report = AFLFuzzer(case.source, max_execs=600, max_steps=4000,
                           seed=9).run()
        afl_found[cve] = report
        outcome = []
        if report.crashes:
            outcome.append(f"{len(report.crashes)} crash(es)")
        if report.hangs:
            outcome.append(f"{len(report.hangs)} hang(s)")
        print(f"      {cve}: "
              f"{', '.join(outcome) if outcome else 'nothing found'} "
              f"({report.executions} execs)")

    print("[3/3] scoring path-sensitive gadgets with SEVulDet ...\n")
    print(f"{'CVE':16s} {'AFL':8s} {'SEVulDet':10s} best-score")
    print("-" * 48)
    for cve, build in CVE_CASES.items():
        case = build(vulnerable=True)
        gadgets = extract_gadgets([case], deduplicate=False)
        scores = detector.score_gadgets(gadgets)
        detected = scores.max() >= detector.threshold
        print(f"{cve:16s} "
              f"{'yes' if afl_found[cve].found_anything else 'NO':8s} "
              f"{'yes' if detected else 'NO':10s} "
              f"{scores.max():.3f}")

    print("\nPaper Table VII shape: AFL finds 9776 and 4453 (hangs) "
          "but not 9104\n(the bounds bypass needs an offset within 16 "
          "of INT_MAX — byte mutation\nnever forms it); SEVulDet "
          "detects all three.")


if __name__ == "__main__":
    main()
