"""Table I — path-sensitive gadget counts by special-token category.

Paper shape: every category yields far more non-vulnerable than
vulnerable gadgets (8-10% vulnerable overall); library/API calls and
pointer usage dominate the totals.
"""

from repro.core.extract import extract_gadgets

from conftest import run_once

CATEGORIES = ("FC", "AU", "PU", "AE")
PAPER_ROWS = {
    "FC": (44_683, 549_555), "AU": (44_996, 439_447),
    "PU": (29_424, 542_300), "AE": (3_696, 42_551),
}


def test_table1_gadget_statistics(benchmark, reporter, train_cases):
    def experiment():
        gadgets = extract_gadgets(train_cases, kind="path-sensitive")
        counts = {c: {"vulnerable": 0, "total": 0} for c in CATEGORIES}
        for gadget in gadgets:
            counts[gadget.category]["total"] += 1
            counts[gadget.category]["vulnerable"] += gadget.label
        return counts

    counts = run_once(benchmark, experiment)

    table = reporter("table1_dataset_stats",
                     "Table I — path-sensitive gadgets per category")
    total_vuln = total_all = 0
    for category in CATEGORIES:
        vulnerable = counts[category]["vulnerable"]
        total = counts[category]["total"]
        total_vuln += vulnerable
        total_all += total
        paper_vuln, paper_total = PAPER_ROWS[category]
        table.add(category=category, vulnerable=vulnerable,
                  non_vulnerable=total - vulnerable, total=total,
                  paper_vulnerable=paper_vuln, paper_total=paper_total)
    table.add(category="All", vulnerable=total_vuln,
              non_vulnerable=total_all - total_vuln, total=total_all,
              paper_vulnerable=122_799, paper_total=1_573_853)
    table.save_and_print()

    # Shape: every category produced gadgets; well-populated ones have
    # both classes (tiny categories can collapse under deduplication at
    # small scale); vulnerable gadgets are the minority overall
    # (paper: 7.8%).
    for category in CATEGORIES:
        assert counts[category]["total"] > 0, category
        if counts[category]["total"] >= 10:
            assert 0 < counts[category]["vulnerable"] \
                < counts[category]["total"], category
    assert 0 < total_vuln < total_all
    assert total_vuln / total_all < 0.5
