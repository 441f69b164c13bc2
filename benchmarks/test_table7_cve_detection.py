"""Table VII — which systems detect the three Xen/QEMU CVEs.

Paper matrix:
* CVE-2016-4453 (vmware_vga loop):   AFL yes, SySeVR yes, SEVulDet yes
* CVE-2016-9104 (9pfs int overflow): AFL NO (magic offset),
                                     VulDeePecker yes, SEVulDet yes
* CVE-2016-9776 (mcf_fec loop):      AFL yes, SEVulDet yes
SEVulDet detects all three — at least one more than any other system.
"""

from repro.baselines.afl import AFLFuzzer
from repro.core.detector import SEVulDet
from repro.core.extract import extract_gadgets
from repro.datasets.xen import CVE_CASES

from conftest import run_once

PAPER_MATRIX = {
    "CVE-2016-4453": {"AFL": True, "SEVulDet": True},
    "CVE-2016-9104": {"AFL": False, "SEVulDet": True},
    "CVE-2016-9776": {"AFL": True, "SEVulDet": True},
}


def test_table7_cve_detection_matrix(benchmark, reporter, scale,
                                     train_cases, xen_train_cases):
    def experiment():
        # "Pre-trained" detector: SARD+NVD plus the Xen-flavoured
        # template distribution (the CVE miniatures stay held out).
        detector = SEVulDet(scale=scale, seed=41, threshold=0.5)
        detector.fit(train_cases + xen_train_cases)
        matrix = {}
        for cve, build in CVE_CASES.items():
            case = build(vulnerable=True)
            report = AFLFuzzer(case.source, max_execs=600,
                               max_steps=4000, seed=13).run()
            gadgets = extract_gadgets([case], deduplicate=False)
            scores = detector.score_gadgets(gadgets)
            matrix[cve] = {
                "AFL": report.found_anything,
                "SEVulDet": bool(scores.max() >= detector.threshold),
                "best_score": round(float(scores.max()), 3),
                "afl_execs": report.executions,
            }
        return matrix

    matrix = run_once(benchmark, experiment)

    table = reporter("table7_cve_detection",
                     "Table VII — CVE detection matrix")
    for cve, row in matrix.items():
        table.add(cve=cve, afl=row["AFL"], sevuldet=row["SEVulDet"],
                  sevuldet_best_score=row["best_score"],
                  paper_afl=PAPER_MATRIX[cve]["AFL"],
                  paper_sevuldet=PAPER_MATRIX[cve]["SEVulDet"])
    table.save_and_print()

    # SEVulDet detects all three (the headline of Table VII).
    for cve in CVE_CASES:
        assert matrix[cve]["SEVulDet"], cve

    # AFL finds the two reachable infinite loops but not the
    # magic-offset integer overflow.
    assert matrix["CVE-2016-9776"]["AFL"]
    assert matrix["CVE-2016-4453"]["AFL"]
    assert not matrix["CVE-2016-9104"]["AFL"]
