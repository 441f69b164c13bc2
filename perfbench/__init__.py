"""Reference-normalized benchmark of the SEVulDet reproduction."""

import json
from pathlib import Path

#: the benchmark's declaration: run length, workloads, metric names
#: and units
DECLARED = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declaration() -> dict:
    return json.loads(DECLARED.read_text())
