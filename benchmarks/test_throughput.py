"""Pipeline-kernel throughput benchmarks (regression guardrails).

Unlike the table/figure benches (one-shot experiments), these are
classic multi-round pytest-benchmark timings of the hot kernels:
frontend analysis, gadget extraction, normalization, and model
forward passes at several sequence lengths.
"""

import numpy as np
import pytest

from repro.core.extract import extract_gadgets
from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.lang.callgraph import analyze
from repro.models.blstm import BLSTMNet
from repro.models.sevuldet import SEVulDetNet
from repro.nn import no_grad
from repro.slicing.normalize import normalize_gadget
from repro.slicing.path_sensitive import path_sensitive_gadget
from repro.slicing.special_tokens import find_special_tokens


@pytest.fixture(scope="module")
def sample_case():
    return generate_case(TEMPLATES[0], vulnerable=True, seed=5)


@pytest.fixture(scope="module")
def sample_program(sample_case):
    return analyze(sample_case.source, path=sample_case.name)


def test_frontend_analyze_throughput(benchmark, sample_case):
    """Full frontend: parse -> CFG -> dependences -> PDG -> call graph."""
    result = benchmark(analyze, sample_case.source)
    assert result.function_names


def test_path_sensitive_gadget_throughput(benchmark, sample_program):
    criterion = [c for c in find_special_tokens(sample_program)
                 if c.token == "strcpy"][0]
    gadget = benchmark(path_sensitive_gadget, sample_program, criterion)
    assert gadget.lines


def test_normalization_throughput(benchmark, sample_program):
    criterion = [c for c in find_special_tokens(sample_program)
                 if c.token == "strcpy"][0]
    gadget = path_sensitive_gadget(sample_program, criterion)
    normalized = benchmark(normalize_gadget, gadget)
    assert normalized.tokens


def test_extract_gadgets_per_case_throughput(benchmark, sample_case):
    gadgets = benchmark(extract_gadgets, [sample_case])
    assert gadgets


@pytest.fixture(scope="module")
def extraction_corpus():
    from repro.datasets.sard import generate_sard_corpus
    return generate_sard_corpus(8, seed=11)


def test_extract_gadgets_parallel_throughput(benchmark,
                                             extraction_corpus):
    """Process-pool fan-out including pool startup cost."""
    serial = extract_gadgets(extraction_corpus)
    gadgets = benchmark(extract_gadgets, extraction_corpus, workers=2)
    assert gadgets == serial


def test_extract_gadgets_warm_cache_throughput(benchmark,
                                               extraction_corpus,
                                               tmp_path_factory):
    """Warm-cache rerun: every case served without frontend work."""
    from repro.core.telemetry import Telemetry

    cache_dir = tmp_path_factory.mktemp("gadget-cache")
    serial = extract_gadgets(extraction_corpus)
    extract_gadgets(extraction_corpus, cache=cache_dir)  # fill

    telemetry = Telemetry()

    def warm_run():
        return extract_gadgets(extraction_corpus, cache=cache_dir,
                               telemetry=telemetry)

    gadgets = benchmark(warm_run)
    assert gadgets == serial
    assert telemetry.get("cache_misses") == 0
    assert telemetry.get("cache_hits") > 0
    assert telemetry.calls("analyze") == 0


@pytest.mark.parametrize("length", [32, 128, 512])
def test_sevuldet_forward_throughput(benchmark, length):
    """Flexible-length forward pass cost vs sequence length."""
    model = SEVulDetNet(vocab_size=200, dim=16, channels=16, seed=0)
    model.eval()
    ids = np.random.default_rng(0).integers(0, 200, size=(16, length))

    def forward():
        with no_grad():
            return model(ids)

    logits = benchmark(forward)
    assert logits.shape == (16,)


def test_blstm_forward_throughput(benchmark):
    """Fixed-length BRNN forward pass (the baseline cost profile)."""
    model = BLSTMNet(vocab_size=200, dim=16, hidden=16, time_steps=80,
                     seed=0)
    model.eval()
    ids = np.random.default_rng(0).integers(0, 200, size=(16, 80))

    def forward():
        with no_grad():
            return model(ids)

    logits = benchmark(forward)
    assert logits.shape == (16,)
