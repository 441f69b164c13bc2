"""Golden pin: every extracted gadget, byte for byte.

One sha256 covers every classic and path-sensitive gadget extracted
(with ``keep_gadget=True``) from a fixed corpus: each ``TEMPLATES``
entry in both its flawed and fixed variant at seed 3, plus one
multi-function module with direct and mutual recursion.  The digest
was recorded before the graph layer moved onto plain adjacency maps,
so any rewrite of it (PDG adjacency, dominators, call graph, gadget
ordering) must reproduce its slices, line order, roles, tokens and
labels exactly.  The same corpus also pins that the per-function gadget
cache, cold or warm, serves what cache-free extraction produces.
"""

import hashlib

from repro.core.cache import FunctionGadgetCache
from repro.core.extract import CorpusExtractor, _make_config, extract_gadgets
from repro.core.telemetry import Telemetry
from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.datasets.manifest import TestCase

GOLDEN_DIGEST = (
    "6215e676987f8eaecbe93a74fbce66b0af7935229e291561e6131aac8596176f")

MODULE_SOURCE = """\
int depth(int n) {
    if (n <= 0) {
        return 0;
    }
    return depth(n - 1) + 1;
}

int is_odd(int n);

int is_even(int n) {
    if (n == 0) {
        return 1;
    }
    return is_odd(n - 1);
}

int is_odd(int n) {
    if (n == 0) {
        return 0;
    }
    return is_even(n - 1);
}

void fill(char *dest, char *src, int n) {
    int i;
    for (i = 0; i < n; i++) {
        dest[i] = src[i];
    }
    strcpy(dest, src);
}

int scale(int *values, int count) {
    int total = 0;
    int k;
    for (k = 0; k < count; k++) {
        total = total + values[k] * 2;
    }
    return total;
}

void process(char *input, int n) {
    char buf[16];
    int vals[4];
    int *p = vals;
    if (n > 15) {
        n = 15;
    }
    fill(buf, input, n);
    p[0] = depth(n);
    vals[1] = is_even(n);
    printf("%d\\n", scale(vals, 2));
}

int main(int argc, char **argv) {
    char data[32];
    int len = argc * 4;
    strncpy(data, argv[1], 31);
    process(data, len);
    return 0;
}
"""


def _corpus() -> list[TestCase]:
    cases = [generate_case(template, vulnerable=vulnerable, seed=3)
             for template in TEMPLATES
             for vulnerable in (True, False)]
    cases.append(TestCase(
        name="golden/module.c", source=MODULE_SOURCE, vulnerable=True,
        vulnerable_lines=frozenset({29, 58}), cwe="CWE-121",
        category="FC"))
    return cases


def _criterion_key(criterion) -> str:
    return (f"{criterion.function}|{criterion.line}|"
            f"{criterion.category.value}|{criterion.token}")


def _golden_digest(cases) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for kind in ("classic", "path-sensitive"):
        for labeled in extract_gadgets(cases, kind=kind,
                                       keep_gadget=True,
                                       deduplicate=False):
            count += 1
            digest.update(f"{kind}|{labeled.case_name}|"
                          f"{_criterion_key(labeled.criterion)}|"
                          f"{labeled.label}\n".encode())
            for line in labeled.gadget.lines:
                digest.update(f"{line.function}|{line.line}|{line.role}|"
                              f"{line.text}\n".encode())
            digest.update(("\x1f".join(labeled.tokens) + "\n").encode())
    return digest.hexdigest(), count


def _comparable(labeled) -> tuple:
    return (labeled.case_name, _criterion_key(labeled.criterion),
            labeled.kind, labeled.category, labeled.label, labeled.cwe,
            labeled.tokens)


def test_gadgets_match_golden_digest():
    digest, count = _golden_digest(_corpus())
    assert count > 0
    assert digest == GOLDEN_DIGEST, digest


def test_function_cache_serves_cache_free_gadgets(tmp_path):
    cases = _corpus()
    for kind in ("classic", "path-sensitive"):
        config = _make_config(kind, None, use_control=True,
                              keep_gadget=False, case_timeout=None)
        reference = [_comparable(g) for result
                     in CorpusExtractor(config).run(cases)
                     for g in result.gadgets]
        fn_cache = FunctionGadgetCache(tmp_path / kind)
        for run in ("cold", "warm"):
            telemetry = Telemetry()
            served = [_comparable(g) for result
                      in CorpusExtractor(config, fn_cache=fn_cache,
                                         telemetry=telemetry).run(cases)
                      for g in result.gadgets]
            assert served == reference, run
        # the warm run served every function from the cache
        assert telemetry.get("fn_cache_hits") > 0
        assert telemetry.get("fn_cache_misses") == 0
