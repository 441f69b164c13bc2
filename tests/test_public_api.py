"""Public API surface checks: the names README/docs promise exist."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevel:
    def test_quickstart_names(self):
        import repro
        assert callable(repro.generate_sard_corpus)
        assert callable(repro.generate_nvd_corpus)
        assert callable(repro.generate_xen_corpus)
        detector = repro.SEVulDet
        assert hasattr(detector, "fit") and hasattr(detector, "detect")

    def test_all_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        import repro
        assert repro.__version__

    @pytest.mark.parametrize("module", [
        "repro.lang", "repro.slicing", "repro.embedding", "repro.nn",
        "repro.models", "repro.core", "repro.datasets",
        "repro.baselines", "repro.eval",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name, None) is not None, \
                f"{module}.{name}"

    def test_documented_entry_points(self):
        from repro import SEVulDet
        from repro.baselines import (AFLFuzzer, CheckmarxScanner,
                                     FlawfinderScanner, RatsScanner,
                                     VuddyScanner)
        from repro.core import CWETyper, load_gadgets, save_gadgets
        from repro.datasets.manifest_xml import (export_corpus,
                                                 import_corpus)
        from repro.eval import (FRAMEWORKS, Table, cross_validate,
                                roc_auc)
        from repro.lang import analyze, run_program, unparse

    def test_cli_parser_commands(self):
        from repro.cli import build_parser
        parser = build_parser()
        text = parser.format_help()
        for command in ("train", "scan", "fuzz", "gadgets",
                        "export-corpus"):
            assert command in text


_FRONTEND_SCRIPT = """
import sys

before = {name.split(".")[0] for name in sys.modules}
import repro.core.serve
from repro.lang import analyze
from repro.slicing.path_sensitive import path_sensitive_gadget
from repro.slicing.special_tokens import find_special_tokens

program = analyze(
    "void f(char *s) { char b[4]; if (s) { strcpy(b, s); } }\\n"
    "int main(int argc, char **argv) { f(argv[1]); return 0; }\\n")
gadgets = [path_sensitive_gadget(program, criterion)
           for criterion in find_special_tokens(program)]
assert any(gadget.lines for gadget in gadgets)
loaded = {name.split(".")[0] for name in sys.modules} - before
print(" ".join(sorted(name for name in loaded
                      if name not in sys.stdlib_module_names
                      and not name.startswith("__")
                      and name not in ("numpy", "repro"))))
"""


def test_frontend_loads_no_third_party_module_but_numpy():
    """Importing the scan service and slicing one program pull in no
    installed package besides numpy (the graph layer is plain dicts)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _FRONTEND_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def _readme_cli_lines() -> list[str]:
    """Every ``python -m repro ...`` command in README's shell blocks,
    with ``\\`` continuations joined and a trailing ``&`` dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```bash\n(.*?)```", readme.read_text(),
                        flags=re.S)
    lines = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("python -m repro "):
                lines.append(line.removesuffix("&").strip())
    return lines


def test_readme_has_cli_examples():
    assert len(_readme_cli_lines()) >= 5


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_parses(line):
    """README advertises no flag or subcommand the parser lacks."""
    from repro.cli import build_parser

    argv = shlex.split(line, comments=True)[3:]
    build_parser().parse_args(argv)
