"""Seeded benchmark inputs.

Everything the program scans is generated here from the workload seed
and an operation index, so the same seed always yields byte-identical
inputs and a different seed yields different ones.  Scan inputs are
unlabeled, like the files ``repro scan`` reads: only the name and the
source text reach the program.

Files are instances of the CWE templates behind the SARD, Juliet-style
and CVEfixes-style corpora, named the way each corpus names them.
Which templates a run uses is balanced by construction: every kind of
file walks through all templates once per cycle, in a seeded order,
alternating the flawed and the fixed variant.  The seed therefore
changes identifiers, constants and grouping, never the amount of
work, and two runs with different seeds measure the same thing.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
from pathlib import Path

from repro.datasets.cwe_templates import TEMPLATES, generate_case
from repro.datasets.manifest import TestCase

#: the kinds of file in a scan mix, in order: an operation of
#: ``count`` files takes ``count`` kinds from here (cycling), so its mix
#: is the same in every operation and every run.  Four files are one
#: module, one SARD, one Juliet-style and one CVEfixes-style case; ten
#: add three SARD, two Juliet-style and one CVEfixes-style case.
SCHEDULE = ("module", "sard", "juliet", "cvefixes", "sard", "juliet",
            "sard", "cvefixes", "sard", "juliet")
#: template programs joined into one large multi-function module
MODULE_PARTS = 6

_DEFINITION = re.compile(
    r"^[A-Za-z_][\w \t\*]*?\b([A-Za-z_]\w*)\s*\([^;{]*\)\s*\{", re.M)


def scan_case(name: str, source: str) -> TestCase:
    """An unlabeled scan case (what ``repro scan`` builds per file)."""
    return TestCase(name=name, source=source, vulnerable=False,
                    vulnerable_lines=frozenset(), cwe="", category="",
                    origin="scan")


def sub_seed(seed: int, stream: str, index: int) -> int:
    """A deterministic 32-bit seed for one (stream, index) pair."""
    digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode())
    return int.from_bytes(digest.digest()[:4], "big")


def _draw(seed: int, stream: str, kind: str, n: int) -> TestCase:
    """The ``n``-th template instance of one kind in a stream."""
    cycle, position = divmod(n, len(TEMPLATES))
    order = list(range(len(TEMPLATES)))
    random.Random(sub_seed(seed, f"{stream}:{kind}:order", cycle)
                  ).shuffle(order)
    template = TEMPLATES[order[position]]
    flawed = (cycle + position) % 2 == 0
    case_seed = sub_seed(seed, f"{stream}:{kind}", n)
    name = {
        "sard": f"sard/{template.name}_{case_seed}.c",
        "juliet": (f"juliet/{template.cwe}/{template.name}__{case_seed}"
                   f"_{'bad' if flawed else 'good'}.c"),
        "cvefixes": (f"cvefixes/{template.cwe}/{case_seed:08x}/"
                     f"{'pre' if flawed else 'post'}/{template.name}.c"),
        "module": f"module/{template.name}_{case_seed}.c",
    }[kind]
    return generate_case(template, vulnerable=flawed, seed=case_seed,
                         origin=kind, case_name=name)


def _module(parts: list[TestCase]) -> str:
    """Template programs joined into one file, every function renamed
    apart so the module stays one valid translation unit."""
    chunks = []
    for k, case in enumerate(parts):
        text = case.source
        for fn in sorted(set(_DEFINITION.findall(text)), key=len,
                         reverse=True):
            text = re.sub(rf"\b{fn}\b", f"{fn}_m{k}", text)
        chunks.append(text)
    return "\n".join(chunks)


def scan_mix(seed: int, stream: str, index: int, count: int,
             offset: int = 0) -> list[TestCase]:
    """``count`` never-seen files for operation ``index`` of a stream:
    SARD, Juliet-style and CVEfixes-style cases plus large
    multi-function modules, in :data:`SCHEDULE` order from ``offset``."""
    kinds = [SCHEDULE[(offset + slot) % len(SCHEDULE)]
             for slot in range(count)]
    seen: dict[str, int] = {}
    out = []
    for slot, kind in enumerate(kinds):
        # n-th file of this kind in the stream, over all operations
        n = index * kinds.count(kind) + seen.get(kind, 0)
        seen[kind] = seen.get(kind, 0) + 1
        prefix = f"{stream}/{index:05d}-{slot:02d}"
        if kind == "module":
            parts = [_draw(seed, stream, kind, n * MODULE_PARTS + q)
                     for q in range(MODULE_PARTS)]
            out.append(scan_case(f"{prefix}-{parts[0].name}",
                                 _module(parts)))
            continue
        case = _draw(seed, stream, kind, n)
        out.append(scan_case(f"{prefix}-{case.name}", case.source))
    return out


# -- synthetic monorepo (diff-rescan) ------------------------------------------

_SHAPES = (
    # array write through a call result
    "int {fn}(int n) {{\n"
    "    char buf[{size}];\n"
    "    buf[0] = {call};\n"
    "    return buf[0] + {k};\n"
    "}}\n",
    # string copy into a fixed buffer
    "int {fn}(int n) {{\n"
    "    char dst[{size}];\n"
    "    char src[32];\n"
    "    memset(src, 65, 31);\n"
    "    src[31] = 0;\n"
    "    strncpy(dst, src, n);\n"
    "    return {call} + {k};\n"
    "}}\n",
    # pointer walk in a loop
    "int {fn}(int n) {{\n"
    "    int values[{size}];\n"
    "    int *p = values;\n"
    "    int i;\n"
    "    for (i = 0; i < n; i++) {{\n"
    "        *p = i * 2;\n"
    "        p++;\n"
    "    }}\n"
    "    return values[0] + {call} + {k};\n"
    "}}\n",
    # arithmetic on an input length
    "int {fn}(int n) {{\n"
    "    int size = n * {size};\n"
    "    char *mem = malloc(size);\n"
    "    if (mem == 0) {{\n"
    "        return -1;\n"
    "    }}\n"
    "    mem[size - 1] = 0;\n"
    "    free(mem);\n"
    "    return {call} + {k};\n"
    "}}\n",
)


def build_monorepo(root: Path, seed: int, functions: int = 500,
                   files: int = 50) -> dict[str, int]:
    """Write a seeded monorepo; returns ``{function: file index}``.

    Functions come in call chains (a third call their successor in
    the same file), so an edit invalidates realistic multi-function
    call components.  The shapes and call structure are the same for
    every seed; the seed picks buffer sizes."""
    rng = random.Random(sub_seed(seed, "monorepo", 0))
    per_file = functions // files
    owner: dict[str, int] = {}
    for file_no in range(files):
        indexes = range(file_no * per_file, (file_no + 1) * per_file)
        chunks = []
        for i in reversed(indexes):  # callees before callers
            calls = i % 3 == 0 and i + 1 in indexes
            chunks.append(_SHAPES[i % len(_SHAPES)].format(
                fn=f"fn_{i}", call=f"fn_{i + 1}(n)" if calls else "n",
                size=rng.randint(4, 24), k=i % 7))
            owner[f"fn_{i}"] = file_no
        path = root / monorepo_file(file_no)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(chunks))
    return owner


def monorepo_file(file_no: int) -> str:
    return f"pkg{file_no % 4}/mod_{file_no:03d}.c"


def edit_plan(seed: int, index: int, owner: dict[str, int],
              edits: int = 5) -> list[str]:
    """The functions operation ``index`` edits (fresh per operation)."""
    rng = random.Random(sub_seed(seed, "edit", index))
    return sorted(rng.sample(sorted(owner), edits),
                  key=lambda fn: int(fn[3:]))


def apply_edits(base: Path, target: Path, owner: dict[str, int],
                functions: list[str], stamp: int) -> list[str]:
    """Make ``target`` equal ``base`` with each listed function's
    trailing constant replaced by one no earlier edit used; returns
    the changed files.  Only files that differ are rewritten."""
    changed: dict[str, str] = {}
    for fn in functions:
        rel = monorepo_file(owner[fn])
        text = changed.get(rel) or (base / rel).read_text()
        start = text.index(f"int {fn}(")
        end = text.index("\n}\n", start)
        body = text[start:end]
        head, _, _ = body.rpartition(" + ")
        body = f"{head} + {100 + stamp};"
        changed[rel] = text[:start] + body + text[end:]
    for path in target.rglob("*.c"):
        rel = path.relative_to(target).as_posix()
        if rel not in changed and path.read_bytes() != \
                (base / rel).read_bytes():
            shutil.copyfile(base / rel, path)
    for rel, text in changed.items():
        (target / rel).write_text(text)
    return sorted(changed)


def digest_cases(cases: list[TestCase]) -> str:
    """Hash of generated inputs (names and sources, in order)."""
    digest = hashlib.sha256()
    for case in cases:
        digest.update(case.name.encode())
        digest.update(b"\0")
        digest.update(case.source.encode())
        digest.update(b"\0")
    return digest.hexdigest()
