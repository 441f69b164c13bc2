"""VUDDY simulacrum: abstracted function fingerprinting.

VUDDY (Kim et al., S&P 2017) detects *vulnerable code clones*: known-
vulnerable functions are abstracted (parameters, locals, data types and
called function names replaced by placeholders), normalised, and hashed;
a target function matches when its fingerprint equals a database entry.
By construction it "can only detect vulnerabilities almost identical to
those in the training program, so it trades a high FNR for a low FPR"
(paper Section IV-E) — the behaviour Fig 5 plots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..lang import ast_nodes as A
from ..lang.callgraph import analyze
from ..lang.dataflow import LIBRARY_FUNCTIONS
from ..lang.lexer import KEYWORDS, TokenKind, tokenize
from ..lang.parser import ParseError

__all__ = ["FunctionFingerprint", "abstract_function", "VuddyScanner"]


@dataclass(frozen=True)
class FunctionFingerprint:
    """Abstraction-level-4 fingerprint of one function body."""

    name: str
    length: int
    digest: str


def abstract_function(source: str, start: int, end: int,
                      param_names: frozenset[str],
                      local_names: frozenset[str]) -> str:
    """VUDDY level-4 abstraction of the body text.

    Parameters -> FPARAM, locals -> LVAR, non-library callees -> FCALL,
    string literals -> "", numbers kept (they are part of the flaw
    shape), whitespace normalised.
    """
    lines = source.split("\n")[start - 1 : end]
    body = "\n".join(lines)
    tokens = tokenize(body)
    out: list[str] = []
    for index, token in enumerate(tokens):
        if token.kind is TokenKind.EOF:
            break
        if token.kind is TokenKind.IDENT:
            is_call = (index + 1 < len(tokens)
                       and tokens[index + 1].is_punct("("))
            if is_call and token.text not in LIBRARY_FUNCTIONS:
                out.append("FCALL")
            elif token.text in param_names:
                out.append("FPARAM")
            elif token.text in local_names:
                out.append("LVAR")
            else:
                out.append(token.text)
        elif token.kind is TokenKind.STRING:
            out.append('""')
        elif token.kind is TokenKind.KEYWORD and token.text in (
                "int", "char", "short", "long", "float", "double",
                "unsigned", "signed", "size_t"):
            out.append("DTYPE")
        else:
            out.append(token.text)
    return " ".join(out)


#: VUDDY skips functions whose abstracted body is shorter than 50
#: characters (the real tool's length filter); ``main`` wrappers are
#: also excluded — every harness main abstracts identically, which
#: would otherwise match every program against every other.
MIN_BODY_LENGTH = 50
_EXCLUDED_FUNCTIONS = frozenset({"main"})


def _fingerprints(source: str) -> list[FunctionFingerprint]:
    try:
        program = analyze(source)
    except ParseError:
        return []
    results: list[FunctionFingerprint] = []
    for fn in program.unit.functions:
        if fn.name in _EXCLUDED_FUNCTIONS:
            continue
        params = frozenset(p.name for p in fn.params if p.name)
        locals_: set[str] = set()
        for node in A.walk(fn.body):
            if isinstance(node, A.Decl):
                locals_.update(d.name for d in node.declarators)
        abstracted = abstract_function(
            program.source.text, fn.line, fn.body.end_line or fn.line,
            params, frozenset(locals_))
        if len(abstracted) < MIN_BODY_LENGTH:
            continue
        digest = hashlib.md5(abstracted.encode()).hexdigest()
        results.append(FunctionFingerprint(fn.name, len(abstracted),
                                           digest))
    return results


@dataclass
class VuddyScanner:
    """Fingerprint database + matcher.

    Build the database from known-vulnerable programs with
    :meth:`add_vulnerable`, then :meth:`flags` matches any function of
    the target against it (length pre-filter + hash equality, as the
    real tool does).
    """

    name: str = "VUDDY"
    database: dict[str, set[int]] = field(default_factory=dict)

    def add_vulnerable(self, source: str) -> int:
        """Fingerprint every function of a known-vulnerable program."""
        added = 0
        for fingerprint in _fingerprints(source):
            lengths = self.database.setdefault(fingerprint.digest, set())
            if fingerprint.length not in lengths:
                lengths.add(fingerprint.length)
                added += 1
        return added

    def matches(self, source: str) -> list[FunctionFingerprint]:
        """Functions of ``source`` whose fingerprint hits the DB."""
        return [
            fingerprint for fingerprint in _fingerprints(source)
            if fingerprint.length in
            self.database.get(fingerprint.digest, set())
        ]

    def flags(self, source: str) -> bool:
        return bool(self.matches(source))
