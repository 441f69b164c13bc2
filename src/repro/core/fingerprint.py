"""Function-level fingerprints for diff-aware incremental scanning.

The case-level :class:`~repro.core.cache.GadgetCache` makes re-scans of
*unchanged files* free, but the CI workload the ROADMAP targets is a
commit touching a handful of functions inside large files — and a
whole-case key re-slices all of them.  This module provides the
function granularity underneath :mod:`repro.core.diffscan`:

* :func:`function_fingerprints` — one sha256 per function over its
  ``(kind, text, line)`` token triples, with function extents
  recovered from the raw token stream (an analyzed program's
  ``SourceFile.tokens``, or a fresh lex), without parsing.  Comment and whitespace edits
  that keep token lines stable leave the fingerprint unchanged; a
  line-shifting edit invalidates every following function — correct,
  because findings carry absolute line numbers.
* :func:`changed_functions` — fingerprint diff between two versions of
  a file.
* :func:`invalidation_frontier` — edited functions plus transitive
  callers up to a bounded depth, the *reported* re-slice plan.
* :func:`component_digests` — one digest per weakly-connected
  call-graph component.  Cache keys fold this in rather than the bare
  function fingerprint: interprocedural slices (backward through
  callers, forward into callees, under a visitation-order-sensitive
  ``max_functions`` cap) can read any function in the component, so
  keying on the component is what makes cached per-function gadgets
  byte-identical to a cold re-slice.  It only ever *over*-invalidates.

Call edges come from :func:`repro.lang.callgraph.ast_call_edges` — a
superset of the PDG-derived graph, computable without building a PDG.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

from ..lang.lexer import Token, TokenKind, tokenize

__all__ = ["FINGERPRINT_VERSION", "DEFAULT_FRONTIER_DEPTH",
           "function_fingerprints", "program_fingerprints",
           "changed_functions", "invalidation_frontier",
           "weak_components", "component_digests"]

#: Bump when span recovery or fingerprint content changes — folded
#: into function-level cache keys so stale entries are never served.
FINGERPRINT_VERSION = 1

#: Default bound on the caller-expansion depth of the reported
#: invalidation frontier.  Cache-key *correctness* never depends on
#: this (keys cover the whole call component); the bound only shapes
#: the re-slice plan surfaced in diff reports and watch deltas.
DEFAULT_FRONTIER_DEPTH = 3


def _match_forward(tokens: Sequence[Token], index: int,
                   open_text: str, close_text: str) -> int:
    """Index of the punctuator closing the one at ``index`` (or the
    last token when unbalanced — callers treat that as 'spans to
    EOF', which is the forgiving-lexer contract)."""
    depth = 0
    i = index
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind is TokenKind.PUNCT:
            if tok.text == open_text:
                depth += 1
            elif tok.text == close_text:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return len(tokens) - 1


def _declaration_start(tokens: Sequence[Token], name_index: int) -> int:
    """Walk back from a function's name over its type tokens.

    Every file-scope construct before a definition ends with ``;`` or
    ``}``, so the declaration run is the maximal preceding stretch of
    keywords, identifiers (typedef names), and ``*``.
    """
    start = name_index
    while start > 0:
        prev = tokens[start - 1]
        if prev.kind in (TokenKind.KEYWORD, TokenKind.IDENT) or \
                (prev.kind is TokenKind.PUNCT and prev.text == "*"):
            start -= 1
        else:
            break
    return start


def _function_token_runs(tokens: Sequence[Token]
                         ) -> list[tuple[str, int, int]]:
    """``(name, first_token_index, last_token_index)`` per function
    definition found by a depth-0 scan of the token stream."""
    runs: list[tuple[str, int, int]] = []
    depth = 0
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind is TokenKind.PUNCT and tok.text == "{":
            depth += 1
            i += 1
            continue
        if tok.kind is TokenKind.PUNCT and tok.text == "}":
            depth = max(0, depth - 1)
            i += 1
            continue
        if (depth == 0 and tok.kind is TokenKind.IDENT and i + 1 < n
                and tokens[i + 1].kind is TokenKind.PUNCT
                and tokens[i + 1].text == "("):
            close_paren = _match_forward(tokens, i + 1, "(", ")")
            after = close_paren + 1
            if (after < n and tokens[after].kind is TokenKind.PUNCT
                    and tokens[after].text == "{"):
                close_brace = _match_forward(tokens, after, "{", "}")
                runs.append((tok.text,
                             _declaration_start(tokens, i),
                             close_brace))
                i = close_brace + 1
                continue
            i = after  # prototype / macro-ish: keep scanning after ')'
            continue
        i += 1
    return runs


def function_fingerprints(source: str | Sequence[Token]) -> dict[str, str]:
    """sha256 per function over its ``(kind, text, line)`` triples, from
    C source text or its raw stream (``tokenize(text)``).

    Comments never participate (the lexer drops them), so a comment
    edit that keeps following tokens on their lines leaves every
    fingerprint unchanged.  Absolute line numbers *do* participate:
    findings and slicing criteria carry absolute lines, so an edit
    that shifts a function must invalidate it.  Duplicate definitions
    of one name fold into a single digest covering all of them.
    """
    tokens = tokenize(source) if isinstance(source, str) else source
    digests: dict[str, "hashlib._Hash"] = {}
    for name, first, last in _function_token_runs(tokens):
        digest = digests.get(name)
        if digest is None:
            digest = hashlib.sha256()
            digests[name] = digest
        for tok in tokens[first:last + 1]:
            digest.update(f"{tok.kind.name}\x1f{tok.text}\x1f"
                          f"{tok.line}\x1e".encode("utf-8"))
    return {name: digest.hexdigest()
            for name, digest in digests.items()}


def program_fingerprints(program) -> dict[str, str]:
    """:func:`function_fingerprints` of an analyzed program, computed
    once and kept on the program (a diff's frontier and extraction)."""
    if program._fingerprints is None:
        program._fingerprints = function_fingerprints(
            program.source.tokens)
    return program._fingerprints


def changed_functions(base_source: str | Sequence[Token],
                      target_source: str | Sequence[Token]) -> set[str]:
    """Function names whose fingerprint differs between two versions
    of a file (added and removed functions included)."""
    base = function_fingerprints(base_source)
    target = function_fingerprints(target_source)
    return {name for name in base.keys() | target.keys()
            if base.get(name) != target.get(name)}


def invalidation_frontier(edges: Mapping[str, Sequence[str]],
                          changed: Iterable[str],
                          depth: int = DEFAULT_FRONTIER_DEPTH
                          ) -> set[str]:
    """Edited functions plus transitive callers within ``depth`` hops.

    ``edges`` maps caller -> callees (:func:`~repro.lang.callgraph.
    ast_call_edges` output).  An edited callee can change any caller's
    interprocedural slice, so callers re-slice too; the depth bound
    keeps the reported plan proportional to the edit, while cache-key
    correctness rests on :func:`component_digests`.
    """
    callers: dict[str, set[str]] = {}
    for caller, callees in edges.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(caller)
    result = set(changed)
    frontier = set(result)
    for _ in range(max(0, depth)):
        grown: set[str] = set()
        for name in frontier:
            grown |= callers.get(name, set())
        grown -= result
        if not grown:
            break
        result |= grown
        frontier = grown
    return result


def weak_components(edges: Mapping[str, Sequence[str]]
                    ) -> dict[str, tuple[str, ...]]:
    """Weakly-connected call-graph components, one sorted member
    tuple per function name."""
    neighbours: dict[str, set[str]] = {name: set() for name in edges}
    for caller, callees in edges.items():
        for callee in callees:
            neighbours.setdefault(caller, set()).add(callee)
            neighbours.setdefault(callee, set()).add(caller)
    components: dict[str, tuple[str, ...]] = {}
    seen: set[str] = set()
    for name in neighbours:
        if name in seen:
            continue
        stack = [name]
        members: set[str] = set()
        while stack:
            current = stack.pop()
            if current in members:
                continue
            members.add(current)
            stack.extend(neighbours.get(current, ()))
        seen |= members
        frozen = tuple(sorted(members))
        for member in members:
            components[member] = frozen
    return components


def component_digests(fingerprints: Mapping[str, str],
                      edges: Mapping[str, Sequence[str]]
                      ) -> dict[str, str]:
    """One digest per function covering its whole call component.

    A function's digest folds in the fingerprint of every function it
    is weakly connected to: any edit inside the component changes the
    digest of every member, so cached per-function gadgets can never
    survive an edit that could have altered their interprocedural
    slice.  A function missing a lexer fingerprint (a span the
    depth-0 scan could not recover) hashes as the empty string, which
    simply ties its entry to the component's other members.
    """
    digests: dict[str, str] = {}
    component_cache: dict[tuple[str, ...], str] = {}
    for name, members in weak_components(edges).items():
        digest = component_cache.get(members)
        if digest is None:
            payload = hashlib.sha256()
            payload.update(f"fpv={FINGERPRINT_VERSION}".encode())
            for member in members:
                payload.update(
                    f"|{member}={fingerprints.get(member, '')}".encode())
            digest = payload.hexdigest()
            component_cache[members] = digest
        digests[name] = digest
    return digests
