"""Content-addressed gadget extraction cache.

The frontend (parse -> CFG -> PDG -> slice -> normalize) dominates
preprocessing cost at corpus scale, and protocols like 5-fold cross
validation re-extract the *same* cases many times.  This cache keys
each case's extracted gadgets by a hash of (case content, extraction
config, pipeline version) so repeated runs skip the frontend entirely.

Each (case, config) key is one shard in a two-level fan-out directory,
holding one compact JSON document on one line::

    {"v": 2, "rows": [[token, ...], ...],
     "gadgets": [[row, label, category, kind, cwe,
                  function, line, criterion category, token], ...]}

Normalization (paper Step III) maps many gadgets of one program to the
same token sequence, so each distinct row is stored once and every
gadget names its row by index; reading a shard is one ``json.loads``,
and gadgets that share a row share one ``tokens`` tuple.  The case
name is not stored: :meth:`GadgetCache.get` attributes the gadgets to
the caller's case.  This is a cache format only; the dataset export
(:mod:`repro.core.store`) keeps its one-record-per-line JSONL.

Writes go to a temp file unique to the writer and are renamed over
the shard, so concurrent extractors (threads, process pools, parallel
test runs) never observe a torn shard nor trip over each other's temp
file.  A shard that is unreadable, corrupt or in another format
version is a cache miss, never an error; the next extraction
overwrites it.  Shards are safe to prune with plain ``rm``.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from pathlib import Path
from typing import Sequence

from ..datasets.manifest import TestCase
from ..slicing.normalize import NORMALIZE_VERSION
from ..slicing.special_tokens import SlicingCriterion, TokenCategory
from ..testing import faults
from .extract import PIPELINE_VERSION, LabeledGadget
from .fingerprint import FINGERPRINT_VERSION

__all__ = ["GadgetCache", "FunctionGadgetCache"]

#: Shard document version; a shard of any other version is a miss.
SHARD_VERSION = 2

_CATEGORIES = {category.value: category for category in TokenCategory}


def _encode_shard(gadgets: Sequence[LabeledGadget]) -> bytes:
    """One shard document: distinct rows once, one array per gadget."""
    rows: dict[tuple[str, ...], int] = {}
    records = []
    for gadget in gadgets:
        row = rows.setdefault(gadget.tokens, len(rows))
        criterion = gadget.criterion
        records.append((row, gadget.label, gadget.category, gadget.kind,
                        gadget.cwe, criterion.function, criterion.line,
                        criterion.category.value, criterion.token))
    document = {"v": SHARD_VERSION, "rows": list(rows),
                "gadgets": records}
    return json.dumps(document, separators=(",", ":")).encode("ascii")


def _decode_shard(data: bytes, case_name: str) -> list[LabeledGadget]:
    """Gadgets of a shard document, attributed to ``case_name``.

    Raises ValueError, KeyError, TypeError or IndexError on anything
    that is not a well-formed document of this version.
    """
    document = json.loads(data)
    if document["v"] != SHARD_VERSION:
        raise ValueError(f"shard version {document['v']!r}")
    rows = [tuple(row) for row in document["rows"]]
    return [LabeledGadget(
                tokens=rows[row], label=label, category=category,
                case_name=case_name,
                criterion=SlicingCriterion(function, line,
                                           _CATEGORIES[criterion], token),
                kind=kind, cwe=cwe)
            for (row, label, category, kind, cwe, function, line,
                 criterion, token) in document["gadgets"]]


class GadgetCache:
    """On-disk cache of per-case extraction results.

    Args:
        root: cache directory (created lazily on first write).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def key_for(self, case: TestCase, config_token: str) -> str:
        """Cache key for one case under one extraction config."""
        digest = hashlib.sha256()
        digest.update(case.fingerprint().encode("utf-8"))
        digest.update(b"|")
        digest.update(config_token.encode("utf-8"))
        digest.update(f"|pipeline={PIPELINE_VERSION};"
                      f"normalize={NORMALIZE_VERSION}".encode("utf-8"))
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.jsonl"

    def get(self, key: str,
            case_name: str) -> list[LabeledGadget] | None:
        """Cached gadgets for ``key``, attributed to ``case_name``, or
        None on a miss.

        An empty list is a hit.  An unreadable, corrupt or old-format
        shard counts as a miss: the caller re-extracts and overwrites
        it.
        """
        try:
            data = self.path_for(key).read_bytes()
        except OSError:
            return None
        try:
            return _decode_shard(data, case_name)
        except (ValueError, KeyError, TypeError, IndexError):
            return None

    def put(self, key: str, gadgets: Sequence[LabeledGadget]) -> None:
        """Store ``gadgets`` under ``key``: write a temp file of this
        writer's own, then rename it over the shard."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
        try:
            with temp.open("xb") as handle:
                handle.write(_encode_shard(gadgets))
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        faults.corrupt_file("shard", key, path)

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def _shards(self):
        """Shard paths, tolerating directories vanishing mid-scan
        (concurrent ``clear()`` / external ``rm -r``)."""
        try:
            yield from self.root.glob("*/*.jsonl")
        except (FileNotFoundError, NotADirectoryError):
            return

    def __len__(self) -> int:
        """Number of cached shards."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self._shards())

    def clear(self) -> int:
        """Delete every shard; returns how many were removed.

        Safe against concurrent clearers/extractors: a shard someone
        else unlinked first is simply not counted.  Fan-out
        directories left empty are pruned so a cleared cache does not
        slowly accumulate up to 256 dead directories.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for shard in list(self._shards()):
            try:
                shard.unlink()
            except FileNotFoundError:
                continue  # lost the race to a concurrent clear()
            removed += 1
        try:
            subdirs = list(self.root.iterdir())
        except (FileNotFoundError, NotADirectoryError):
            return removed
        for subdir in subdirs:
            if subdir.is_dir():
                try:
                    subdir.rmdir()
                except OSError:
                    pass  # refilled concurrently, or not empty
        return removed


class FunctionGadgetCache(GadgetCache):
    """Per-*function* gadget cache under the incremental scan path.

    Where :class:`GadgetCache` keys a whole case (one changed byte
    re-slices everything), this keys the gadgets of one function's
    criteria by the function's call-graph *component digest* (see
    :func:`~repro.core.fingerprint.component_digests`): an edit
    anywhere in the component invalidates exactly that component's
    entries and nothing else, and because interprocedural slices never
    read outside the component, a hit is byte-identical to re-slicing.

    The case *name* is deliberately excluded from the key — identical
    content under two paths (vendored copies, renames) shares entries,
    and shards store no case name, so :meth:`get_function` attributes
    them to the caller's case.  Labeling inputs (vulnerable flag, flaw
    lines, CWE) stay in the key because gadget labels depend on them.
    Shards use the parent's document format and fan-out layout, so
    one cache root can hold both granularities side by side without
    key collisions (the ``function-level`` marker separates the key
    spaces).
    """

    def key_for_function(self, case: TestCase, function: str,
                         config_token: str,
                         component_digest: str) -> str:
        """Cache key for one function's criteria gadgets.

        ``function`` must be part of the key: every member of a call
        component shares one ``component_digest`` (editing any member
        re-slices them all), so without the name two functions in the
        same component would collide on the same entry.
        """
        digest = hashlib.sha256()
        for part in ("function-level", function, config_token,
                     f"pipeline={PIPELINE_VERSION};"
                     f"normalize={NORMALIZE_VERSION};"
                     f"fingerprint={FINGERPRINT_VERSION}",
                     str(int(case.vulnerable)),
                     ",".join(str(line) for line
                              in sorted(case.vulnerable_lines)),
                     case.cwe,
                     component_digest):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def get_function(self, key: str,
                     case_name: str) -> list[LabeledGadget] | None:
        """Cached gadgets under ``key``, attributed to ``case_name``.

        An empty list is a valid hit (the function's criteria all
        sliced to nothing, or it has no criteria); None is a miss.
        """
        return self.get(key, case_name)

    def put_function(self, key: str,
                     gadgets: Sequence[LabeledGadget]) -> None:
        self.put(key, gadgets)
