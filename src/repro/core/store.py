"""Gadget-dataset persistence (JSON-lines).

Extracting and normalizing gadgets from a large corpus is the slowest
non-training stage; this store saves the labelled token streams so
experiments can reload them instead of re-slicing.  The format is
line-oriented JSON — append-friendly, diff-able, and independent of the
in-memory classes.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Iterable, Sequence

from ..slicing.special_tokens import SlicingCriterion, TokenCategory
from .extract import LabeledGadget

__all__ = ["save_gadgets", "load_gadgets", "iter_gadgets"]

logger = logging.getLogger(__name__)

_FORMAT_VERSION = 1


def _to_record(gadget: LabeledGadget) -> dict:
    return {
        "v": _FORMAT_VERSION,
        "tokens": list(gadget.tokens),
        "label": gadget.label,
        "category": gadget.category,
        "case": gadget.case_name,
        "kind": gadget.kind,
        "cwe": gadget.cwe,
        "criterion": {
            "function": gadget.criterion.function,
            "line": gadget.criterion.line,
            "category": gadget.criterion.category.value,
            "token": gadget.criterion.token,
        },
    }


def _from_record(record: dict) -> LabeledGadget:
    if record.get("v") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported gadget record version {record.get('v')!r}")
    criterion_data = record["criterion"]
    criterion = SlicingCriterion(
        function=criterion_data["function"],
        line=int(criterion_data["line"]),
        category=TokenCategory(criterion_data["category"]),
        token=criterion_data["token"],
    )
    return LabeledGadget(
        tokens=tuple(record["tokens"]),
        label=int(record["label"]),
        category=record["category"],
        case_name=record["case"],
        criterion=criterion,
        kind=record["kind"],
        cwe=record.get("cwe", ""),
    )


def save_gadgets(gadgets: Sequence[LabeledGadget],
                 path: str | Path) -> int:
    """Write gadgets to a .jsonl file; returns the record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for gadget in gadgets:
            handle.write(json.dumps(_to_record(gadget),
                                    separators=(",", ":")) + "\n")
    return len(gadgets)


def iter_gadgets(path: str | Path) -> Iterable[LabeledGadget]:
    """Stream gadgets from a .jsonl file (constant memory).

    A torn *final* line — the partial write of a process killed
    mid-append — is skipped with a logged warning: every complete
    record before it is still served, so crash recovery resumes from
    the survivors instead of refusing the whole file.  Corruption
    anywhere else still raises, and so does a file whose *only*
    payload line is bad — that is damage (or a foreign file), not a
    torn tail, and serving it as "zero gadgets" would turn corruption
    into silently wrong results.
    """
    with Path(path).open() as handle:
        served = 0
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as error:
                if served and handle.read(1) == "":
                    logger.warning(
                        "%s:%d: skipping truncated final line "
                        "(partial write from an interrupted process)",
                        path, line_number)
                    return
                raise ValueError(
                    f"{path}:{line_number}: bad JSON") from error
            served += 1
            yield _from_record(record)


def load_gadgets(path: str | Path) -> list[LabeledGadget]:
    """Load all gadgets from a .jsonl file."""
    return list(iter_gadgets(path))
