"""Traced-run mode: spans around the program's public entry points.

The benchmark measures each layer from outside.  :class:`Tracer`
replaces a fixed list of public functions and methods, wherever a
``repro`` module holds a reference to them, with wrappers that record
one span per call: name, start, end and parent (the innermost open
span on the same thread).  Spans stay in memory and are written out
when the run ends; a layer's self time is its spans' durations minus
the time their child spans cover.

Nothing here edits the program: :meth:`Tracer.install` patches module
and class attributes at run time and :meth:`Tracer.uninstall` puts
the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _count_len(result) -> int:
    return len(result)


def _count_some(result) -> int:
    return int(result is not None)


def _count_rows(args) -> int:
    return int(args[1].shape[0])


def _cache_read_name(args) -> str:
    """Case-level reads vs the function-level cache's own reads."""
    from repro.core.cache import FunctionGadgetCache

    return ("cache.fn_read" if isinstance(args[0], FunctionGadgetCache)
            else "cache.get")


#: (module, attribute or Class.method, span name (or a function of the
#:  call's arguments that names it), result counter, argument counter)
TARGETS = (
    ("repro.lang.lexer", "tokenize", "lang.lex", None, None),
    ("repro.lang.parser", "parse", "lang.parse", None, None),
    ("repro.lang.cfg", "build_cfg", "lang.cfg", None, None),
    ("repro.lang.dominance", "dominator_tree", "lang.dominance",
     None, None),
    ("repro.lang.dominance", "post_dominator_tree", "lang.dominance",
     None, None),
    ("repro.lang.dominance", "control_dependences", "lang.dominance",
     None, None),
    ("repro.lang.dataflow", "collect_def_use", "lang.dataflow",
     None, None),
    ("repro.lang.dataflow", "reaching_definitions", "lang.dataflow",
     None, None),
    ("repro.lang.dataflow", "data_dependences", "lang.dataflow",
     None, None),
    ("repro.lang.pdg", "build_pdg", "lang.pdg", None, None),
    ("repro.lang.callgraph", "analyze", "lang.analyze", None, None),
    ("repro.slicing.special_tokens", "find_special_tokens",
     "slicing.criteria", _count_len, None),
    ("repro.slicing.path_sensitive", "path_sensitive_gadget",
     "slicing.slice", _count_some, None),
    ("repro.slicing.normalize", "normalize_gadget", "slicing.normalize",
     None, None),
    ("repro.core.fingerprint", "function_fingerprints", "fingerprint",
     None, None),
    ("repro.core.fingerprint", "component_digests",
     "fingerprint.digest", None, None),
    ("repro.core.cache", "GadgetCache.get", _cache_read_name,
     _count_some, None),
    ("repro.core.cache", "GadgetCache.put", "cache.put", None, None),
    ("repro.core.cache", "FunctionGadgetCache.get_function",
     "cache.fn_get", _count_some, None),
    ("repro.core.extract", "LabeledGadget.sample", "encode", None,
     None),
    ("repro.models.sevuldet", "SEVulDetNet.predict_proba", "score",
     None, _count_rows),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "child_s")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts at the wrapped entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        #: span name -> [calls, counted results, counted arguments]
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None, on_args=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_name = name(args) if callable(name) else name
            span = Span(span_name, stack[-1] if stack else None,
                        threading.get_native_id())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            with tracer._lock:
                tally = tracer.counts[span_name]
                tally[0] += 1
                if on_result is not None:
                    tally[1] += on_result(result)
                if on_args is not None:
                    tally[2] += on_args(args)
            return result

        return traced

    def switch(self, on: bool) -> None:
        self.enabled = on

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a loaded ``repro`` module (or the
        target's class) refers to it."""
        for module_name, attr, name, on_result, on_args in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(
                    name, original, on_result, on_args))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, on_result, on_args)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)
                              if not isinstance(owner, type)
                              else owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (duration minus child spans)."""
        for span in self.spans:
            span.child_s = 0.0
        for span in self.spans:
            if span.parent is not None:
                span.parent.child_s += span.seconds
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.seconds - span.child_s
        return dict(totals)

    def write(self, path: Path) -> None:
        """All spans as JSON lines (ids are list positions)."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span.name, "thread": span.thread,
                    "start": span.start, "end": span.end,
                    "parent": (ids.get(id(span.parent))
                               if span.parent is not None else None),
                }) + "\n")


def layer_metrics(tracer: Tracer, batch_size: int) -> dict[str, float]:
    """The per-layer metrics derived from one traced stretch."""
    self_s = tracer.self_times()
    counts = tracer.counts

    def t(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def ratio(name: str) -> float:
        calls, hits, _ = counts.get(name, (0, 0, 0))
        return hits / calls if calls else 0.0

    score_calls, _, score_rows = counts.get("score", (0, 0, 0))
    return {
        "lang.lex_s": t("lang.lex"),
        "lang.lex_calls": counts.get("lang.lex", (0,))[0],
        "lang.parse_s": t("lang.parse"),
        "lang.cfg_s": t("lang.cfg"),
        "lang.dominance_s": t("lang.dominance"),
        "lang.dataflow_s": t("lang.dataflow"),
        "lang.pdg_s": t("lang.pdg"),
        "lang.analyze_s": t("lang.analyze"),
        "slicing.criteria": counts.get("slicing.criteria",
                                       (0, 0, 0))[1],
        "slicing.slice_s": t("slicing.slice"),
        "slicing.normalize_s": t("slicing.normalize"),
        "slicing.normalize_calls": counts.get("slicing.normalize",
                                              (0,))[0],
        "slicing.gadgets": counts.get("slicing.slice", (0, 0, 0))[1],
        "fingerprint.s": t("fingerprint"),
        "fingerprint.digest_s": t("fingerprint.digest"),
        "cache.gadget_hit_ratio": ratio("cache.get"),
        "cache.gadget_read_s": t("cache.get"),
        "cache.fn_hit_ratio": ratio("cache.fn_get"),
        "encode.s": t("encode"),
        "score.s": t("score"),
        "score.batches": score_calls,
        "score.rows": score_rows,
        "score.batch_fill": (score_rows / (score_calls * batch_size)
                             if score_calls else 0.0),
    }


def layer_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Self time per layer prefix as a share of ``wall_s``."""
    shares: dict[str, float] = defaultdict(float)
    for name, seconds in tracer.self_times().items():
        shares[name.split(".")[0]] += seconds / wall_s
    return dict(shares)
