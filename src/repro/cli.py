"""Command-line interface: train, scan, and fuzz from the shell.

::

    python -m repro train --cases 200 --out detector.npz
    python -m repro scan target.c --model detector.npz
    python -m repro serve --model detector.npz --socket /tmp/scan.sock
    python -m repro scan target.c --connect /tmp/scan.sock
    python -m repro fuzz target.c --execs 800
    python -m repro gadgets target.c --kind path-sensitive
    python -m repro extract --cases 200 --workers 4 --out gadgets.jsonl
    python -m repro matrix --detectors SEVulDet flawfinder --datasets sard juliet --out runs/matrix
    python -m repro export-corpus --cases 100 --dir ./corpus
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines.afl import AFLFuzzer
from .core.config import SCALE_PRESETS, current_scale
from .core.context import RunContext
from .core.detector import SEVulDet
from .core.extract import extract_gadgets
from .datasets.manifest import TestCase
from .datasets.nvd import generate_nvd_corpus
from .datasets.sard import generate_sard_corpus

__all__ = ["main", "build_parser"]


def _prepare_quarantine(args: argparse.Namespace):
    """Build the Quarantine from ``--quarantine`` and its policy
    flags: ``--quarantine-retry-after`` arms the retry budget and
    ``--requarantine`` drops every entry up front (still-failing
    cases re-enter during the run)."""
    from .core.resilience import Quarantine

    path = getattr(args, "quarantine", None)
    if path is None:
        return None
    quarantine = Quarantine(
        path,
        retry_after=getattr(args, "quarantine_retry_after", None))
    if getattr(args, "requarantine", False):
        dropped = quarantine.reset()
        print(f"requarantine: dropped {dropped} entry(ies) from "
              f"{path}; failing cases will re-enter")
    return quarantine


def _run_context(args: argparse.Namespace, *,
                 workers: int = 0) -> RunContext:
    """One RunContext from the shared cache/quarantine/fault flags.

    Every subcommand funnels its ``--cache-dir`` / ``--quarantine`` /
    ``--case-timeout`` (and, where applicable, ``--checkpoint-dir`` /
    ``--resume``) flags through here instead of wiring each into every
    call site; ``workers`` is explicit because ``scan --workers``
    means scorer threads, not extraction processes.
    """
    return RunContext.create(
        cache=getattr(args, "cache_dir", None),
        quarantine=_prepare_quarantine(args),
        case_timeout=getattr(args, "case_timeout", None),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        resume=bool(getattr(args, "resume", False)),
        workers=workers)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEVulDet reproduction — semantics-enhanced "
                    "learnable vulnerability detection")
    parser.add_argument("--scale", choices=sorted(SCALE_PRESETS),
                        default=None,
                        help="experiment scale preset "
                             "(default: $REPRO_SCALE or 'small')")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train", help="train a detector on a synthetic corpus")
    train.add_argument("--cases", type=int, default=150,
                       help="number of SARD-style training programs")
    train.add_argument("--nvd-cases", type=int, default=20,
                       help="number of NVD-style training programs")
    train.add_argument("--seed", type=int, default=7)
    train.add_argument("--out", type=Path, required=True,
                       help="where to save the trained model (.npz)")
    train.add_argument("--workers", type=int, default=0,
                       help="extraction worker processes "
                            "(0 = serial, default)")
    train.add_argument("--cache-dir", type=Path, default=None,
                       help="content-addressed extraction cache "
                            "directory (reruns skip the frontend)")
    train.add_argument("--case-timeout", type=float, default=None,
                       help="per-case extraction wall-clock budget in "
                            "seconds; hanging cases are skipped and "
                            "quarantined instead of wedging the run")
    train.add_argument("--quarantine", type=Path, default=None,
                       help="poison-case quarantine list (.jsonl); "
                            "known-bad cases are skipped cheaply and "
                            "new timeouts/crashes are appended")
    train.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="write an atomic training checkpoint "
                            "after every epoch so an interrupted run "
                            "can be resumed")
    train.add_argument("--resume", action="store_true",
                       help="resume training from the checkpoint in "
                            "--checkpoint-dir (same final weights as "
                            "an uninterrupted run)")
    train.add_argument("--stats", action="store_true",
                       help="print pipeline telemetry (stage timings, "
                            "counters, training throughput rates)")

    scan = commands.add_parser(
        "scan",
        help="scan C files / directories with a trained detector "
             "(persistent batched service)")
    scan.add_argument("files", nargs="+", type=Path,
                      help="C files or directories (directories "
                           "recurse over *.c)")
    scan.add_argument("--model", type=Path, default=None,
                      help="trained model archive (.npz); runs "
                           "the scan in-process")
    scan.add_argument("--connect", default=None, metavar="ADDR",
                      help="scan via a running 'serve' daemon at "
                           "this unix socket path or host:port "
                           "instead of loading a model")
    scan.add_argument("--threshold", type=float, default=None,
                      help="override the decision threshold "
                           "(default: the paper's 0.8, stored in the "
                           "model archive)")
    scan.add_argument("--workers", type=int, default=2,
                      help="scoring worker threads (default 2)")
    scan.add_argument("--batch-size", type=int, default=64,
                      help="micro-batch size for gadget scoring")
    scan.add_argument("--jsonl", type=Path, default=None,
                      help="write one JSON record per case (verdicts; "
                           "in --diff/--watch mode: verdict deltas) "
                           "to this file, streamed in input order")
    scan.add_argument("--diff", type=Path, default=None,
                      metavar="BASE",
                      help="incremental mode: BASE is either a "
                           "baseline tree to compare the scanned "
                           "directory against, or a file of changed "
                           "paths (git diff --name-only output) to "
                           "restrict the scan to; emits verdict "
                           "deltas (added/changed/cleared) and "
                           "re-extracts only invalidated functions")
    scan.add_argument("--watch", action="store_true",
                      help="watch the scanned directory: poll mtimes, "
                           "rescan changed files incrementally, and "
                           "stream verdict-delta JSONL to stdout")
    scan.add_argument("--interval", type=float, default=0.5,
                      help="watch-mode poll interval in seconds "
                           "(default 0.5)")
    scan.add_argument("--max-polls", type=int, default=None,
                      help="watch-mode poll budget (default: poll "
                           "until interrupted)")
    scan.add_argument("--cache-dir", type=Path, default=None,
                      help="content-addressed extraction cache "
                           "directory shared with train/extract")
    scan.add_argument("--fn-cache-dir", type=Path, default=None,
                      help="function-level incremental gadget cache "
                           "directory; --diff/--watch default to a "
                           "per-run temporary one")
    scan.add_argument("--quarantine", type=Path, default=None,
                      help="poison-case quarantine list (.jsonl)")
    scan.add_argument("--quarantine-retry-after", type=int,
                      default=None, metavar="N",
                      help="retry a quarantined case after it has "
                           "been pre-skipped N times (clean retries "
                           "discharge the entry; default: skip "
                           "forever)")
    scan.add_argument("--requarantine", action="store_true",
                      help="drop every quarantine entry before "
                           "scanning so all cases are retried; "
                           "still-failing ones re-enter the list")
    scan.add_argument("--stats", action="store_true",
                      help="print scan telemetry (queue depth, batch "
                           "fill, latency percentiles, cache hits)")

    serve = commands.add_parser(
        "serve",
        help="run the always-on scan server (shared model, "
             "batched scoring, verdict cache)")
    serve.add_argument("--model", type=Path, required=True)
    serve.add_argument("--socket", type=Path, default=None,
                       help="listen on this unix socket path "
                            "(default: TCP on --host/--port)")
    serve.add_argument("--host", default=None,
                       help="TCP bind host (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP bind port (0 picks a free one, "
                            "printed on startup)")
    serve.add_argument("--workers", type=int, default=2,
                       help="scorer threads")
    serve.add_argument("--batch-size", type=int, default=64,
                       help="micro-batch size for gadget scoring")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="per-client in-flight budget; scans "
                            "over it are shed immediately")
    serve.add_argument("--dispatchers", type=int, default=2,
                       help="dispatcher threads batching admitted "
                            "requests into scan_cases calls")
    serve.add_argument("--threshold", type=float, default=None,
                       help="override the decision threshold")
    serve.add_argument("--cache-capacity", type=int,
                       default=4096,
                       help="verdict cache capacity (survives hot "
                            "reloads; token-keyed)")

    fuzz = commands.add_parser(
        "fuzz", help="run a coverage-guided fuzzing campaign")
    fuzz.add_argument("file", type=Path)
    fuzz.add_argument("--execs", type=int, default=800)
    fuzz.add_argument("--max-steps", type=int, default=20_000)
    fuzz.add_argument("--seed", type=int, default=0)

    gadgets = commands.add_parser(
        "gadgets", help="print a file's code gadgets")
    gadgets.add_argument("file", type=Path)
    gadgets.add_argument("--kind",
                         choices=("path-sensitive", "classic"),
                         default="path-sensitive")

    extract = commands.add_parser(
        "extract",
        help="extract labeled gadgets from a generated corpus "
             "(parallel + cached) and write them to .jsonl")
    extract.add_argument("--cases", type=int, default=150,
                         help="number of SARD-style programs")
    extract.add_argument("--nvd-cases", type=int, default=0,
                         help="number of NVD-style programs")
    extract.add_argument("--seed", type=int, default=7)
    extract.add_argument("--kind",
                         choices=("path-sensitive", "classic"),
                         default="path-sensitive")
    extract.add_argument("--workers", type=int, default=0,
                         help="extraction worker processes "
                              "(0 = serial, default)")
    extract.add_argument("--cache-dir", type=Path, default=None,
                         help="content-addressed extraction cache "
                              "directory")
    extract.add_argument("--case-timeout", type=float, default=None,
                         help="per-case extraction wall-clock budget "
                              "in seconds")
    extract.add_argument("--quarantine", type=Path, default=None,
                         help="poison-case quarantine list (.jsonl)")
    extract.add_argument("--quarantine-retry-after", type=int,
                         default=None, metavar="N",
                         help="retry a quarantined case after N "
                              "pre-skips (default: skip forever)")
    extract.add_argument("--requarantine", action="store_true",
                         help="drop every quarantine entry before "
                              "extracting so all cases are retried")
    extract.add_argument("--out", type=Path, required=True,
                         help="output gadget dataset (.jsonl)")
    extract.add_argument("--stats", action="store_true",
                         help="print extraction telemetry")

    matrix = commands.add_parser(
        "matrix",
        help="run the detectors x datasets benchmark matrix "
             "(leaderboard + per-cell JSON artifacts)")
    matrix.add_argument("--detectors", nargs="+", default=None,
                        metavar="NAME",
                        help="detector registry names (frameworks "
                             "like SEVulDet/SySeVR, static tools "
                             "flawfinder/rats/checkmarx/vuddy, "
                             "fuzzer 'afl'); default: the standard "
                             "lineup")
    matrix.add_argument("--datasets", nargs="+", default=None,
                        metavar="NAME",
                        choices=None,
                        help="dataset adapter names (sard, nvd, xen, "
                             "juliet, cvefixes); default: all")
    matrix.add_argument("--out", type=Path, required=True,
                        help="artifact directory (leaderboard.txt/.md, "
                             "matrix.json, cells/*.json)")
    matrix.add_argument("--baseline", default="flawfinder",
                        help="detector the per-dataset bootstrap "
                             "significance compares against "
                             "(default: flawfinder)")
    matrix.add_argument("--seed", type=int, default=7,
                        help="grid seed (dataset splits and per-cell "
                             "detector seeds derive from it)")
    matrix.add_argument("--train-cases", type=int, default=None,
                        help="training programs per dataset "
                             "(default: the scale preset)")
    matrix.add_argument("--test-cases", type=int, default=None,
                        help="test programs per dataset "
                             "(default: half the scale preset)")
    matrix.add_argument("--resamples", type=int, default=500,
                        help="bootstrap resamples for significance "
                             "(0 = point estimates only)")
    matrix.add_argument("--fuzz-execs", type=int, default=150,
                        help="fuzzing executions per case for the "
                             "'afl' detector")
    matrix.add_argument("--no-resume", action="store_true",
                        help="recompute every cell even when a "
                             "finished cell artifact exists in --out")
    matrix.add_argument("--cache-dir", type=Path, default=None,
                        help="content-addressed extraction cache "
                             "shared by every cell")
    matrix.add_argument("--quarantine", type=Path, default=None,
                        help="poison-case quarantine list (.jsonl)")
    matrix.add_argument("--case-timeout", type=float, default=None,
                        help="per-case extraction wall-clock budget")
    matrix.add_argument("--stats", action="store_true",
                        help="print shared-context telemetry (per-tool "
                             "wall time, cases/sec, cache hits)")

    export = commands.add_parser(
        "export-corpus",
        help="generate a corpus and write it to disk "
             "(.c files + SARD-style manifest.xml)")
    export.add_argument("--cases", type=int, default=100)
    export.add_argument("--kind", choices=("sard", "nvd", "xen"),
                        default="sard")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--dir", type=Path, required=True)
    return parser


def _resolve_scale(args: argparse.Namespace):
    if args.scale is not None:
        return SCALE_PRESETS[args.scale]
    return current_scale()


def _cmd_train(args: argparse.Namespace) -> int:
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    scale = _resolve_scale(args)
    corpus = generate_sard_corpus(args.cases, seed=args.seed)
    if args.nvd_cases > 0:
        corpus += generate_nvd_corpus(args.nvd_cases,
                                      seed=args.seed + 1)
    vulnerable = sum(case.vulnerable for case in corpus)
    print(f"training on {len(corpus)} programs "
          f"({vulnerable} vulnerable) at scale {scale.name!r} ...")
    ctx = _run_context(args, workers=args.workers)
    detector = SEVulDet(scale=scale, seed=args.seed,
                        workers=ctx.workers, cache=ctx.cache,
                        case_timeout=ctx.case_timeout,
                        quarantine=ctx.quarantine,
                        telemetry=ctx.telemetry)
    report = detector.fit(corpus, ctx=ctx)
    detector.save(args.out)
    if detector.extraction_failures:
        print(f"skipped {len(detector.extraction_failures)} case(s): "
              + ", ".join(f"{f.case_name} ({f.reason})"
                          for f in detector.extraction_failures[:5]))
    print(f"final loss {report.final_loss:.4f}; model saved to "
          f"{args.out}")
    if args.stats:
        print(detector.telemetry.summary())
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from .core.store import save_gadgets

    corpus = generate_sard_corpus(args.cases, seed=args.seed)
    if args.nvd_cases > 0:
        corpus += generate_nvd_corpus(args.nvd_cases,
                                      seed=args.seed + 1)
    ctx = _run_context(args, workers=args.workers)
    gadgets = extract_gadgets(corpus, args.kind, **ctx.extract_kwargs())
    count = save_gadgets(gadgets, args.out)
    vulnerable = sum(g.label for g in gadgets)
    print(f"extracted {count} gadgets ({vulnerable} vulnerable) from "
          f"{len(corpus)} programs -> {args.out}")
    if ctx.failures:
        print(f"skipped {len(ctx.failures)} case(s): "
              + ", ".join(f"{f.case_name} ({f.reason})"
                          for f in ctx.failures[:5]))
    if args.stats:
        print(ctx.telemetry.summary())
    return 0


def _scan_files(paths: list[Path]) -> list[Path] | None:
    """The files ``scan`` walks, or None after an ``error:`` line
    naming a path that does not exist."""
    from .core.serve import expand_scan_paths

    try:
        return expand_scan_paths(paths)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_scan(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from .core.serve import ScanService, case_for_file

    if (args.model is None) == (args.connect is None):
        print("error: scan needs exactly one of --model (in-process) "
              "or --connect (remote daemon)", file=sys.stderr)
        return 2
    if args.diff is not None and args.watch:
        print("error: --diff and --watch are mutually exclusive",
              file=sys.stderr)
        return 2
    if (args.diff is not None or args.watch) and args.model is None:
        print("error: --diff/--watch scan in-process and need "
              "--model", file=sys.stderr)
        return 2
    if args.connect is not None:
        return _cmd_scan_connect(args)
    files = None
    if args.diff is None and not args.watch:
        files = _scan_files(args.files)
        if files is None:
            return 2

    ctx = _run_context(args)  # scan --workers = scorer threads
    detector = SEVulDet(scale=_resolve_scale(args),
                        cache=ctx.cache,
                        quarantine=ctx.quarantine)
    detector.load(args.model)
    if args.threshold is not None:
        detector.threshold = args.threshold
    fn_cache_dir = args.fn_cache_dir
    temp_fn_cache = None
    if fn_cache_dir is None and (args.diff is not None or args.watch):
        # incremental modes always get function-level reuse; without
        # a persistent directory it lives for just this invocation
        temp_fn_cache = tempfile.TemporaryDirectory(
            prefix="repro-fncache-")
        fn_cache_dir = Path(temp_fn_cache.name)
    try:
        with ScanService(detector, workers=args.workers,
                         batch_size=args.batch_size,
                         fn_cache=fn_cache_dir) as service:
            if args.diff is not None:
                return _cmd_scan_diff(args, service)
            if args.watch:
                return _cmd_scan_watch(args, service)
            cases = [case_for_file(path) for path in files]
            exit_code = 0
            verdicts = []
            handle = (args.jsonl.open("w", encoding="utf-8")
                      if args.jsonl is not None else None)
            try:
                # verdicts stream back in input order (the service
                # buffers-and-releases by case index), so the JSONL
                # byte stream is identical run to run at any worker
                # count
                for verdict in service.scan_stream(cases):
                    verdicts.append(verdict)
                    if verdict.status == "skipped":
                        print(f"{verdict.name}: skipped "
                              f"({verdict.reason})")
                    elif not verdict.findings:
                        print(f"{verdict.name}: clean")
                    else:
                        exit_code = 1
                        for finding in verdict.findings:
                            print(f"{finding.path}:{finding.line}: "
                                  f"[{finding.category}] suspicious "
                                  f"{finding.function}() "
                                  f"score={finding.score:.2f}")
                    if handle is not None:
                        handle.write(
                            json.dumps(verdict.as_record(),
                                       sort_keys=True) + "\n")
            finally:
                if handle is not None:
                    handle.close()
            stats = service.stats()
    finally:
        if temp_fn_cache is not None:
            temp_fn_cache.cleanup()
    flagged = sum(v.flagged for v in verdicts)
    skipped = sum(v.status == "skipped" for v in verdicts)
    clean = len(verdicts) - flagged - skipped
    print(f"scanned {len(verdicts)} case(s): {flagged} flagged, "
          f"{clean} clean, {skipped} skipped "
          f"({stats['cases_per_sec']:.1f} cases/s)")
    if args.stats:
        latency = stats["latency_seconds"]
        fill = stats["batch_fill"]
        depth = stats["queue_depth"]
        cache = stats["result_cache"]
        print(f"  scored {stats['scored_gadgets']} gadget(s) as "
              f"{stats['scored_rows']} distinct row(s) in "
              f"{stats['batches']} batch(es)")
        if latency.get("count"):
            print(f"  case latency p50={latency['p50'] * 1e3:.1f}ms "
                  f"p95={latency['p95'] * 1e3:.1f}ms")
        if fill.get("count"):
            print(f"  batch fill mean={fill['mean']:.2f} "
                  f"p95={fill['p95']:.2f}")
        if depth.get("count"):
            print(f"  queue depth p50={depth['p50']:.0f} "
                  f"max={depth['max']:.0f}")
        print(f"  result cache: {cache['hits']} hit(s), "
              f"{cache['misses']} miss(es) "
              f"(rate {cache['hit_rate']:.2f})")
        print(service.telemetry.summary())
    return exit_code


def _cmd_scan_diff(args: argparse.Namespace, service) -> int:
    """``scan --diff BASE TARGET``: scan two trees, emit deltas.

    BASE is either a tree (full two-tree diff) or a names file
    (``git diff --name-only`` output; scans only the listed paths
    under TARGET).  Exit 1 when the diff added or changed a flagged
    file, 0 when every delta cleared or nothing changed.
    """
    from .core.diffscan import DiffScanner, deltas_as_jsonl

    if len(args.files) != 1:
        print("error: scan --diff takes exactly one target tree",
              file=sys.stderr)
        return 2
    target = Path(args.files[0])
    if not target.is_dir():
        print(f"error: scan --diff target {target} is not a "
              f"directory", file=sys.stderr)
        return 2
    scanner = DiffScanner(service)
    base = args.diff
    if base.is_dir():
        report = scanner.diff(base, target)
    elif base.is_file():
        names = base.read_text(encoding="utf-8").splitlines()
        report = scanner.scan_names(target, names)
    else:
        print(f"error: --diff base {base} is neither a tree nor a "
              f"names file", file=sys.stderr)
        return 2
    for rel in report.changed_files:
        frontier = report.frontier.get(rel)
        if rel not in report.verdicts:
            print(f"{rel}: removed")
        elif frontier:
            print(f"{rel}: re-slicing {', '.join(frontier)}")
        else:
            print(f"{rel}: changed")
    for delta in report.deltas:
        print(f"{delta.event}: {delta.name}")
    print(f"diff: {len(report.changed_files)} changed file(s), "
          f"{len(report.deltas)} verdict delta(s)")
    if args.jsonl is not None:
        with args.jsonl.open("w", encoding="utf-8") as handle:
            for line in deltas_as_jsonl(report.deltas):
                handle.write(line + "\n")
    return 1 if report.dirty else 0


def _cmd_scan_watch(args: argparse.Namespace, service) -> int:
    """``scan --watch DIR``: poll mtimes, stream verdict deltas as
    JSONL on stdout (and to ``--jsonl`` when given)."""
    import json

    from .core.diffscan import WatchLoop

    if len(args.files) != 1:
        print("error: scan --watch takes exactly one directory",
              file=sys.stderr)
        return 2
    root = Path(args.files[0])
    if not root.is_dir():
        print(f"error: scan --watch root {root} is not a directory",
              file=sys.stderr)
        return 2
    handle = (args.jsonl.open("w", encoding="utf-8")
              if args.jsonl is not None else None)

    def emit(delta) -> None:
        line = json.dumps(delta.as_record(), sort_keys=True)
        print(line, flush=True)
        if handle is not None:
            handle.write(line + "\n")
            handle.flush()

    loop = WatchLoop(service, root, interval=args.interval,
                     max_polls=args.max_polls, emit=emit)
    try:
        loop.run()
    except KeyboardInterrupt:
        pass
    finally:
        if handle is not None:
            handle.close()
    return 0


#: ``scan`` options that configure the in-process service; the daemon
#: behind ``--connect`` runs with its own settings and never sees them.
_IN_PROCESS_SCAN_OPTIONS = ("threshold", "workers", "batch_size",
                            "cache_dir", "fn_cache_dir", "quarantine",
                            "quarantine_retry_after", "requarantine")


def _cmd_scan_connect(args: argparse.Namespace) -> int:
    """``scan --connect``: same files, same output, remote scoring."""
    import json

    from .core.ipc import ProtocolError, ScanClient

    defaults = build_parser().parse_args(["scan", "."])
    ignored = ["--" + dest.replace("_", "-")
               for dest in _IN_PROCESS_SCAN_OPTIONS
               if getattr(args, dest) != getattr(defaults, dest)]
    if ignored:
        print(f"error: scan --connect uses the daemon's settings and "
              f"would ignore {', '.join(ignored)}; drop them or scan "
              f"in-process with --model", file=sys.stderr)
        return 2
    files = _scan_files(args.files)
    if files is None:
        return 2
    try:
        with ScanClient(args.connect) as client:
            responses = client.scan_paths(files)
            stats = client.stats() if args.stats else None
    except (OSError, ProtocolError) as error:
        print(f"error: scan server at {args.connect}: {error}",
              file=sys.stderr)
        return 2
    exit_code = 0
    records = []
    for response in responses:
        if response["status"] != "ok":
            exit_code = 2
            print(f"{response.get('name', '?')}: "
                  f"{response['status']} "
                  f"({response.get('error', '')})")
            continue
        record = response["verdict"]
        records.append(record)
        if record["status"] == "skipped":
            print(f"{record['name']}: skipped ({record['reason']})")
        elif not record["findings"]:
            print(f"{record['name']}: clean")
        else:
            exit_code = max(exit_code, 1)
            for finding in record["findings"]:
                print(f"{record['name']}:{finding['line']}: "
                      f"[{finding['category']}] suspicious "
                      f"{finding['function']}() "
                      f"score={finding['score']:.2f}")
    if args.jsonl is not None:
        with args.jsonl.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True)
                             + "\n")
    flagged = sum(r["status"] == "flagged" for r in records)
    skipped = sum(r["status"] == "skipped" for r in records)
    shed = len(responses) - len(records)
    clean = len(records) - flagged - skipped
    print(f"scanned {len(responses)} case(s) via {args.connect}: "
          f"{flagged} flagged, {clean} clean, {skipped} skipped, "
          f"{shed} shed/error")
    if stats is not None:
        server = stats["server"]
        service = stats["service"] or {}
        cache = service.get("result_cache", {})
        fill = service.get("batch_fill", {})
        print(f"  server: {server['scans']} scan(s), "
              f"{server['shed']} shed, {server['reloads']} "
              f"reload(s), {server['clients']} client(s), "
              f"health={server['health']}")
        print(f"  resilience: {server['deadline_expired']} "
              f"deadline-expired, {server['conn_drops']} "
              f"conn drop(s)")
        if service:
            print(f"  scored {service['scored_gadgets']} gadget(s) as "
                  f"{service['scored_rows']} distinct row(s) in "
                  f"{service['batches']} batch(es)")
        if fill.get("count"):
            print(f"  batch fill mean={fill['mean']:.2f} "
                  f"p95={fill['p95']:.2f}")
        if cache:
            print(f"  result cache: {cache['hits']} hit(s), "
                  f"{cache['misses']} miss(es) "
                  f"(rate {cache['hit_rate']:.2f})")
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.server import ScanServer

    server = ScanServer(
        model=args.model, scale=_resolve_scale(args),
        threshold=args.threshold,
        socket_path=args.socket,
        host=(None if args.socket is not None
              else (args.host or "127.0.0.1")),
        port=args.port, workers=args.workers,
        batch_size=args.batch_size,
        max_pending=args.max_pending, dispatchers=args.dispatchers,
        cache_capacity=args.cache_capacity)
    server.start()
    # announced on stdout so wrappers (and the benchmark harness) can
    # learn the picked TCP port; flush before blocking forever
    print(f"serving on {server.address} "
          f"(workers={args.workers})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    source = args.file.read_text()
    fuzzer = AFLFuzzer(source, max_execs=args.execs,
                       max_steps=args.max_steps, seed=args.seed)
    report = fuzzer.run()
    print(f"executions: {report.executions}  "
          f"coverage edges: {len(report.coverage)}  "
          f"queue: {report.queue_size}")
    for crash in report.crashes:
        print(f"CRASH {crash.kind} at line {crash.line} "
              f"input={crash.example!r}")
    for hang in report.hangs:
        print(f"HANG input={hang.example!r}")
    if not report.found_anything:
        print("no crashes or hangs found")
        return 0
    return 1


def _cmd_gadgets(args: argparse.Namespace) -> int:
    source = args.file.read_text()
    case = TestCase(name=str(args.file), source=source,
                    vulnerable=False, vulnerable_lines=frozenset(),
                    cwe="", category="", origin="cli")
    gadgets = extract_gadgets([case], kind=args.kind,
                              deduplicate=False, keep_gadget=True)
    if not gadgets:
        print("no gadgets (unparseable input or no special tokens)")
        return 1
    for gadget in gadgets:
        print(f"=== {gadget.criterion} [{gadget.kind}] "
              f"label-tokens={len(gadget.tokens)} ===")
        assert gadget.gadget is not None
        for line in gadget.gadget.lines:
            print(f"  [{line.role:15s}] {line.line:4d} {line.text}")
        print()
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .datasets.adapters import default_adapters
    from .eval.detector import DEFAULT_DETECTOR_NAMES, build_detector
    from .eval.matrix import MatrixRunner

    def split_names(values, defaults):
        # accept both `--datasets sard juliet` and
        # `--datasets sard,juliet`
        if not values:
            return list(defaults)
        return [name for token in values
                for name in token.split(",") if name]

    scale = _resolve_scale(args)
    adapters = default_adapters(args.train_cases, args.test_cases)
    dataset_names = split_names(args.datasets, sorted(adapters))
    unknown = [name for name in dataset_names if name not in adapters]
    if unknown:
        print(f"error: unknown dataset(s) {unknown}; choose from "
              f"{sorted(adapters)}", file=sys.stderr)
        return 2
    detector_names = split_names(args.detectors,
                                 DEFAULT_DETECTOR_NAMES)
    try:
        for name in detector_names:  # fail fast on typos
            build_detector(name, scale=scale,
                           fuzz_execs=args.fuzz_execs)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def make(name: str):
        # per-cell construction happens inside the runner via the
        # string path; frameworks need the resolved scale and the
        # fuzzer its execution budget, so wrap them here
        from .datasets.adapters import derive_seed

        class _Factory:
            def __init__(self, detector_name: str):
                self.name = detector_name

            def __call__(self):
                return build_detector(
                    self.name, scale=scale,
                    seed=derive_seed(args.seed, "cell", self.name),
                    fuzz_execs=args.fuzz_execs)

        return _Factory(name)

    ctx = _run_context(args)
    runner = MatrixRunner(
        [make(name) for name in detector_names],
        [adapters[name] for name in dataset_names],
        baseline=args.baseline, seed=args.seed, ctx=ctx,
        out_dir=args.out, resume=not args.no_resume,
        resamples=args.resamples,
        progress=lambda message: print(message, flush=True))
    result = runner.run()
    print()
    print(result.leaderboard().render())
    errors = [cell for cell in result.cells if not cell.ok]
    print(f"{len(result.cells)} cell(s), {len(errors)} error(s); "
          f"artifacts under {args.out}")
    for cell in errors:
        print(f"  error {cell.detector} x {cell.dataset}: "
              f"{cell.error}")
    if args.stats:
        print(ctx.telemetry.summary())
    return 1 if errors else 0


def _cmd_export_corpus(args: argparse.Namespace) -> int:
    from .datasets.manifest_xml import export_corpus
    from .datasets.xen import generate_xen_corpus

    generators = {
        "sard": generate_sard_corpus,
        "nvd": generate_nvd_corpus,
        "xen": generate_xen_corpus,
    }
    cases = generators[args.kind](args.cases, seed=args.seed)
    manifest = export_corpus(cases, args.dir)
    vulnerable = sum(case.vulnerable for case in cases)
    print(f"wrote {len(cases)} programs ({vulnerable} vulnerable) "
          f"under {args.dir}")
    print(f"manifest: {manifest}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "scan": _cmd_scan,
    "serve": _cmd_serve,
    "fuzz": _cmd_fuzz,
    "gadgets": _cmd_gadgets,
    "extract": _cmd_extract,
    "matrix": _cmd_matrix,
    "export-corpus": _cmd_export_corpus,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
