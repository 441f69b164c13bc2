#!/usr/bin/env python3
"""Benchmark the always-on scan server under saturating client load.

Trains a small detector, launches the real daemon (``python -m repro
serve``) as a subprocess, then drives it over its unix socket and writes the
measurements to ``benchmarks/results/BENCH_server.json``::

    PYTHONPATH=src python scripts/bench_server.py          # full run
    PYTHONPATH=src python scripts/bench_server.py --smoke  # CI-sized

Phases:

* ``parity`` — the scan corpus through the server once, compared
  field-for-field against the in-process ``ScanService`` verdicts
  (themselves pinned byte-identical to serial ``detect_case`` by the
  test suite).  Gated in every mode: determinism does not get noisy.
* ``saturation`` — N client threads, each holding a sliding window of
  pipelined scans open against unique (never-cached) sources, so the
  server's dispatcher batching and micro-batch scorer actually fill.
  Records throughput and per-request p50/p95/p99 latency.
* ``overload`` — one client pipelines far past ``--max-pending`` to
  measure admission control: the shed rate is the point, not a
  failure.

The headline target is ``batch_fill_mean``: the one-file-at-a-time
CLI baseline measured 0.044 (BENCH_scan.json — batches 4% full).  A
server worth running must keep its scorer batches materially fuller
than that under load.

``--smoke`` shrinks everything so CI finishes in seconds and asserts
only the JSON contract plus verdict parity; the checked-in
BENCH_server.json comes from a full run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import SCALE_PRESETS  # noqa: E402
from repro.core.detector import SEVulDet  # noqa: E402
from repro.core.ipc import ScanClient  # noqa: E402
from repro.core.serve import ScanService  # noqa: E402
from repro.datasets.sard import generate_sard_corpus  # noqa: E402

#: BENCH_scan.json's batched-mode fill with one-file-per-call traffic.
BASELINE_BATCH_FILL = 0.044
TARGET_BATCH_FILL = 0.15  # "materially above": >= ~3.4x baseline


def start_daemon(model_path: Path, socket_path: Path, *,
                 workers: int, batch_size: int,
                 max_pending: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model", str(model_path), "--socket", str(socket_path),
         "--workers", str(workers), "--batch-size", str(batch_size),
         "--max-pending", str(max_pending)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.time() + 120
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early:\n{proc.stdout.read()}")
        if socket_path.exists():
            try:
                with ScanClient(str(socket_path), timeout=5) as ping:
                    if ping.ping().get("status") == "ok":
                        return proc
            except OSError:
                pass
        time.sleep(0.2)
    proc.kill()
    raise RuntimeError("daemon did not come up within 120s")


def pump(address: str, requests: list[dict], window: int) -> dict:
    """Sliding-window pipelining client: keep ``window`` scans in
    flight, record per-request latency from send to response."""
    latencies: list[float] = []
    shed = errors = 0
    with ScanClient(address, timeout=300) as client:
        send_times: dict[str, float] = {}
        next_index = 0
        outstanding = 0
        while next_index < len(requests) or outstanding:
            while outstanding < window and next_index < len(requests):
                rid = str(next_index)
                send_times[rid] = time.perf_counter()
                client.send({"op": "scan", "id": rid,
                             **requests[next_index]})
                next_index += 1
                outstanding += 1
            response = client.receive()
            outstanding -= 1
            rid = str(response.get("id"))
            latency = time.perf_counter() - send_times.pop(rid)
            status = response.get("status")
            if status == "ok":
                latencies.append(latency)
            elif status == "shed":
                shed += 1
            else:
                errors += 1
    return {"latencies": latencies, "shed": shed, "errors": errors}


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def unique_requests(cases, client_slot: int, rounds: int
                    ) -> list[dict]:
    """Per-client, per-round source variants: unique fingerprints so
    the verdict cache cannot absorb the load phase."""
    out = []
    for round_no in range(rounds):
        for index, case in enumerate(cases):
            tag = f"\n// bench {client_slot}-{round_no}-{index}\n"
            out.append({"name": f"{case.name}#{client_slot}"
                                f".{round_no}.{index}",
                        "source": case.source + tag})
    return out


def bench_parity(address: str, detector: SEVulDet, cases, *,
                 max_pending: int) -> dict:
    """Server verdicts vs the in-process service, field for field.

    Batches are chunked below the per-client admission budget so the
    parity phase measures determinism, not backpressure — a shed
    response carries no verdict and would read as divergence.
    """
    stripped = [replace(case, vulnerable=False,
                        vulnerable_lines=frozenset(), cwe="",
                        category="", origin="serve")
                for case in cases]
    with ScanService(detector, workers=2, batch_size=16) as service:
        expected = [v.as_record()
                    for v in service.scan_cases(stripped)]
    chunk = max(1, max_pending // 2)
    responses: list[dict] = []
    with ScanClient(address, timeout=300) as client:
        for start in range(0, len(cases), chunk):
            responses.extend(client.scan_batch(
                [{"name": case.name, "source": case.source}
                 for case in cases[start:start + chunk]]))
    shed = sum(1 for r in responses if r.get("status") == "shed")
    got = [r.get("verdict") for r in responses]
    identical = got == expected
    token_ok = all(r.get("config_token") == detector.config_token()
                   for r in responses)
    return {"cases": len(cases), "shed": shed,
            "identical": identical,
            "config_token_consistent": token_ok}


def bench_saturation(address: str, cases, *, clients: int,
                     rounds: int, window: int) -> dict:
    results: list[dict | None] = [None] * clients
    threads = []
    start = time.perf_counter()
    for slot in range(clients):
        requests = unique_requests(cases, slot, rounds)
        thread = threading.Thread(
            target=lambda s=slot, r=requests:
                results.__setitem__(s, pump(address, r, window)))
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    latencies = sorted(itertools.chain.from_iterable(
        r["latencies"] for r in results))
    ok = len(latencies)
    shed = sum(r["shed"] for r in results)
    errors = sum(r["errors"] for r in results)
    return {
        "seconds": round(elapsed, 4),
        "requests": ok + shed + errors,
        "ok": ok,
        "shed": shed,
        "errors": errors,
        "cases_per_sec": round(ok / elapsed, 2),
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1e3, 3),
            "p95": round(percentile(latencies, 0.95) * 1e3, 3),
            "p99": round(percentile(latencies, 0.99) * 1e3, 3),
        },
    }


def bench_overload(address: str, cases, *, max_pending: int) -> dict:
    """Blow past the per-client budget; the shed rate is the result."""
    requests = unique_requests(cases, client_slot=99,
                               rounds=max(2, (max_pending * 6)
                                          // max(len(cases), 1) + 1))
    window = max_pending * 4
    result = pump(address, requests, window)
    total = (len(result["latencies"]) + result["shed"]
             + result["errors"])
    return {
        "requests": total,
        "ok": len(result["latencies"]),
        "shed": result["shed"],
        "errors": result["errors"],
        "shed_rate": round(result["shed"] / max(total, 1), 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: tiny corpus, contract + "
                             "parity gates only")
    parser.add_argument("--clients", type=int, default=None,
                        help="saturation client threads "
                             "(default 4, smoke 2)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="corpus passes per client "
                             "(default 3, smoke 1)")
    parser.add_argument("--window", type=int, default=32,
                        help="in-flight scans per client (clipped to "
                             "--max-pending); deeper windows keep the "
                             "scorer queue full between dispatches")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon scorer threads")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="scorer batch capacity; sized to the "
                             "length-grouped traffic so fill is "
                             "meaningful, not padded with headroom")
    parser.add_argument("--max-pending", type=int, default=32)
    parser.add_argument("--output", type=Path,
                        default=ROOT / "benchmarks" / "results"
                        / "BENCH_server.json")
    args = parser.parse_args(argv)

    scan_n = 8 if args.smoke else 40
    train_n = 20 if args.smoke else 80
    clients = args.clients or (2 if args.smoke else 4)
    rounds = args.rounds or (1 if args.smoke else 3)
    scale = SCALE_PRESETS["small"]

    detector = SEVulDet(scale=scale, seed=3)
    detector.fit(generate_sard_corpus(train_n, seed=31))
    cases = generate_sard_corpus(scan_n, seed=99)

    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "model.npz"
        socket_path = Path(tmp) / "scan.sock"
        detector.save(model_path)
        print(f"starting daemon (workers={args.workers}) ...")
        daemon = start_daemon(model_path, socket_path,
                              workers=args.workers,
                              batch_size=args.batch_size,
                              max_pending=args.max_pending)
        address = str(socket_path)
        try:
            parity = bench_parity(address, detector, cases,
                                  max_pending=args.max_pending)
            print(f"parity: {parity['cases']} cases, identical="
                  f"{parity['identical']} "
                  f"(shed {parity['shed']})")

            saturation = bench_saturation(
                address, cases, clients=clients, rounds=rounds,
                window=min(args.window, args.max_pending))
            lat = saturation["latency_ms"]
            print(f"saturation: {saturation['ok']} scans in "
                  f"{saturation['seconds']}s "
                  f"({saturation['cases_per_sec']} cases/s), "
                  f"p50={lat['p50']}ms p95={lat['p95']}ms "
                  f"p99={lat['p99']}ms")

            overload = bench_overload(address, cases,
                                      max_pending=args.max_pending)
            print(f"overload: {overload['shed']}/"
                  f"{overload['requests']} shed "
                  f"(rate {overload['shed_rate']:.2%})")

            with ScanClient(address, timeout=60) as client:
                stats = client.stats()
                client.shutdown()
            daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()

    fill = (stats["service"]["batch_fill"] or {}).get("mean", 0.0)
    fill = round(fill, 4)
    print(f"scorer batch fill mean: {fill} "
          f"(one-shot baseline {BASELINE_BATCH_FILL})")

    report = {
        "benchmark": "server",
        "mode": "smoke" if args.smoke else "full",
        "dtype": os.environ.get("REPRO_DTYPE", "float32"),
        "corpus": {"train_cases": train_n, "scan_cases": scan_n},
        "server": {"scorer": "thread", "workers": args.workers,
                   "batch_size": args.batch_size,
                   "max_pending": args.max_pending},
        "load": {"clients": clients, "rounds": rounds,
                 "window": min(args.window, args.max_pending)},
        "parity": parity,
        "saturation": saturation,
        "overload": overload,
        "batch_fill_mean": fill,
        "baseline_batch_fill_mean": BASELINE_BATCH_FILL,
        "targets": {"batch_fill_mean": TARGET_BATCH_FILL,
                    "identical": True,
                    "overload_sheds": True},
        "targets_met": {
            "batch_fill_mean": fill >= TARGET_BATCH_FILL,
            "identical": parity["identical"]
            and parity["config_token_consistent"],
            "overload_sheds": overload["shed"] > 0,
        },
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not report["targets_met"]["identical"]:
        print("error: server verdicts diverged from serial",
              file=sys.stderr)
        return 1
    if not args.smoke and not all(report["targets_met"].values()):
        print("warning: server targets not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
