#!/usr/bin/env python3
"""Chaos harness: prove the serving layer never loses a verdict.

Trains a small detector, computes a serial oracle (in-process
``ScanService`` records, themselves pinned byte-identical to
``detect_case`` by the test suite), then runs the scan corpus through
the real daemon (``python -m repro serve``) under one injected fault
regime per phase::

    PYTHONPATH=src python scripts/bench_chaos.py          # full soak
    PYTHONPATH=src python scripts/bench_chaos.py --smoke  # CI-sized

Phases (all via deterministic ``REPRO_FAULTS`` plans, no randomness):

* ``baseline``       — no faults; reference throughput.
* ``conn_drop``      — the server severs the client's connection
  mid-batch (twice); the client reconnects and resubmits.
* ``shed_storm``     — a run of admissions is forcibly shed with
  ``retry_after_ms`` hints; the client backs off and retries.
* ``server_restart`` — the daemon is SIGKILLed mid-batch and a
  successor starts on the same socket; the client reconnects and
  resubmits (recovery latency is the measurement).

The gates hold in every mode, smoke included: **zero lost verdicts**
(every request eventually answers ``ok``) and **byte-identical
records** against the serial oracle, in every phase.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
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
from repro.core.ipc import RetryPolicy, ScanClient  # noqa: E402
from repro.core.serve import ScanService  # noqa: E402
from repro.datasets.sard import generate_sard_corpus  # noqa: E402
from repro.testing import faults  # noqa: E402

#: generous but bounded: a phase must recover inside this envelope
RETRY = RetryPolicy(attempts=15, base_delay=0.1, max_delay=1.0,
                    jitter=0.1)


def start_daemon(model_path: Path, socket_path: Path, *,
                 workers: int, fault_spec: str | None = None
                 ) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if fault_spec:
        env[faults.ENV_VAR] = fault_spec
    else:
        env.pop(faults.ENV_VAR, None)
    command = [sys.executable, "-m", "repro", "serve",
               "--model", str(model_path),
               "--socket", str(socket_path),
               "--workers", str(workers), "--batch-size", "16"]
    proc = subprocess.Popen(command, env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + 120
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early:\n{proc.stdout.read()}")
        if socket_path.exists():
            try:
                with ScanClient(str(socket_path), timeout=5,
                                retry=None) as ping:
                    if ping.ping().get("status") == "ok":
                        return proc
            except OSError:
                pass
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError("daemon did not come up within 120s")


def stop_daemon(proc: subprocess.Popen, address: str) -> dict | None:
    """Collect final stats, then shut the daemon down."""
    stats = None
    try:
        with ScanClient(address, timeout=30, retry=None) as client:
            stats = client.stats()
            client.shutdown()
        proc.wait(timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    return stats


def scan_all(address: str, requests: list[dict], *,
             chunk: int = 16) -> tuple[list[dict], ScanClient]:
    """The whole corpus through one retrying client, chunked below
    the admission budget; returns positional responses."""
    responses: list[dict] = []
    with ScanClient(address, timeout=300, retry=RETRY) as client:
        for start in range(0, len(requests), chunk):
            responses.extend(
                client.scan_batch(requests[start:start + chunk]))
        counters = {"reconnects": client.reconnects,
                    "shed_retried": client.shed_retried}
    return responses, counters


def check_phase(responses: list[dict], oracle: list[dict]) -> dict:
    """The two gates: nothing lost, nothing different."""
    lost = sum(1 for r in responses if r.get("status") != "ok")
    got = [r.get("verdict") for r in responses]
    return {"requests": len(responses), "lost": lost,
            "identical": got == oracle}


def run_phase(name: str, model_path: Path, tmp: Path,
              requests: list[dict], oracle: list[dict], *,
              fault_spec: str | None = None) -> dict:
    socket_path = tmp / f"{name}.sock"
    daemon = start_daemon(model_path, socket_path, workers=2,
                          fault_spec=fault_spec)
    address = str(socket_path)
    try:
        started = time.perf_counter()
        responses, counters = scan_all(address, requests)
        elapsed = time.perf_counter() - started
        with ScanClient(address, timeout=30, retry=None) as probe:
            health = probe.health()
    finally:
        stats = stop_daemon(daemon, address)
    result = check_phase(responses, oracle)
    result.update({
        "seconds": round(elapsed, 3),
        "cases_per_sec": round(len(responses) / elapsed, 2),
        "health": health.get("health"),
        "client": counters,
    })
    server = (stats or {}).get("server") or {}
    result["server"] = {
        "shed": server.get("shed", 0),
        "deadline_expired": server.get("deadline_expired", 0),
        "conn_drops": server.get("conn_drops", 0)}
    return result


def run_restart_phase(model_path: Path, tmp: Path,
                      requests: list[dict],
                      oracle: list[dict]) -> dict:
    """SIGKILL the daemon mid-batch, relaunch on the same socket."""
    socket_path = tmp / "restart.sock"
    address = str(socket_path)
    # wedge one early case so the batch is provably in flight when
    # the daemon dies; the successor gets a fault-free environment
    daemon = start_daemon(model_path, socket_path, workers=2,
                          fault_spec="hang@case:#2:2.0")
    outcome: dict = {}

    def run_client() -> None:
        started = time.perf_counter()
        outcome["responses"], outcome["client"] = scan_all(
            address, requests)
        outcome["seconds"] = time.perf_counter() - started

    worker = threading.Thread(target=run_client, daemon=True)
    worker.start()
    time.sleep(0.5)  # let the first chunk reach dispatch
    killed_at = time.perf_counter()
    daemon.send_signal(signal.SIGKILL)
    daemon.wait(timeout=30)
    successor = start_daemon(model_path, socket_path, workers=2)
    recovery = time.perf_counter() - killed_at
    try:
        worker.join(timeout=240.0)
        if worker.is_alive():
            raise RuntimeError(
                "client did not finish after daemon restart")
    finally:
        stop_daemon(successor, address)
    result = check_phase(outcome["responses"], oracle)
    result.update({
        "seconds": round(outcome["seconds"], 3),
        "recovery_seconds": round(recovery, 3),
        "client": outcome["client"],
    })
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: tiny corpus, one pass, "
                             "same zero-loss + identity gates")
    parser.add_argument("--rounds", type=int, default=None,
                        help="corpus passes per phase "
                             "(default 3, smoke 1)")
    parser.add_argument("--output", type=Path,
                        default=ROOT / "benchmarks" / "results"
                        / "BENCH_chaos.json")
    args = parser.parse_args(argv)

    scan_n = 10 if args.smoke else 24
    train_n = 20 if args.smoke else 80
    rounds = args.rounds or (1 if args.smoke else 3)

    detector = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    detector.fit(generate_sard_corpus(train_n, seed=31))
    cases = generate_sard_corpus(scan_n, seed=99)
    requests = [{"name": case.name, "source": case.source}
                for case in cases] * rounds

    # serial oracle: what the server must reproduce under every fault
    stripped = [replace(case, vulnerable=False,
                        vulnerable_lines=frozenset(), cwe="",
                        category="", origin="serve")
                for case in cases]
    with ScanService(detector, workers=2, batch_size=16) as service:
        oracle = [v.as_record()
                  for v in service.scan_cases(stripped)] * rounds

    regimes = [
        ("baseline", dict()),
        ("conn_drop", dict(
            fault_spec="drop@server-conn:#5;drop@server-conn:#11")),
        ("shed_storm", dict(fault_spec="drop@server-admit:#3-8")),
    ]

    phases: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        model_path = tmp / "model.npz"
        detector.save(model_path)
        for name, options in regimes:
            print(f"phase {name} "
                  f"(faults={options.get('fault_spec', '-')}) ...",
                  flush=True)
            phases[name] = run_phase(name, model_path, tmp,
                                     requests, oracle, **options)
            print(f"  {phases[name]['requests']} requests, "
                  f"lost={phases[name]['lost']}, identical="
                  f"{phases[name]['identical']}, "
                  f"{phases[name]['seconds']}s, "
                  f"health={phases[name]['health']}", flush=True)
        print("phase server_restart (SIGKILL mid-batch) ...",
              flush=True)
        phases["server_restart"] = run_restart_phase(
            model_path, tmp, requests, oracle)
        print(f"  {phases['server_restart']['requests']} requests, "
              f"lost={phases['server_restart']['lost']}, identical="
              f"{phases['server_restart']['identical']}, recovery="
              f"{phases['server_restart']['recovery_seconds']}s",
              flush=True)

    targets_met = {
        "zero_lost": all(p["lost"] == 0 for p in phases.values()),
        "identical": all(p["identical"] for p in phases.values()),
        "client_reconnected":
            phases["conn_drop"]["client"]["reconnects"] >= 1
            and phases["server_restart"]["client"]["reconnects"] >= 1,
        "shed_retried":
            phases["shed_storm"]["client"]["shed_retried"] >= 1,
    }

    report = {
        "benchmark": "chaos",
        "mode": "smoke" if args.smoke else "full",
        "corpus": {"train_cases": train_n, "scan_cases": scan_n,
                   "rounds": rounds,
                   "requests_per_phase": len(requests)},
        "retry_policy": {"attempts": RETRY.attempts,
                         "base_delay": RETRY.base_delay,
                         "max_delay": RETRY.max_delay},
        "phases": phases,
        "targets": {key: True for key in targets_met},
        "targets_met": targets_met,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = [key for key, met in targets_met.items() if not met]
    if failed:
        print(f"error: chaos targets not met: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("all chaos targets met: no verdict lost, all "
          "byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
