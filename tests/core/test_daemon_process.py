"""The real daemon: ``python -m repro serve`` as a separate process.

``test_server.py`` and ``test_self_healing.py`` drive an in-process
:class:`ScanServer` and stop it gracefully.  These tests pin what only
a child process shows: the saved model reloads in another interpreter
into the same verdicts and config token, and a daemon SIGKILLed
mid-batch loses no verdict once a successor binds the same socket.

Every child is killed and reaped in a ``finally`` block, so a failing
assertion leaves no ``repro serve`` process behind.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import SCALE_PRESETS, SEVulDet
from repro.core.ipc import RetryPolicy, ScanClient
from repro.core.serve import ScanService
from repro.datasets.sard import generate_sard_corpus
from repro.testing import faults

SRC = Path(__file__).resolve().parents[2] / "src"

#: seconds a daemon may take to answer its first ping
BOOT_TIMEOUT = 60.0

#: spans a successor's boot: ~20 s of capped backoff
RETRY = RetryPolicy(attempts=40, base_delay=0.05, max_delay=0.5,
                    jitter=0.0)


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SCALE_PRESETS["small"], seed=5)
    det.fit(generate_sard_corpus(24, seed=7))
    return det


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(12, seed=99)


@pytest.fixture(scope="module")
def model_path(detector, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.npz"
    detector.save(path)
    return path


@pytest.fixture(scope="module")
def oracle(detector, corpus):
    """In-process service records for what the daemon reconstructs
    from a wire request (labels never cross the protocol)."""
    stripped = [replace(case, vulnerable=False,
                        vulnerable_lines=frozenset(), cwe="",
                        category="", origin="serve")
                for case in corpus]
    with ScanService(detector, workers=2, batch_size=16) as service:
        return [v.as_record() for v in service.scan_cases(stripped)]


def scan_requests(cases):
    return [{"name": case.name, "source": case.source}
            for case in cases]


@pytest.fixture
def spawn(model_path, tmp_path):
    """Start ``repro serve`` children; kill and reap all of them."""
    children: list[subprocess.Popen] = []

    def start(socket_path: Path,
              fault_spec: str | None = None) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop(faults.ENV_VAR, None)
        if fault_spec:
            env[faults.ENV_VAR] = fault_spec
        log = tmp_path / f"daemon{len(children)}.log"
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--model", str(model_path),
                 "--socket", str(socket_path),
                 "--workers", "2", "--batch-size", "16"],
                env=env, stdout=out, stderr=subprocess.STDOUT)
        children.append(proc)
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(f"daemon exited early:\n{log.read_text()}")
            try:
                with ScanClient(str(socket_path), timeout=5,
                                retry=None) as probe:
                    if probe.ping().get("status") == "ok":
                        return proc
            except OSError:
                time.sleep(0.05)
        pytest.fail(f"daemon did not answer within {BOOT_TIMEOUT}s")

    try:
        yield start
    finally:
        for proc in children:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)


def test_daemon_matches_in_process_service(detector, corpus, oracle,
                                           spawn, tmp_path):
    socket_path = tmp_path / "scan.sock"
    spawn(socket_path)
    with ScanClient(str(socket_path), timeout=60,
                    retry=None) as client:
        responses = client.scan_batch(scan_requests(corpus))
    assert [r["status"] for r in responses] == ["ok"] * len(corpus)
    assert [r["verdict"] for r in responses] == oracle
    assert {r["config_token"] for r in responses} == \
        {detector.config_token()}


def test_sigkill_mid_batch_then_successor(corpus, oracle, spawn,
                                         tmp_path):
    socket_path = tmp_path / "scan.sock"
    address = str(socket_path)
    # case #2 hangs far past the kill, so the batch is in flight
    first = spawn(socket_path, fault_spec="hang@case:#2:60")
    with ScanClient(address, timeout=10, retry=None) as probe:
        baseline = probe.stats()["server"]["requests"]
    outcome = {}

    def run_client():
        with ScanClient(address, timeout=60, retry=RETRY) as client:
            outcome["responses"] = client.scan_batch(
                scan_requests(corpus))
            outcome["reconnects"] = client.reconnects

    worker = threading.Thread(target=run_client, daemon=True)
    worker.start()
    # wait until the daemon has read every scan request; each stats
    # probe counts itself as one request too
    deadline = time.monotonic() + 30
    with ScanClient(address, timeout=10, retry=None) as probe:
        polls = 0
        while True:
            polls += 1
            read = probe.stats()["server"]["requests"] - baseline - polls
            if read >= len(corpus) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
    assert read >= len(corpus)
    first.send_signal(signal.SIGKILL)
    first.wait(timeout=30)
    spawn(socket_path)
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert "responses" in outcome, "the client gave up reconnecting"
    responses = outcome["responses"]
    assert [r["status"] for r in responses] == ["ok"] * len(corpus)
    assert [r["verdict"] for r in responses] == oracle
    assert outcome["reconnects"] >= 1
