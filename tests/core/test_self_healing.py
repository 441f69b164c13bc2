"""Self-healing serving layer: retrying clients, health, deadlines.

The contract pinned here (deterministically, via ``REPRO_FAULTS``): a
:class:`ScanClient` with the default :class:`RetryPolicy` survives
dropped connections, admission shed-storms, and a full server restart
mid-``scan_batch`` without losing (or duplicating) a single verdict.
"""

import threading
import time
from dataclasses import replace

import pytest

from repro.core import SCALE_PRESETS, SEVulDet
from repro.core.ipc import RetryPolicy, ScanClient
from repro.core.serve import ScanService
from repro.core.server import ScanServer
from repro.datasets.sard import generate_sard_corpus
from repro.testing import faults

# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SCALE_PRESETS["small"], seed=5)
    det.fit(generate_sard_corpus(24, seed=7))
    return det


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(12, seed=99)


def as_scan_case(case):
    """What the server reconstructs from a wire request (labels never
    cross the protocol)."""
    return replace(case, vulnerable=False,
                   vulnerable_lines=frozenset(), cwe="", category="",
                   origin="serve")


@pytest.fixture(scope="module")
def expected_records(detector, corpus):
    with ScanService(detector, workers=2, batch_size=16) as service:
        return [v.as_record() for v in service.scan_cases(
            [as_scan_case(case) for case in corpus])]


def make_server(tmp_path, detector, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("batch_size", 16)
    return ScanServer(detector=detector,
                      socket_path=tmp_path / "scan.sock", **kwargs)


def scan_requests(cases):
    return [{"name": case.name, "source": case.source}
            for case in cases]


# -- retrying client vs a chaotic server ---------------------------------------

RETRY = RetryPolicy(attempts=10, base_delay=0.05, max_delay=0.5,
                    jitter=0.0)


class TestClientRetry:
    def test_conn_drop_mid_batch_is_transparent(
            self, detector, corpus, expected_records, tmp_path):
        # the server tears the connection down after reading the 2nd
        # message; the client must reconnect and resubmit every
        # unanswered id, and the merged verdicts must be complete
        with faults.injected("drop@server-conn:#2"):
            with make_server(tmp_path, detector) as server:
                with ScanClient(server.address,
                                retry=RETRY) as client:
                    responses = client.scan_batch(
                        scan_requests(corpus))
                    reconnects = client.reconnects
        assert [r["status"] for r in responses] == \
            ["ok"] * len(corpus)
        assert [r["verdict"] for r in responses] == expected_records
        assert reconnects >= 1

    def test_admission_shed_storm_is_retried(
            self, detector, corpus, expected_records, tmp_path):
        # admissions 2–4 are forcibly shed with a retry_after_ms hint;
        # the client honours it and every verdict still lands
        with faults.injected("drop@server-admit:#2-4"):
            with make_server(tmp_path, detector) as server:
                with ScanClient(server.address,
                                retry=RETRY) as client:
                    responses = client.scan_batch(
                        scan_requests(corpus))
                    shed_retried = client.shed_retried
        assert [r["status"] for r in responses] == \
            ["ok"] * len(corpus)
        assert [r["verdict"] for r in responses] == expected_records
        assert shed_retried >= 1

    def test_server_restart_mid_batch_loses_no_verdicts(
            self, detector, corpus, expected_records, tmp_path):
        # Satellite pin: the server dies mid-scan_batch and a
        # successor comes up on the same socket.  Queued requests are
        # shed (not errored) at shutdown, the dropped connection
        # triggers reconnect-with-backoff, unanswered ids are
        # resubmitted, and the final verdict set matches serial.
        socket_dir = tmp_path
        outcome = {}

        def run_client():
            with ScanClient(str(socket_dir / "scan.sock"),
                            retry=RETRY) as client:
                outcome["responses"] = client.scan_batch(
                    scan_requests(corpus))
                outcome["reconnects"] = client.reconnects

        # wedge the 2nd case extraction so the batch is provably
        # still in flight when the first server is stopped
        with faults.injected("hang@case:#2:1.0"):
            server = make_server(socket_dir, detector).start()
            try:
                worker = threading.Thread(target=run_client,
                                          daemon=True)
                worker.start()
                time.sleep(0.3)  # let the batch reach dispatch
            finally:
                server.stop()
            with make_server(socket_dir, detector):
                worker.join(timeout=60.0)
        assert not worker.is_alive()
        responses = outcome["responses"]
        assert [r["status"] for r in responses] == \
            ["ok"] * len(corpus)
        assert [r["verdict"] for r in responses] == expected_records
        assert outcome["reconnects"] >= 1

    def test_health_op_reports_server_state(self, detector, corpus,
                                            tmp_path):
        with make_server(tmp_path, detector) as server:
            with ScanClient(server.address, retry=RETRY) as client:
                health = client.health()
        assert health["status"] == "ok"
        assert health["health"] == "ready"

    def test_deadline_expired_before_dispatch(self, detector, corpus,
                                              tmp_path):
        # a request whose deadline passes while queued is answered
        # with status "expired" instead of being scored late
        with faults.injected("hang@case:#1:0.6"):
            with make_server(tmp_path, detector, dispatchers=1,
                             dispatch_batch=1) as server:
                with ScanClient(server.address,
                                retry=None) as client:
                    responses = client.scan_batch(
                        scan_requests(corpus), deadline_ms=250)
        statuses = {r["status"] for r in responses}
        assert "expired" in statuses
        expired = next(r for r in responses
                       if r["status"] == "expired")
        assert "deadline" in expired["error"]
