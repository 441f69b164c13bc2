"""End-to-end tests for the always-on scan server.

Everything runs in-process: a real :class:`ScanServer` bound to a
unix socket under ``tmp_path``, real :class:`ScanClient` connections,
real threads.

The load-bearing properties:

* the JSONL protocol round-trips and rejects malformed input;
* concurrent pipelining clients each get responses matched to their
  request ids, byte-identical to what the in-process scan service
  (and therefore serial ``detect_case``) produces;
* a client over its in-flight budget is shed immediately with a
  ``shed`` status while admitted requests still complete;
* the round-robin scheduler keeps a one-file client from starving
  behind a 12-file pipeliner;
* hot reload swaps the model with zero dropped requests and every
  response naming the ``config_token`` that actually scored it.
"""

import io
import threading
import time
from dataclasses import replace

import pytest

from repro.core import SCALE_PRESETS, SEVulDet
from repro.core.ipc import (ProtocolError, ScanClient,
                            _split_hostport, decode_message,
                            encode_message, read_message)
from repro.core.serve import ScanService
from repro.core.server import ScanServer
from tests.core.test_serve import DISTINCT_SOURCE, TWIN_SOURCE
from repro.datasets.sard import generate_sard_corpus
from repro.testing import faults


@pytest.fixture(scope="module")
def detector():
    det = SEVulDet(scale=SCALE_PRESETS["small"], seed=3)
    det.fit(generate_sard_corpus(80, seed=31))
    return det


@pytest.fixture(scope="module")
def corpus():
    return generate_sard_corpus(20, seed=99)


def as_scan_case(case):
    """What the server reconstructs from a wire request: name and
    source only — labels never cross the protocol (and never affect
    verdicts; they only shift the fingerprint)."""
    return replace(case, vulnerable=False,
                   vulnerable_lines=frozenset(), cwe="", category="",
                   origin="serve")


@pytest.fixture(scope="module")
def expected_records(detector, corpus):
    """Reference verdicts from the in-process service — pinned
    byte-identical to serial ``detect_case`` by test_serve.py."""
    with ScanService(detector, workers=2, batch_size=16) as service:
        return [v.as_record() for v in service.scan_cases(
            [as_scan_case(case) for case in corpus])]


@pytest.fixture(scope="module")
def model_paths(detector, tmp_path_factory):
    """Two saved models whose config tokens differ (threshold)."""
    root = tmp_path_factory.mktemp("models")
    path_a = root / "model_a.npz"
    path_b = root / "model_b.npz"
    detector.save(path_a)
    original = detector.threshold
    detector.threshold = 0.5
    try:
        detector.save(path_b)
    finally:
        detector.threshold = original
    return path_a, path_b


def make_server(tmp_path, *, detector=None, model=None, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("batch_size", 16)
    return ScanServer(model=model, detector=detector,
                      socket_path=tmp_path / "scan.sock", **kwargs)


def scan_requests(cases):
    return [{"name": case.name, "source": case.source}
            for case in cases]


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "scan", "id": "7", "name": "a.c",
                   "source": "int main() { return 0; }\n"}
        line = encode_message(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_message(line) == message

    def test_read_message_streams_lines(self):
        buffer = io.BytesIO(encode_message({"a": 1})
                            + encode_message({"b": 2}))
        assert read_message(buffer) == {"a": 1}
        assert read_message(buffer) == {"b": 2}
        assert read_message(buffer) is None  # EOF

    def test_rejects_non_object_and_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")

    def test_rejects_truncated_line(self):
        with pytest.raises(ProtocolError, match="mid-message"):
            read_message(io.BytesIO(b'{"op": "ping"'))

    def test_address_parsing(self):
        assert _split_hostport("/tmp/scan.sock") == (None, 0)
        assert _split_hostport("./sock:odd/name") == (None, 0)
        assert _split_hostport("127.0.0.1:9000") == \
            ("127.0.0.1", 9000)
        assert _split_hostport("[::1]:9000") == ("::1", 9000)

    def test_unknown_op_answered_with_error(self, detector,
                                            tmp_path):
        with make_server(tmp_path, detector=detector) as server:
            with ScanClient(server.address) as client:
                response = client.request({"op": "frobnicate",
                                           "id": "9"})
        assert response["status"] == "error"
        assert "frobnicate" in response["error"]
        assert response["id"] == "9"

    def test_malformed_scan_rejected(self, detector, tmp_path):
        with make_server(tmp_path, detector=detector) as server:
            with ScanClient(server.address) as client:
                response = client.request({"op": "scan", "id": "1",
                                           "name": "x.c"})
        assert response["status"] == "error"
        assert "source" in response["error"]


class TestServerVerdicts:
    def test_pipelined_scan_matches_serial_verdicts(
            self, detector, corpus, expected_records, tmp_path):
        with make_server(tmp_path, detector=detector) as server:
            with ScanClient(server.address) as client:
                assert client.ping()["status"] == "ok"
                responses = client.scan_batch(scan_requests(corpus))
        assert [r["status"] for r in responses] == \
            ["ok"] * len(corpus)
        token = detector.config_token()
        assert all(r["config_token"] == token for r in responses)
        assert [r["verdict"] for r in responses] == expected_records

    def test_concurrent_clients_get_their_own_answers(
            self, detector, corpus, expected_records, tmp_path):
        with make_server(tmp_path, detector=detector,
                         dispatchers=2) as server:
            outcomes = [None] * 4

            def run(slot):
                with ScanClient(server.address) as client:
                    outcomes[slot] = client.scan_batch(
                        scan_requests(corpus))

            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        for responses in outcomes:
            assert responses is not None
            # submission-order ids, byte-identical verdicts
            assert [r["id"] for r in responses] == \
                [str(i) for i in range(len(corpus))]
            assert [r["verdict"] for r in responses] == \
                expected_records

    def test_stats_op_reports_server_and_service(self, detector,
                                                 corpus, tmp_path):
        with make_server(tmp_path, detector=detector) as server:
            with ScanClient(server.address) as client:
                client.scan_batch(scan_requests(corpus[:5]))
                stats = client.stats()
        assert stats["status"] == "ok"
        assert stats["server"]["scans"] == 5
        assert stats["server"]["shed"] == 0
        assert stats["server"]["health"] == "ready"
        assert stats["server"]["config_token"] == \
            detector.config_token()
        assert stats["service"]["scored_gadgets"] > 0

    @pytest.mark.parametrize("source,repeats", [
        (TWIN_SOURCE, True), (DISTINCT_SOURCE, False)],
        ids=["repeated", "distinct"])
    def test_stats_op_counts_distinct_rows(self, detector, tmp_path,
                                           source, repeats):
        with make_server(tmp_path, detector=detector) as server:
            with ScanClient(server.address) as client:
                client.scan_batch([{"name": "s.c", "source": source}])
                service = client.stats()["service"]
        assert service["scored_gadgets"] == 2
        if repeats:
            assert service["scored_rows"] < service["scored_gadgets"]
        else:
            assert service["scored_rows"] == service["scored_gadgets"]

    def test_tcp_transport(self, detector, corpus, expected_records):
        server = ScanServer(detector=detector, host="127.0.0.1",
                            port=0, workers=1,
                            batch_size=16)
        with server:
            host, port = server.address.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            with ScanClient(server.address) as client:
                responses = client.scan_batch(
                    scan_requests(corpus[:3]))
        assert [r["verdict"] for r in responses] == \
            expected_records[:3]


class TestAdmissionControl:
    def test_overload_sheds_instead_of_queueing(self, detector,
                                                corpus, tmp_path):
        slow = corpus[0]
        with make_server(tmp_path, detector=detector,
                         max_pending=2, dispatchers=1,
                         workers=1) as server:
            with faults.injected(f"hang@case:{slow.name}:4"):
                # retry=None: this test pins the raw shed responses,
                # not the default self-healing retry behavior
                with ScanClient(server.address,
                                retry=None) as client:
                    # the slow case wedges the only dispatcher; the
                    # pipelined rest exceeds the in-flight budget
                    responses = client.scan_batch(
                        scan_requests([slow] + corpus[1:10]))
                    stats = client.stats()
        statuses = [r["status"] for r in responses]
        assert statuses.count("ok") == 2
        assert statuses.count("shed") == 8
        # the budget admits in arrival order: slow + one more
        assert statuses[0] == "ok" and statuses[1] == "ok"
        assert all("budget" in r["error"] for r in responses
                   if r["status"] == "shed")
        assert stats["server"]["shed"] == 8
        assert stats["server"]["scans"] == 2

    def test_round_robin_keeps_small_client_unstarved(
            self, detector, corpus, tmp_path):
        slow = corpus[0]
        with make_server(tmp_path, detector=detector,
                         dispatchers=1, workers=1,
                         dispatch_batch=4,
                         max_pending=64) as server:
            with faults.injected(f"hang@case:{slow.name}:3"):
                big = ScanClient(server.address)
                small = ScanClient(server.address)
                try:
                    # wedge the dispatcher, then pile 12 requests on
                    # one connection and a single request on another
                    big.send({"op": "scan", "id": "slow",
                              "name": slow.name,
                              "source": slow.source})
                    time.sleep(0.5)  # dispatcher has taken the bait
                    for index, case in enumerate(corpus[1:13]):
                        big.send({"op": "scan", "id": str(index),
                                  "name": case.name,
                                  "source": case.source})
                    small.send({"op": "scan", "id": "tiny",
                                "name": corpus[13].name,
                                "source": corpus[13].source})
                    small_done = {}

                    def read_small():
                        response = small.receive()
                        small_done["at"] = time.perf_counter()
                        small_done["response"] = response

                    reader = threading.Thread(target=read_small)
                    reader.start()
                    big_last_at = None
                    for _ in range(13):
                        response = big.receive()
                        assert response["status"] == "ok"
                        big_last_at = time.perf_counter()
                    reader.join(timeout=30.0)
                finally:
                    big.close()
                    small.close()
        assert small_done["response"]["status"] == "ok"
        # one request per client per scheduler turn: the small client
        # rides the first post-wedge batch, never the last
        assert small_done["at"] < big_last_at


class TestHotReload:
    def test_reload_swaps_config_token(self, corpus, model_paths,
                                       tmp_path):
        model_a, model_b = model_paths
        with make_server(tmp_path, model=model_a) as server:
            with ScanClient(server.address) as client:
                before = client.scan_batch(scan_requests(corpus[:3]))
                token_a = before[0]["config_token"]
                reply = client.reload(model_b)
                assert reply["status"] == "ok"
                token_b = reply["config_token"]
                after = client.scan_batch(scan_requests(corpus[:3]))
        assert token_a != token_b
        assert all(r["config_token"] == token_a for r in before)
        assert all(r["config_token"] == token_b for r in after)
        assert all(r["status"] == "ok" for r in before + after)

    def test_inflight_completes_on_old_model_nothing_dropped(
            self, corpus, model_paths, tmp_path):
        """Requests in flight at swap time finish on the weights that
        admitted them; requests dispatched after score on the new
        model — and every one of them is answered."""
        model_a, model_b = model_paths
        slow = corpus[0]
        follow = corpus[1]
        with make_server(tmp_path, model=model_a, dispatchers=1,
                         workers=1) as server:
            token_a = server.stats()["server"]["config_token"]
            with faults.injected(f"hang@case:{slow.name}:5"):
                with ScanClient(server.address) as scans, \
                        ScanClient(server.address) as admin:
                    scans.send({"op": "scan", "id": "old",
                                "name": slow.name,
                                "source": slow.source})
                    time.sleep(0.5)  # dispatcher holds the old model
                    scans.send({"op": "scan", "id": "new",
                                "name": follow.name,
                                "source": follow.source})
                    reply = admin.reload(model_b)
                    assert reply["status"] == "ok"
                    token_b = reply["config_token"]
                    responses = {}
                    for _ in range(2):
                        response = scans.receive()
                        responses[response["id"]] = response
        assert set(responses) == {"old", "new"}  # zero dropped
        assert responses["old"]["status"] == "ok"
        assert responses["new"]["status"] == "ok"
        # the wedged scan was admitted before the swap and finished
        # on the old weights; the queued one scored on the new model
        assert responses["old"]["config_token"] == token_a
        assert responses["new"]["config_token"] == token_b
        assert token_a != token_b

    def test_reload_failure_keeps_old_service(self, corpus,
                                              model_paths, tmp_path):
        model_a, _ = model_paths
        with make_server(tmp_path, model=model_a) as server:
            with ScanClient(server.address) as client:
                token = client.ping()["config_token"]
                reply = client.reload(tmp_path / "missing.npz")
                assert reply["status"] == "error"
                assert client.ping()["config_token"] == token
                responses = client.scan_batch(
                    scan_requests(corpus[:2]))
        assert all(r["status"] == "ok" for r in responses)


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self, detector, tmp_path):
        server = make_server(tmp_path, detector=detector).start()
        with ScanClient(server.address) as client:
            assert client.shutdown()["status"] == "ok"
        server.serve_forever()  # returns once stop() completes
        with pytest.raises(OSError):
            ScanClient(server.address, retry=None)
        server.stop()  # idempotent

    def test_requires_model_or_detector(self):
        with pytest.raises(ValueError, match="model"):
            ScanServer()

    def test_cached_rescan_is_marked(self, detector, corpus,
                                     tmp_path):
        with make_server(tmp_path, detector=detector) as server:
            with ScanClient(server.address) as client:
                cold = client.scan_batch(scan_requests(corpus[:4]))
                warm = client.scan_batch(scan_requests(corpus[:4]))
        assert all(not r["cached"] for r in cold)
        assert all(r["cached"] for r in warm)
        assert [r["verdict"] for r in warm] == \
            [r["verdict"] for r in cold]

    def test_duplicate_sources_under_different_names(
            self, detector, corpus, tmp_path):
        """Same source under two names must yield two verdicts with
        their own names (fingerprints differ by name)."""
        twin = replace(corpus[0], name=corpus[0].name + ".copy")
        with make_server(tmp_path, detector=detector) as server:
            with ScanClient(server.address) as client:
                responses = client.scan_batch(
                    scan_requests([corpus[0], twin]))
        first, second = (r["verdict"] for r in responses)
        assert first["name"] == corpus[0].name
        assert second["name"] == twin.name
        assert first["findings"] == second["findings"]
