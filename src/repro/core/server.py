"""Always-on scan server: the batched scan service behind a socket.

:class:`~repro.core.serve.ScanService` amortizes model load and
batches scoring *within one process*; this module keeps that process
alive and shares it between any number of clients, so editor
integrations and CI gates pay the model load exactly once per model,
not once per invocation:

* **Front door** — a listener thread accepts unix-domain or TCP
  connections; one reader thread per connection parses JSONL requests
  (:mod:`repro.core.ipc`).  Non-scan ops (``ping``, ``stats``,
  ``reload``, ``shutdown``) are answered inline.
* **Admission control** — each connection gets a bounded in-flight
  budget (``max_pending``).  A scan arriving over budget is answered
  immediately with a ``shed`` status instead of queueing without
  bound: the client learns *now* that it should back off, and one
  greedy client cannot wedge the server for everyone else.
* **Fairness** — admitted scans wait in per-client queues; the
  scheduler drains clients round-robin, one request per turn, so a
  client pipelining 500 files and a client scanning one file both
  make progress.
* **Scoring** — dispatcher threads collect up to ``dispatch_batch``
  admitted requests and hand them to the service as one
  ``scan_cases`` call, which extracts across the batch and feeds the
  shared micro-batching :class:`~repro.core.serve.ThreadScorer` —
  this is where the one-file-per-process CLI's ~4%-full batches
  become full ones.
* **Hot reload** — ``reload`` builds a completely new service (new
  detector, new scorer threads) and atomically swaps it in.
  In-flight scans finish on the service that admitted them; requests
  dispatched after the swap score on the new one.
  Every scan response carries the ``config_token`` of the service
  that actually scored it, and the verdict cache is keyed by that
  token, so a reload can neither drop a request nor serve a verdict
  computed under a different configuration than the one it reports.
* **Verdict cache** — one :class:`~repro.core.serve.ResultCache`
  owned by the *server* and passed to every service generation, so
  verdicts survive reloads (token-keyed).
* **Robustness** — a ``health`` op reports ``ready`` / ``draining``;
  shed responses carry a ``retry_after_ms`` hint; scans may carry a
  ``deadline_ms`` budget and are answered ``expired`` instead of
  scored late; ``stop()`` answers queued scans with ``shed`` so
  retrying clients resubmit to the server's successor instead of
  failing.

Verdict payloads are exactly ``CaseVerdict.as_record()`` — the same
bytes the offline ``scan`` command writes to ``--jsonl`` — and are
byte-identical to serial ``detector.detect_case`` results, a property
pinned end-to-end by ``tests/core/test_server.py``.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from pathlib import Path

from ..datasets.manifest import TestCase
from ..testing import faults
from .detector import SEVulDet
from .ipc import (ProtocolError, encode_message, read_message)
from .serve import ResultCache, ScanService
from .telemetry import Telemetry

__all__ = ["ScanServer", "DEFAULT_SOCKET"]

#: Default unix socket path segment (under the user's tmp dir).
DEFAULT_SOCKET = "repro-scan.sock"


class _ServiceHandle:
    """Refcounted wrapper so hot reload can retire a service safely.

    Dispatchers ``acquire()`` before scanning and ``release()`` after;
    ``retire()`` marks the generation dead and the last release closes
    the underlying service (joining its scorer threads).  In-flight
    scans therefore always finish on the weights they started with.
    """

    def __init__(self, service: ScanService):
        self.service = service
        self._lock = threading.Lock()
        self._refs = 0
        self._retired = False

    def acquire(self) -> ScanService:
        with self._lock:
            self._refs += 1
            return self.service

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            close_now = self._retired and self._refs == 0
        if close_now:
            self.service.close()

    def retire(self) -> None:
        with self._lock:
            self._retired = True
            close_now = self._refs == 0
        if close_now:
            self.service.close()


class _Client:
    """One connection's state: socket, write lock, fair-share queue."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.id = next(self._ids)
        self.wlock = threading.Lock()
        self.queue: deque[_Request] = deque()
        self.queued = False  # present in the scheduler's ready ring
        self.inflight = 0  # admitted scans not yet answered
        self.closed = False

    def send(self, message: dict) -> bool:
        try:
            with self.wlock:
                self.conn.sendall(encode_message(message))
            return True
        except OSError:
            self.closed = True
            return False


class _Request:
    __slots__ = ("client", "request_id", "case", "admitted_at",
                 "deadline_s")

    def __init__(self, client: _Client, request_id: str,
                 case: TestCase, deadline_s: float | None = None):
        self.client = client
        self.request_id = request_id
        self.case = case
        self.admitted_at = time.monotonic()
        #: absolute monotonic deadline, or None for no limit
        self.deadline_s = deadline_s

    def expired(self, now: float) -> bool:
        return self.deadline_s is not None and now > self.deadline_s


class ScanServer:
    """Long-lived, multi-client scan daemon over a trained detector.

    Usage (in-process; the CLI wraps this in ``repro serve``)::

        server = ScanServer(model="detector.npz",
                            socket_path="/tmp/scan.sock")
        server.start()
        ...
        server.stop()

    Exactly one of ``socket_path`` (unix domain) or ``host``/``port``
    (TCP, ``port=0`` picks a free port) selects the transport;
    :attr:`address` is the dialable address after :meth:`start`.
    """

    def __init__(self, model: str | Path | None = None, *,
                 detector: SEVulDet | None = None,
                 scale=None, threshold: float | None = None,
                 socket_path: str | Path | None = None,
                 host: str | None = None, port: int = 0,
                 workers: int = 2, batch_size: int = 64,
                 max_pending: int = 64, dispatchers: int = 2,
                 dispatch_batch: int = 16,
                 cache_capacity: int = 4096,
                 telemetry: Telemetry | None = None):
        if model is None and detector is None:
            raise ValueError("need a model path or a detector")
        if socket_path is not None and host is not None:
            raise ValueError("choose unix socket_path OR tcp host")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        self.model_path = None if model is None else Path(model)
        self._initial_detector = detector
        self._scale = scale
        self._threshold = threshold
        self._socket_path = (None if socket_path is None
                             else Path(socket_path))
        self._host = host
        self._port = port
        self.workers = workers
        self.batch_size = batch_size
        self.max_pending = max_pending
        self.dispatch_batch = max(1, dispatch_batch)
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry())
        self.results = ResultCache(cache_capacity)
        self._handle: _ServiceHandle | None = None
        self._service_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        # Scheduler state: every queue/ready/inflight mutation happens
        # under this condition's lock.
        self._cond = threading.Condition()
        self._ready: deque[_Client] = deque()
        self._clients: set[_Client] = set()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._dispatcher_count = dispatchers
        self._stopping = False
        self._started = False
        self._stopped = threading.Event()
        self.address: str | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ScanServer":
        """Load the model, bind the socket, spin up the threads."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        detector = (self._initial_detector
                    if self._initial_detector is not None
                    else self._load_detector(self.model_path))
        self._handle = _ServiceHandle(self._build_service(detector))
        self._listener = self._bind()
        self._threads = [
            threading.Thread(target=self._accept_loop, daemon=True,
                             name="scan-server-accept"),
            *[threading.Thread(target=self._dispatch_loop,
                               daemon=True,
                               name=f"scan-server-dispatch-{i}")
              for i in range(self._dispatcher_count)],
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, fail queued scans, close the service."""
        with self._cond:
            if self._stopping:
                return
            self._stopping = True
            pending = []
            while self._ready:
                client = self._ready.popleft()
                client.queued = False
                pending.extend(client.queue)
                client.queue.clear()
            clients = list(self._clients)
            self._cond.notify_all()
        for request in pending:  # answer, never silently drop
            # shed (not error): a retrying client treats this as
            # backpressure and resubmits — to this server's successor
            # after a restart, or elsewhere — instead of failing the
            # scan outright
            request.client.send({"id": request.request_id,
                                 "status": "shed",
                                 "error": "server shutting down",
                                 "retry_after_ms": 200})
        if self._listener is not None:
            # shutdown() before close(): closing a listener does not
            # wake a thread blocked in accept() on Linux, so without
            # it every stop() stalls for the full join timeout and
            # leaks the accept thread
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for client in clients:
            self._drop_client(client)
        for thread in self._threads:
            thread.join(timeout=10.0)
        with self._service_lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.retire()
        if self._socket_path is not None:
            try:
                self._socket_path.unlink()
            except OSError:
                pass
        self._stopped.set()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` runs (CLI foreground mode)."""
        self._stopped.wait()

    def __enter__(self) -> "ScanServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- setup ---------------------------------------------------------------

    def _load_detector(self, model: Path | None) -> SEVulDet:
        if model is None:
            raise ValueError("no model path to (re)load from")
        detector = SEVulDet(scale=self._scale)
        detector.load(model)
        if self._threshold is not None:
            detector.threshold = self._threshold
        return detector

    def _build_service(self, detector: SEVulDet) -> ScanService:
        return ScanService(detector, workers=self.workers,
                           batch_size=self.batch_size,
                           result_cache=self.results,
                           telemetry=self.telemetry)

    def _bind(self) -> socket.socket:
        if self._socket_path is not None:
            path = self._socket_path
            if path.exists():
                # a previous server's leftover; connecting would have
                # succeeded if it were alive, so reclaim the name
                path.unlink()
            listener = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
            listener.bind(str(path))
            self.address = str(path)
        else:
            listener = socket.socket(socket.AF_INET,
                                     socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET,
                                socket.SO_REUSEADDR, 1)
            listener.bind((self._host or "127.0.0.1", self._port))
            host, port = listener.getsockname()[:2]
            self.address = f"{host}:{port}"
        listener.listen(128)
        return listener

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed by stop()
                return
            client = _Client(conn)
            with self._cond:
                if self._stopping:
                    self._drop_client(client)
                    return
                self._clients.add(client)
            thread = threading.Thread(
                target=self._reader_loop, args=(client,), daemon=True,
                name=f"scan-server-client-{client.id}")
            thread.start()

    def _reader_loop(self, client: _Client) -> None:
        reader = client.conn.makefile("rb")
        try:
            while not self._stopping:
                try:
                    message = read_message(reader)
                except (ProtocolError, OSError) as error:
                    if isinstance(error, ProtocolError):
                        client.send({"status": "error",
                                     "error": str(error)})
                    return
                if message is None:  # client hung up
                    return
                # chaos site: sever this connection as if the network
                # (or a proxy) dropped it mid-stream
                if faults.should_drop("server-conn", str(client.id)):
                    self.telemetry.count("server_conn_drops")
                    return
                self.telemetry.count("server_requests")
                self._handle_message(client, message)
        finally:
            reader.close()
            self._drop_client(client)

    def _drop_client(self, client: _Client) -> None:
        with self._cond:
            client.closed = True
            self._clients.discard(client)
            if client.queued:
                try:
                    self._ready.remove(client)
                except ValueError:  # pragma: no cover
                    pass
                client.queued = False
            client.queue.clear()
        # shutdown() does the actual severing: close() alone is
        # deferred while the reader thread's makefile() still holds a
        # reference to the socket, so a "dropped" client would keep
        # receiving responses and its blocked reader would never wake
        try:
            client.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            client.conn.close()
        except OSError:  # pragma: no cover
            pass

    # -- request handling ----------------------------------------------------

    def _handle_message(self, client: _Client,
                        message: dict) -> None:
        op = message.get("op")
        if op == "scan":
            self._admit_scan(client, message)
        elif op == "ping":
            client.send({"op": "ping", "status": "ok",
                         "config_token": self._config_token()})
        elif op == "health":
            client.send({"op": "health", "status": "ok",
                         **self.health()})
        elif op == "stats":
            client.send({"op": "stats", "status": "ok",
                         **self.stats()})
        elif op == "reload":
            self._handle_reload(client, message)
        elif op == "shutdown":
            client.send({"op": "shutdown", "status": "ok"})
            self.telemetry.count("server_shutdowns")
            # stop() joins the reader threads; run it elsewhere
            threading.Thread(target=self.stop, daemon=True,
                             name="scan-server-stop").start()
        else:
            self.telemetry.count("server_errors")
            client.send({"id": message.get("id"), "status": "error",
                         "error": f"unknown op {op!r}"})

    def _admit_scan(self, client: _Client, message: dict) -> None:
        request_id = str(message.get("id", ""))
        name = message.get("name")
        source = message.get("source")
        if not isinstance(name, str) or not isinstance(source, str):
            self.telemetry.count("server_errors")
            client.send({"id": request_id, "status": "error",
                         "error": "scan needs string 'name' and "
                                  "'source' fields"})
            return
        case = TestCase(name=name, source=source, vulnerable=False,
                        vulnerable_lines=frozenset(), cwe="",
                        category="", origin="serve")
        deadline_s = None
        deadline_ms = message.get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) and deadline_ms > 0:
            deadline_s = time.monotonic() + deadline_ms / 1000.0
        request = _Request(client, request_id, case,
                           deadline_s=deadline_s)
        # chaos site: refuse this admission as if the server were
        # saturated (shed storm)
        forced_shed = faults.should_drop("server-admit", name)
        with self._cond:
            if self._stopping:
                shed_reason = "server shutting down"
            elif forced_shed:
                shed_reason = "server overloaded; back off and retry"
            elif client.inflight >= self.max_pending:
                shed_reason = (f"client over its in-flight budget "
                               f"({self.max_pending}); back off and "
                               f"retry")
            else:
                shed_reason = None
                client.inflight += 1
                client.queue.append(request)
                if not client.queued:
                    client.queued = True
                    self._ready.append(client)
                self._cond.notify()
            inflight = client.inflight
        if shed_reason is not None:
            self.telemetry.count("server_shed")
            client.send({"id": request_id, "status": "shed",
                         "error": shed_reason,
                         "retry_after_ms": self._retry_after_ms(
                             inflight)})

    def _retry_after_ms(self, inflight: int) -> int:
        """Backpressure hint for shed responses: grows with how far
        over budget the client is, so retry waves spread out instead
        of slamming the server again in lockstep."""
        pressure = min(2.0, inflight / max(1, self.max_pending))
        return int(50 + 200 * pressure)

    # -- scheduling + scoring ------------------------------------------------

    def _next_batch(self) -> list[_Request] | None:
        """Round-robin batch: one request per ready client per turn,
        up to ``dispatch_batch``; None when the server is stopping."""
        with self._cond:
            while not self._ready:
                if self._stopping:
                    return None
                self._cond.wait(timeout=0.2)
            batch: list[_Request] = []
            while self._ready and len(batch) < self.dispatch_batch:
                client = self._ready.popleft()
                batch.append(client.queue.popleft())
                if client.queue:
                    self._ready.append(client)  # back of the ring
                else:
                    client.queued = False
            return batch

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            now = time.monotonic()
            expired = [r for r in batch if r.expired(now)]
            if expired:
                # answer, never silently drop: the client asked for a
                # bounded wait and gets a definitive non-verdict
                self.telemetry.count("server_deadline_expired",
                                     len(expired))
                for request in expired:
                    self._finish(request, {
                        "id": request.request_id,
                        "status": "expired",
                        "error": "deadline expired before dispatch"})
                batch = [r for r in batch if not r.expired(now)]
                if not batch:
                    continue
            started = time.perf_counter()
            with self._service_lock:
                handle = self._handle
                service = handle.acquire()
            try:
                token = service.config_token
                try:
                    verdicts = service.scan_cases(
                        [request.case for request in batch])
                    failure = None
                except Exception as error:
                    verdicts = []
                    failure = f"{type(error).__name__}: {error}"
            finally:
                handle.release()
            self.telemetry.observe("server_batch_cases", len(batch))
            self.telemetry.add_stage(
                "server_dispatch", time.perf_counter() - started)
            if failure is not None:
                self.telemetry.count("server_errors", len(batch))
                for request in batch:
                    self._finish(request, {
                        "id": request.request_id, "status": "error",
                        "error": failure})
                continue
            self.telemetry.count("server_scans", len(batch))
            for request, verdict in zip(batch, verdicts):
                self._finish(request, {
                    "id": request.request_id, "status": "ok",
                    "config_token": token,
                    "cached": verdict.cached,
                    "verdict": verdict.as_record()})

    def _finish(self, request: _Request, response: dict) -> None:
        request.client.send(response)
        with self._cond:
            request.client.inflight -= 1

    # -- reload + introspection ----------------------------------------------

    def _config_token(self) -> str | None:
        with self._service_lock:
            handle = self._handle
        return None if handle is None else handle.service.config_token

    def _handle_reload(self, client: _Client, message: dict) -> None:
        model = message.get("model")
        try:
            token = self.reload(model)
        except Exception as error:
            self.telemetry.count("server_errors")
            client.send({"op": "reload", "status": "error",
                         "error": f"{type(error).__name__}: {error}"})
            return
        client.send({"op": "reload", "status": "ok",
                     "config_token": token})

    def reload(self, model: str | Path | None = None) -> str:
        """Swap in a freshly loaded model; returns its config token.

        The new service (detector, scorer threads) is fully built
        *before* the swap, so the scan path never waits on a model
        load; the old service keeps scoring its in-flight batches and
        is closed by the last dispatcher to release it.  Requests
        still queued at swap time score on the new service — nothing
        is dropped, and every response names the token that scored
        it.
        """
        with self._reload_lock:  # serialize concurrent reloads only
            if model is not None:
                self.model_path = Path(model)
            detector = self._load_detector(self.model_path)
            fresh = _ServiceHandle(self._build_service(detector))
            with self._service_lock:
                old, self._handle = self._handle, fresh
            if old is not None:
                old.retire()
            self.telemetry.count("server_reloads")
            return fresh.service.config_token

    def health(self) -> dict:
        """The ``health`` op's payload: ``draining`` while stopping,
        otherwise the service's own health (``ready``)."""
        with self._service_lock:
            handle = self._handle
        if self._stopping or handle is None:
            return {"health": "draining"}
        return {"health": handle.service.health()["status"]}

    def stats(self) -> dict:
        """Server- and service-level statistics (the ``stats`` op)."""
        with self._service_lock:
            handle = self._handle
        with self._cond:
            clients = len(self._clients)
            queued = sum(len(c.queue) for c in self._clients)
        return {
            "server": {
                "address": self.address,
                "clients": clients,
                "queued": queued,
                "health": self.health()["health"],
                "config_token": (None if handle is None
                                 else handle.service.config_token),
                "requests": self.telemetry.get("server_requests"),
                "scans": self.telemetry.get("server_scans"),
                "shed": self.telemetry.get("server_shed"),
                "errors": self.telemetry.get("server_errors"),
                "reloads": self.telemetry.get("server_reloads"),
                "deadline_expired":
                    self.telemetry.get("server_deadline_expired"),
                "conn_drops":
                    self.telemetry.get("server_conn_drops"),
                "batch_cases": self.telemetry.observation_stats(
                    "server_batch_cases"),
            },
            "service": (None if handle is None
                        else handle.service.stats()),
        }
