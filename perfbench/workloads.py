"""The four workloads: set-up, one operation, and the oracle check.

Each workload splits an operation into ``prepare`` (untimed: build or
write the operation's inputs), ``run`` (timed: the program call whose
latency is reported) and ``finish`` (untimed cleanup).  Verdicts of
every operation are kept and compared with a serial
:meth:`~repro.core.detector.SEVulDet.detect_case` oracle in
:meth:`Workload.verify`, after the timed loop: exactly, except for
scores, which match within :data:`SCORE_TOLERANCE`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core.cache import FunctionGadgetCache, GadgetCache
from repro.core.detector import SEVulDet
from repro.core.diffscan import DiffScanner
from repro.core.ipc import ScanClient
from repro.core.serve import ScanService, case_for_file
from repro.datasets.manifest import TestCase

from perfbench import inputs
from perfbench.refclock import RefClock, descendants, wait_gone

#: ``repro scan`` / ``repro serve`` defaults
SCAN_WORKERS = 2
BATCH_SIZE = 64
#: processes computing the oracle after the timed loop
ORACLE_WORKERS = 2
#: ``ping`` round trips whose median is ``server.ipc_ms``
PING_COUNT = 21
#: files per warm-up call: a set-up phase is normalized by the
#: references at its two ends, which track the host only over about
#: a slice's worth of work, so long warm-ups run as several calls
WARM_CHUNK = 4


#: Float32 scores are not bitwise reproducible across batch shapes:
#: the same gadget scored alone and inside a larger batch can differ
#: in the last bits, because the accumulation order depends on how many
#: rows share the batch.  Scores therefore match the oracle within 64
#: float32 epsilons plus the 1e-6 step of the records' 6-decimal
#: rounding.  Findings are ordered by score, so the same last-bit
#: differences can swap findings whose scores lie that close; only
#: their order within such a run of near-ties is free.  Every other
#: verdict field and every other order must match exactly, and both
#: kinds of difference are counted (``score_rounding_diffs``,
#: ``tie_order_diffs``).
SCORE_TOLERANCE = 64 * 2.0 ** -23 + 1e-6


def verdict(name: str, status: str, findings) -> tuple:
    """A verdict as the benchmark compares it: name, status and every
    finding (function, line, category, CWE hint, rounded score)."""
    return (name, status, tuple(
        (f["function"], f["line"], f["category"], f["cwe_hint"],
         round(f["score"], 6)) for f in findings))


def record_verdict(record: dict) -> tuple:
    return verdict(record["name"], record["status"], record["findings"])


def oracle_verdict(detector: SEVulDet, case: TestCase) -> tuple:
    """The serial oracle: one ``detect_case`` call."""
    findings = detector.detect_case(case)
    return verdict(case.name, "flagged" if findings else "clean",
                   [{"function": f.function, "line": f.line,
                     "category": f.category, "score": f.score,
                     "cwe_hint": f.cwe_hint} for f in findings])


def near_ties(findings: tuple) -> list[tuple]:
    """Split score-ordered findings into runs whose neighbouring scores
    lie within ``SCORE_TOLERANCE`` of each other."""
    runs: list[list] = []
    for finding in findings:
        if runs and abs(runs[-1][-1][4] - finding[4]) <= SCORE_TOLERANCE:
            runs[-1].append(finding)
        else:
            runs.append([finding])
    return [tuple(run) for run in runs]


def compare(expected: tuple, got: tuple) -> str:
    """'exact'; 'within' (scores differ inside the tolerance, nothing
    else differs); 'reordered' (findings also swap places inside a
    run of near-tied scores); or 'mismatch'."""
    if expected == got:
        return "exact"
    if expected[:2] != got[:2] or len(expected[2]) != len(got[2]):
        return "mismatch"

    def close(want: tuple, have: tuple) -> bool:
        return want[:4] == have[:4] and \
            abs(want[4] - have[4]) <= SCORE_TOLERANCE

    if all(map(close, expected[2], got[2])):
        return "within"
    start = 0
    for run in near_ties(expected[2]):
        mine = got[2][start:start + len(run)]
        start += len(run)
        if not all(map(close, sorted(run), sorted(mine))):
            return "mismatch"
    return "reordered"


def load_detector(model: Path, cache=None) -> SEVulDet:
    """What ``repro scan --model`` builds (no extraction cache)."""
    detector = SEVulDet(cache=cache)
    detector.load(model)
    return detector


_oracle_detector: SEVulDet | None = None


def _oracle_init(model: Path, cache_dir: Path | None) -> None:
    global _oracle_detector
    _oracle_detector = load_detector(
        model, None if cache_dir is None else GadgetCache(cache_dir))


def _oracle_one(case: TestCase) -> tuple:
    return oracle_verdict(_oracle_detector, case)


def oracle_verdicts(model: Path, cases: list[TestCase],
                    cache_dir: Path | None = None
                    ) -> dict[tuple[str, str], tuple]:
    """Serial-oracle verdicts of the distinct ``cases``, computed by
    ``ORACLE_WORKERS`` spawned processes (each case is still one
    ``detect_case`` call).  With ``cache_dir`` the workers' detectors
    fill that gadget cache as they go."""
    distinct = list({(c.name, c.source): c for c in cases}.values())
    context = multiprocessing.get_context("spawn")
    with context.Pool(ORACLE_WORKERS, initializer=_oracle_init,
                      initargs=(model, cache_dir)) as pool:
        verdicts = pool.map(_oracle_one, distinct, chunksize=4)
    return {(c.name, c.source): v for c, v in zip(distinct, verdicts)}


class Workload:
    """Base: one program under test plus the verdicts it gave."""

    name = ""

    def __init__(self, model: Path, work: Path, seed: int,
                 clock: RefClock, reuse: Path | None = None):
        self.model = model
        self.work = work
        self.seed = seed
        #: closes set-up phases (``clock.mark``) and guards references
        self.clock = clock
        #: a set-up probe's view of the main run's work directory
        self.reuse = reuse
        #: verdicts given before the timed loop that operations rely
        #: on; a wrong one fails every operation
        self.prior: tuple[list[TestCase], list[tuple]] = ([], [])
        #: per operation: its checked files, the verdicts the program
        #: answered with, and whether the call itself succeeded
        self.ops: list[tuple[list[TestCase], list[tuple], bool]] = []
        self._inputs = hashlib.sha256()

    # lifecycle hooks every workload implements
    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        raise NotImplementedError

    def run(self, payload) -> list[tuple[float, int]]:
        raise NotImplementedError

    def finish(self, payload) -> None:
        pass

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stats(self) -> dict | None:
        """The daemon's ``stats`` op (None for in-process workloads)."""
        return None

    def detail(self) -> dict:
        """Workload-specific facts for the run's detail line."""
        return {}

    def layer_metrics(self, stats_before: dict | None) -> dict:
        """Per-layer metrics only this workload can measure (the
        traced spans give the rest)."""
        return {}

    # -- checking ------------------------------------------------------------

    def _record(self, cases: list[TestCase], verdicts: list[tuple],
                ok: bool = True) -> None:
        """Keep one operation's verdicts for the oracle check."""
        self._inputs.update(inputs.digest_cases(cases).encode())
        self.ops.append((cases, verdicts,
                         ok and len(verdicts) == len(cases)))

    def _record_prior(self, cases: list[TestCase],
                      verdicts: list[tuple]) -> None:
        self._inputs.update(inputs.digest_cases(cases).encode())
        self.prior = (cases, verdicts)

    def input_digest(self) -> str:
        return self._inputs.hexdigest()

    def _scan(self, service: ScanService,
              cases: list[TestCase]) -> list[tuple[float, int]]:
        """One timed ``scan_stream`` call; if the program raises, the
        operation fails."""
        start = time.perf_counter()
        try:
            verdicts = [record_verdict(v.as_record())
                        for v in service.scan_stream(cases)]
        except Exception:
            traceback.print_exc()
            verdicts = []
        latency = time.perf_counter() - start
        self._record(cases, verdicts)
        return [(latency, len(cases))]

    def expected(self, cases: list[TestCase]
                 ) -> dict[tuple[str, str], tuple]:
        """Oracle verdicts: serial ``detect_case`` on detectors without
        caches, once per distinct file."""
        return oracle_verdicts(self.model, cases)

    def verify(self) -> dict:
        """Compare every kept verdict with the oracle."""
        expected = self.expected(self.prior[0] + [
            c for cases, _, _ in self.ops for c in cases])
        outcome = {"attempted": len(self.ops), "failed": 0,
                   "mismatched": 0, "score_rounding_diffs": 0,
                   "tie_order_diffs": 0}

        def check(cases: list[TestCase], got: list[tuple]) -> bool:
            results = [compare(expected[(case.name, case.source)], have)
                       for case, have in zip(cases, got)]
            outcome["mismatched"] += results.count("mismatch")
            outcome["score_rounding_diffs"] += results.count("within")
            outcome["tie_order_diffs"] += results.count("reordered")
            return "mismatch" not in results

        prior_ok = check(*self.prior)
        for cases, got, ok in self.ops:
            right = check(cases, got)
            outcome["failed"] += int(not (ok and right and prior_ok))
        return outcome


class ColdScan(Workload):
    """``ScanService.scan_stream`` with the ``repro scan`` defaults
    over batches of never-seen files."""

    name = "cold-scan"
    files = 4

    def setup(self) -> None:
        self.detector = load_detector(self.model)
        self.clock.mark("model")
        self.service = ScanService(self.detector, workers=SCAN_WORKERS,
                                   batch_size=BATCH_SIZE)
        self.service.scan_cases(inputs.scan_mix(self.seed, "warmup", 0, 8))
        self.clock.mark("warm-up")

    def prepare(self, index: int):
        return inputs.scan_mix(self.seed, "cold", index, self.files)

    def run(self, cases) -> list[tuple[float, int]]:
        return self._scan(self.service, cases)

    def close(self) -> None:
        self.service.close()


class RescoreWarm(Workload):
    """The re-scan after a hot reload: the gadget cache is warm, the
    result cache is cold (a fresh service per operation), so only
    encoding, batching and scoring run."""

    name = "rescore-warm"
    files = 32
    pool_size = 160

    def setup(self) -> None:
        self.pool = inputs.scan_mix(self.seed, "pool", 0, self.pool_size)
        #: pool files by kind (the pool follows the schedule's cycle)
        self.by_kind: dict[str, list[TestCase]] = {}
        for position, case in enumerate(self.pool):
            kind = inputs.SCHEDULE[position % len(inputs.SCHEDULE)]
            self.by_kind.setdefault(kind, []).append(case)
        self.clock.mark("inputs")
        cache_dir = (self.reuse or self.work) / "gadgets"
        if self.reuse is None:
            # history, not set-up: earlier scans filled the gadget
            # cache.  The oracle workers fill it here, so the verdicts
            # double as the oracle.
            self.pool_verdicts = oracle_verdicts(self.model, self.pool,
                                                 cache_dir)
            self.clock.mark("history", counted=False)
        self.detector = load_detector(self.model,
                                      cache=GadgetCache(cache_dir))
        self.clock.mark("model")
        with ScanService(self.detector, workers=SCAN_WORKERS,
                         batch_size=BATCH_SIZE) as service:
            service.scan_cases(self.pool[:self.files])
        self.clock.mark("warm-up")
        self.service: ScanService | None = None

    def prepare(self, index: int):
        # a seeded pick of pool files with the same mix of kinds as a
        # scan of ``files`` fresh files
        rng = random.Random(inputs.sub_seed(self.seed, "rescore", index))
        kinds = [inputs.SCHEDULE[slot % len(inputs.SCHEDULE)]
                 for slot in range(self.files)]
        cases = [case for kind in dict.fromkeys(kinds)
                 for case in rng.sample(self.by_kind[kind],
                                        kinds.count(kind))]
        self.service = ScanService(self.detector, workers=SCAN_WORKERS,
                                   batch_size=BATCH_SIZE)
        return cases

    def run(self, cases) -> list[tuple[float, int]]:
        return self._scan(self.service, cases)

    def finish(self, payload) -> None:
        self.service.close()

    def expected(self, cases):
        return self.pool_verdicts


class DiffRescan(Workload):
    """``DiffScanner.diff`` of a warm monorepo against a fresh seeded
    edit of about 1% of its functions."""

    name = "diff-rescan"
    functions = 500
    source_files = 50
    edits = 5

    def setup(self) -> None:
        self.base = self.work / "base"
        self.target = self.work / "target"
        for tree in (self.base, self.target, self.work / "fncache"):
            shutil.rmtree(tree, ignore_errors=True)
        self.owner = inputs.build_monorepo(self.base, self.seed,
                                           self.functions,
                                           self.source_files)
        shutil.copytree(self.base, self.target)
        self.clock.mark("inputs")
        self.detector = load_detector(self.model)
        self.clock.mark("model")
        self.service = ScanService(
            self.detector, workers=SCAN_WORKERS, batch_size=BATCH_SIZE,
            fn_cache=FunctionGadgetCache(self.work / "fncache"))
        self.scanner = DiffScanner(self.service)
        # ``scan_tree(base)``, in chunks: the files and their names are
        # the same, so ``diff`` finds every cache warm
        cases = [case_for_file(path,
                               name=path.relative_to(self.base).as_posix())
                 for path in sorted(self.base.rglob(self.scanner.pattern))]
        self.base_records = {}
        for start in range(0, len(cases), WARM_CHUNK):
            for verdict in self.service.scan_stream(
                    cases[start:start + WARM_CHUNK]):
                self.base_records[verdict.name] = verdict.as_record()
            self.clock.mark("base scan")
        # the oracle's cold full scan of every edited tree is the base
        # files once plus each operation's edited files
        self._record_prior(
            [case_for_file(self.base / rel, name=rel)
             for rel in self.base_records],
            [record_verdict(record)
             for record in self.base_records.values()])
        #: functions re-sliced per operation
        self.resliced: list[int] = []

    def layer_metrics(self, stats_before: dict | None) -> dict:
        return {"diffscan.functions_resliced":
                statistics.mean(self.resliced)}

    def detail(self) -> dict:
        return {"functions": self.functions,
                "functions_resliced": {"min": min(self.resliced),
                                       "max": max(self.resliced),
                                       "mean": statistics.mean(
                                           self.resliced)}}

    def prepare(self, index: int):
        plan = inputs.edit_plan(self.seed, index, self.owner, self.edits)
        return inputs.apply_edits(self.base, self.target, self.owner,
                                  plan, index)

    def run(self, changed) -> list[tuple[float, int]]:
        telemetry = self.service.telemetry
        misses = telemetry.get("fn_cache_misses")
        start = time.perf_counter()
        try:
            report = self.scanner.diff(self.base, self.target)
        except Exception:
            traceback.print_exc()
            report = None
        latency = time.perf_counter() - start
        self.resliced.append(telemetry.get("fn_cache_misses") - misses)
        cases = [case_for_file(self.target / rel, name=rel)
                 for rel in changed]
        if report is None:
            self._record(cases, [], ok=False)
            return [(latency, 0)]
        # unchanged files must read exactly as in the (checked) base
        unchanged = {rel: record
                     for rel, record in report.verdicts.items()
                     if rel not in changed}
        ok = (report.base_verdicts == self.base_records
              and unchanged == {rel: record for rel, record
                                in self.base_records.items()
                                if rel not in changed}
                and all(rel in report.verdicts for rel in changed))
        self._record(cases, [record_verdict(report.verdicts[rel])
                             for rel in changed if rel in report.verdicts],
                     ok=ok)
        return [(latency, len(report.verdicts))]

    def close(self) -> None:
        self.service.close()


class ServeBatch(Workload):
    """A ``repro serve`` daemon with its defaults and two closed-loop
    client connections, each sending one ``scan_batch`` per round."""

    name = "serve-batch"
    #: per client and round: fresh files (a module, a SARD and a
    #: Juliet-style case), files both clients send in the same round,
    #: and repeats of files scanned earlier
    fresh, shared, repeats = 3, 1, 1

    def setup(self) -> None:
        self.socket = self.work / f"serve-{os.getpid()}.sock"
        self.log = self.work / f"serve-{os.getpid()}.log"
        self.socket.unlink(missing_ok=True)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with self.log.open("w") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--model",
                 str(self.model), "--socket", str(self.socket)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root)
        self.clock.guard.watch(self.daemon.pid)
        deadline = time.monotonic() + 120
        while "serving on" not in self.log.read_text():
            if self.daemon.poll() is not None or \
                    time.monotonic() > deadline:
                self.close()
                raise RuntimeError("scan daemon did not start:\n"
                                   + self.log.read_text())
            time.sleep(0.01)
        self.clock.mark("daemon")
        # fail fast: a shed, expired or dropped request must fail its
        # operation, not come back later as a retried verdict
        self.clients = [ScanClient(str(self.socket), retry=None)
                        for _ in range(2)]
        #: arrival time of every response, per client
        self.arrivals: list[list[float]] = [[], []]
        for slot, client in enumerate(self.clients):
            client.receive = self._timed_receive(client.receive, slot)
        #: per request: answer arrival minus its batch's send time
        self.request_s: list[float] = []
        self.senders = ThreadPoolExecutor(2, thread_name_prefix="client")
        self.seen = inputs.scan_mix(self.seed, "warmup", 0, 16)
        for start in range(0, len(self.seen), WARM_CHUNK):
            answers = self.clients[0].scan_batch(
                [{"name": c.name, "source": c.source}
                 for c in self.seen[start:start + WARM_CHUNK]])
            if any(answer.get("status") != "ok" for answer in answers):
                self.close()
                raise RuntimeError("scan daemon warm-up failed")
            self.clock.mark("warm-up")

    def _timed_receive(self, receive, slot: int):
        def timed() -> dict:
            response = receive()
            self.arrivals[slot].append(time.perf_counter())
            return response
        return timed

    def prepare(self, index: int):
        rng = random.Random(inputs.sub_seed(self.seed, "serve", index))
        # both clients get the same mix, so neither is the slow one
        shared = inputs.scan_mix(self.seed, "serve-shared", index,
                                 self.shared, offset=1)
        batches = []
        for slot in range(2):
            own = inputs.scan_mix(self.seed, f"serve-{slot}", index,
                                  self.fresh)
            batch = own + shared + rng.sample(self.seen, self.repeats)
            rng.shuffle(batch)
            batches.append(batch)
            self.seen.extend(own)
        self.seen.extend(shared)
        return batches

    def _send(self, slot: int, cases: list[TestCase]):
        self.arrivals[slot].clear()
        start = time.perf_counter()
        try:
            answers = self.clients[slot].scan_batch(
                [{"name": c.name, "source": c.source} for c in cases])
        except Exception:
            traceback.print_exc()
            answers = []
        latency = time.perf_counter() - start
        return latency, [t - start for t in self.arrivals[slot]], answers

    def run(self, batches) -> list[tuple[float, int]]:
        futures = [self.senders.submit(self._send, slot, batch)
                   for slot, batch in enumerate(batches)]
        out = []
        for batch, future in zip(batches, futures):
            latency, request_s, answers = future.result()
            self.request_s.extend(request_s)
            # a shed, expired or failed answer fails the operation
            ok = len(answers) == len(batch) and all(
                a.get("status") == "ok" for a in answers)
            verdicts = ([record_verdict(a["verdict"]) for a in answers]
                        if ok else [])
            self._record(batch, verdicts, ok=ok)
            out.append((latency, len(batch)))
        return out

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the daemon and its scorer workers."""
        total_kb = 0
        for pid in descendants(self.daemon.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stats(self) -> dict:
        return self.clients[0].stats()

    def layer_metrics(self, before: dict | None) -> dict:
        """Daemon-side layers from ``stats`` deltas over the timed loop.

        The daemon exports no queue wait and no IPC time, so both are
        derived: ``server.ipc_ms`` is the median round trip of ``ping``
        (no server-side work), and ``serve.queue_wait_ms`` is the
        median client-observed request latency minus the daemon's mean
        per-case service time minus that IPC time.
        """
        after = self.stats()
        ipc_ms = self.ping_ms()

        def delta(*path: str) -> float:
            def read(stats):
                for key in path:
                    stats = stats.get(key) or {}
                return stats or 0
            return read(after) - read(before)

        hits = delta("service", "result_cache", "hits")
        misses = delta("service", "result_cache", "misses")
        # the daemon keeps its first 4096 latency samples; past that
        # the delta is empty and its median stands in
        lat_b = before["service"]["latency_seconds"]
        lat_a = after["service"]["latency_seconds"]
        cases = lat_a.get("count", 0) - lat_b.get("count", 0)
        service_ms = ((lat_a["mean"] * lat_a["count"]
                       - lat_b.get("mean", 0) * lat_b["count"])
                      / cases * 1e3 if cases > 0
                      else lat_a.get("p50", 0) * 1e3)
        request_ms = statistics.median(self.request_s) * 1e3
        return {
            "serve.queue_wait_ms": max(0.0,
                                       request_ms - service_ms - ipc_ms),
            "serve.result_hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 0.0),
            "server.ipc_ms": ipc_ms,
            "server.shed": delta("server", "shed"),
            "pool.worker_deaths": delta("service", "resilience",
                                        "worker_deaths"),
            "pool.resubmitted_jobs": delta("service", "resilience",
                                           "resubmitted_jobs"),
        }

    def ping_ms(self) -> float:
        """Median round trip of an op that does no server-side work."""
        times = []
        for _ in range(PING_COUNT):
            start = time.perf_counter()
            self.clients[0].ping()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        tree = descendants(daemon.pid) if daemon is not None else []
        clients = getattr(self, "clients", [])
        stopped = False
        if clients:
            try:
                stopped = clients[0].shutdown().get("status") == "ok"
            except Exception:
                traceback.print_exc()
        for client in clients:
            client.close()
        if hasattr(self, "senders"):
            self.senders.shutdown(wait=True)
        if daemon is not None:
            try:
                daemon.wait(timeout=30 if stopped else 0)
            except subprocess.TimeoutExpired:
                # the daemon did not stop: kill it and its workers
                for pid in reversed(descendants(daemon.pid)):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                daemon.wait(timeout=30)
        # the scorer workers and the daemon's resource tracker exit
        # after the daemon does
        wait_gone(tree)
        self.socket.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls
             for cls in (ColdScan, DiffRescan, RescoreWarm, ServeBatch)}
