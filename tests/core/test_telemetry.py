"""Tests for the stage-instrumentation layer."""

from repro.core.telemetry import Telemetry


class TestCounters:
    def test_count_and_get(self):
        telemetry = Telemetry()
        assert telemetry.get("cases") == 0
        telemetry.count("cases")
        telemetry.count("cases", 4)
        assert telemetry.get("cases") == 5

    def test_independent_counters(self):
        telemetry = Telemetry()
        telemetry.count("a", 2)
        telemetry.count("b", 3)
        assert telemetry.get("a") == 2
        assert telemetry.get("b") == 3


class TestStages:
    def test_stage_accumulates_time_and_calls(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.stage("parse"):
                pass
        assert telemetry.calls("parse") == 3
        assert telemetry.seconds("parse") >= 0.0

    def test_stage_records_on_exception(self):
        telemetry = Telemetry()
        try:
            with telemetry.stage("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert telemetry.calls("boom") == 1

    def test_add_stage_direct(self):
        telemetry = Telemetry()
        telemetry.add_stage("slice", 1.5, calls=7)
        telemetry.add_stage("slice", 0.5, calls=3)
        assert telemetry.seconds("slice") == 2.0
        assert telemetry.calls("slice") == 10


class TestDistributions:
    def test_percentiles_follow_recent_samples(self):
        # a long-running daemon's p50 must track current traffic, not
        # freeze at its first MAX_OBSERVATIONS samples
        from repro.core.telemetry import MAX_OBSERVATIONS

        telemetry = Telemetry()
        for value in [0.0] * MAX_OBSERVATIONS + [1.0] * MAX_OBSERVATIONS:
            telemetry.observe("latency", value)
        assert telemetry.percentile("latency", 50) == 1.0
        assert telemetry.observation_stats("latency")["mean"] == 1.0
        assert telemetry.get("observations_dropped") == MAX_OBSERVATIONS

    def test_merge_dict_and_pickle_keep_the_window(self):
        import pickle

        from repro.core.telemetry import MAX_OBSERVATIONS

        telemetry = Telemetry()
        for value in range(MAX_OBSERVATIONS + 10):
            telemetry.observe("depth", value)
        merged = Telemetry().merge(telemetry)
        restored = Telemetry().merge_dict(telemetry.as_dict())
        unpickled = pickle.loads(pickle.dumps(telemetry))
        for copy in (merged, restored, unpickled):
            assert copy.percentile("depth", 0) == 10.0
            assert len(copy.observations["depth"]) == MAX_OBSERVATIONS
        unpickled.observe("depth", -1.0)  # still bounded after unpickle
        assert len(unpickled.observations["depth"]) == MAX_OBSERVATIONS


class TestAggregation:
    def test_merge(self):
        a = Telemetry()
        a.count("hits", 1)
        a.add_stage("parse", 1.0, calls=2)
        b = Telemetry()
        b.count("hits", 2)
        b.count("misses", 5)
        b.add_stage("parse", 0.25, calls=1)
        a.merge(b)
        assert a.get("hits") == 3
        assert a.get("misses") == 5
        assert a.seconds("parse") == 1.25
        assert a.calls("parse") == 3

    def test_dict_roundtrip(self):
        a = Telemetry()
        a.count("hits", 4)
        a.add_stage("parse", 0.5, calls=2)
        restored = Telemetry().merge_dict(a.as_dict())
        assert restored.as_dict() == a.as_dict()

    def test_summary_lists_counters_and_stages(self):
        telemetry = Telemetry()
        telemetry.count("cache_hits", 9)
        telemetry.add_stage("analyze", 0.1)
        text = telemetry.summary()
        assert "cache_hits" in text and "9" in text
        assert "analyze" in text

    def test_summary_empty(self):
        assert "(empty)" in Telemetry().summary()


class TestThreadSafety:
    """Regression: one Telemetry is shared across scorer worker
    threads and the scan extraction thread (via ScanService), but the
    read-modify-writes on its plain dicts used to be unlocked —
    concurrent increments were silently lost."""

    def test_concurrent_counts_are_exact(self):
        import sys
        import threading

        telemetry = Telemetry()
        threads_n, per_thread = 8, 20_000
        start = threading.Barrier(threads_n)

        def hammer():
            start.wait()
            for _ in range(per_thread):
                telemetry.count("hits")
                telemetry.count("batch", 3)

        workers = [threading.Thread(target=hammer)
                   for _ in range(threads_n)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force frequent GIL switches
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert telemetry.get("hits") == threads_n * per_thread
        assert telemetry.get("batch") == threads_n * per_thread * 3

    def test_concurrent_stages_and_observations_are_exact(self):
        import sys
        import threading

        telemetry = Telemetry()
        threads_n, per_thread = 8, 5_000
        start = threading.Barrier(threads_n)

        def hammer():
            start.wait()
            for _ in range(per_thread):
                telemetry.add_stage("scan", 1.0)
                telemetry.observe("depth", 1.0)

        workers = [threading.Thread(target=hammer)
                   for _ in range(threads_n)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join()
        finally:
            sys.setswitchinterval(old)
        total = threads_n * per_thread
        assert telemetry.calls("scan") == total
        assert telemetry.seconds("scan") == float(total)
        from repro.core.telemetry import MAX_OBSERVATIONS
        samples = len(telemetry.observations["depth"])
        dropped = telemetry.get("observations_dropped")
        assert samples == MAX_OBSERVATIONS
        assert samples + dropped == total

    def test_pickle_roundtrip_excludes_lock(self):
        import pickle

        telemetry = Telemetry()
        telemetry.count("hits", 2)
        restored = pickle.loads(pickle.dumps(telemetry))
        assert restored.get("hits") == 2
        restored.count("hits")  # lock was rebuilt on unpickle
        assert restored.get("hits") == 3
