"""Tests for the metrics registry: instruments, snapshot, reset, merge."""

from repro.obs.metrics import MetricsRegistry


def _registry(counters):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.counter(name).inc(value)
    return registry


class TestInstruments:
    def test_counter_get_or_create_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("eas.evaluations")
        b = registry.counter("eas.evaluations")
        assert a is b
        a.inc()
        a.inc(2.5)
        assert registry.counter_values() == {"eas.evaluations": 3.5}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repair.round")
        gauge.set(3)
        gauge.set(7)
        assert gauge.value == 7
        assert gauge.updates == 2

class TestSnapshotReset:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4)
        registry.gauge("g").set(1.5)
        assert registry.snapshot() == {"counters": {"c": 4.0}, "gauges": {"g": 1.5}}

    def test_unset_gauges_excluded_from_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("never_written")
        assert registry.snapshot()["gauges"] == {}

    def test_reset_zeroes_in_place_keeping_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0.0
        assert registry.counter("c") is counter
        counter.inc()  # cached references stay live after reset
        assert registry.counter_values() == {"c": 1.0}


class TestMerge:
    def test_counter_merge_adds(self):
        a = _registry({"x": 1, "y": 2})
        b = _registry({"y": 3, "z": 4})
        a.merge(b)
        assert a.counter_values() == {"x": 1.0, "y": 5.0, "z": 4.0}

    def test_counter_merge_is_associative(self):
        parts = [
            {"eas.evaluations": 10, "eas.rescues": 1},
            {"eas.evaluations": 7, "repair.lts_moves": 2},
            {"eas.rescues": 3, "repair.lts_moves": 5, "comm.link_probes": 11},
        ]

        left = _registry(parts[0]).merge(_registry(parts[1]))  # (a + b) + c
        left.merge(_registry(parts[2]))
        bc = _registry(parts[1]).merge(_registry(parts[2]))  # a + (b + c)
        right = _registry(parts[0]).merge(bc)
        assert left.counter_values() == right.counter_values()

    def test_gauge_merge_takes_written_operand(self):
        a = MetricsRegistry()
        a.gauge("g").set(1)
        b = MetricsRegistry()
        b.gauge("g")  # created but never written: must not clobber
        a.merge(b)
        assert a.gauge("g").value == 1
        c = MetricsRegistry()
        c.gauge("g").set(42)
        a.merge(c)
        assert a.gauge("g").value == 42

    def test_copy_is_independent(self):
        a = _registry({"x": 5})
        clone = a.copy()
        clone.counter("x").inc()
        assert a.counter_values() == {"x": 5.0}
        assert clone.counter_values() == {"x": 6.0}

    def test_merge_disjoint_instrument_sets(self):
        a = _registry({"eas.evaluations": 3})
        b = _registry({"edf.evaluations": 5})
        b.gauge("jobs.workers").set(4)
        a.merge(b)
        assert a.counter_values() == {"eas.evaluations": 3.0, "edf.evaluations": 5.0}
        assert a.gauge("jobs.workers").value == 4

    def test_merge_is_commutative_on_counters(self):
        ab = _registry({"x": 1}).merge(_registry({"x": 2, "y": 4}))
        ba = _registry({"x": 2, "y": 4}).merge(_registry({"x": 1}))
        assert ab.counter_values() == ba.counter_values()

    def test_merge_after_reset(self):
        # The pool's per-phase pattern: reset the parent registry, then
        # fold fresh worker registries in — stale pre-reset totals must
        # not leak through, and cached instrument references stay live.
        parent = _registry({"eas.evaluations": 99})
        cached = parent.counter("eas.evaluations")
        parent.gauge("jobs.workers").set(8)
        parent.reset()
        worker = _registry({"eas.evaluations": 7})
        parent.merge(worker)
        assert parent.counter_values() == {"eas.evaluations": 7.0}
        assert cached.value == 7.0
        assert parent.snapshot()["gauges"] == {}  # reset cleared the write

    def test_merge_pickled_roundtrip_registry(self):
        # Worker registries travel home through pickle; merging the
        # reconstructed registry must behave exactly like the original.
        import pickle

        worker = _registry({"eas.evaluations": 11})
        worker.gauge("jobs.workers").set(2)
        clone = pickle.loads(pickle.dumps(worker))
        direct = MetricsRegistry().merge(worker)
        via_pickle = MetricsRegistry().merge(clone)
        assert direct.snapshot() == via_pickle.snapshot()

    def test_merge_returns_self_for_chaining(self):
        a = MetricsRegistry()
        b = _registry({"x": 1})
        c = _registry({"x": 2})
        assert a.merge(b).merge(c) is a
        assert a.counter_values() == {"x": 3.0}
