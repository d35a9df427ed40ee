"""The observability layer: MetricsRegistry spans and the JSONL Trace."""

import json

import pytest

from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    TimerStat,
    Trace,
    aggregate_spans,
    read_trace,
)
from repro.util.counters import PerfCounters


class TestTimerStat:
    def test_record_accumulates(self):
        t = TimerStat()
        t.record(2.0)
        t.record(4.0)
        assert t.count == 2
        assert t.total == 6.0
        assert t.min == 2.0 and t.max == 4.0
        assert t.mean == 3.0

    def test_empty_mean_is_zero(self):
        assert TimerStat().mean == 0.0

    def test_dict_round_trip(self):
        t = TimerStat()
        t.record(1.5)
        t2 = TimerStat.from_dict(t.to_dict())
        assert t2 == t

    def test_merge(self):
        a, b = TimerStat(), TimerStat()
        a.record(1.0)
        b.record(3.0)
        b.record(5.0)
        a.merge(b)
        assert a.count == 3
        assert a.total == 9.0
        assert a.min == 1.0 and a.max == 5.0


class TestSpans:
    def test_span_records_timer(self):
        m = MetricsRegistry()
        with m.span("work"):
            pass
        assert m.timers["work"].count == 1
        assert m.timers["work"].total >= 0.0

    def test_span_attributes_counter_traffic(self):
        m = PerfCounters()
        with m.span("spmv") as sp:
            sp.charge("spmv", loads=100, stores=20, flops=60)
        assert m.traffic["spmv"] == [100, 20, 60, 1]
        assert (m.bytes_total, m.flops, dict(m.calls)) == (
            120, 60, {"spmv": 1})
        assert m.timers["spmv"].count == 1

    def test_span_only_charges_inside_the_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Trace(path) as tr:
            m = PerfCounters(trace=tr)
            m.charge("before", loads=1000, flops=1000)
            with m.span("k") as sp:
                sp.charge("k", loads=8, flops=2)
            m.charge("after", loads=1000, flops=1000)
        (rec,) = read_trace(path)
        assert (rec["bytes"], rec["flops"]) == (8, 2)
        assert m.bytes_total == 2008 and m.flops == 2002

    def test_fold_drops_rank_prefix(self):
        m = PerfCounters()
        m.charge("rank0.spmv", loads=40, flops=10)
        m.charge("rank1.spmv", loads=2, flops=1)
        m.charge("ranked.spmv", loads=1)  # not a rank prefix
        assert dict(m.calls) == {"spmv": 2, "ranked.spmv": 1}
        assert (m.bytes_total, m.flops) == (43, 11)

    def test_disabled_registry_records_nothing(self):
        m = MetricsRegistry(enabled=False)
        with m.span("k"):
            pass
        m.count("c")
        m.gauge("g", 1.0)
        assert not m.timers and not m.counters and not m.gauges

    def test_counters_and_gauges(self):
        m = MetricsRegistry()
        m.count("iters")
        m.count("iters", 4)
        m.gauge("ranks", 3)
        m.gauge("ranks", 5)
        assert m.counters["iters"] == 5
        assert m.gauges["ranks"] == 5

    def test_summary_mentions_balance(self):
        m = MetricsRegistry()
        with m.span("k") as sp:
            sp.charge("k", loads=10, flops=5)
        s = m.summary()
        assert "k" in s and "B/F" in s and "10 B" in s


class TestMerge:
    def test_merge_snapshot_prefixed(self):
        w = MetricsRegistry()
        with w.span("spmv") as sp:
            sp.charge("spmv", loads=16, flops=4)
        parent = PerfCounters()
        parent.merge_snapshot(w.snapshot(), prefix="rank2.")
        assert parent.timers["rank2.spmv"].count == 1
        assert parent.traffic["rank2.spmv"] == [16, 0, 4, 1]
        assert dict(parent.calls) == {"spmv": 1}
        assert (parent.bytes_total, parent.flops) == (16, 4)

    def test_merge_accumulates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for m in (a, b):
            with m.span("k"):
                pass
            m.count("n", 2)
        a.merge(b)
        assert a.timers["k"].count == 2
        assert a.counters["n"] == 4

    def test_snapshot_is_json_serializable(self):
        m = MetricsRegistry()
        with m.span("k"):
            pass
        m.count("n", 3)
        m.gauge("g", 1.5)
        snap = json.loads(json.dumps(m.snapshot()))
        m2 = MetricsRegistry()
        m2.merge_snapshot(snap)
        assert m2.timers["k"].count == 1
        assert m2.counters["n"] == 3
        assert m2.gauges["g"] == 1.5


class TestDistributions:
    def test_observe_accumulates_spread(self):
        m = MetricsRegistry()
        for v in (4.0, 8.0, 2.0):
            m.observe("serve.batch.width", v)
        d = m.distributions["serve.batch.width"]
        assert d.count == 3
        assert d.min == 2.0
        assert d.max == 8.0
        assert d.mean == pytest.approx(14.0 / 3.0)

    def test_distribution_created_empty_on_access(self):
        m = MetricsRegistry()
        d = m.distribution("q.depth")
        assert d.count == 0 and d.mean == 0.0
        assert "q.depth" in m.distributions

    def test_snapshot_round_trip_includes_distributions(self):
        m = MetricsRegistry()
        m.observe("bpr", 100.0)
        m.observe("bpr", 50.0)
        snap = json.loads(json.dumps(m.snapshot()))
        assert snap["distributions"]["bpr"]["count"] == 2
        m2 = MetricsRegistry()
        m2.merge_snapshot(snap)
        assert m2.distributions["bpr"].min == 50.0
        assert m2.distributions["bpr"].max == 100.0

    def test_empty_registry_snapshot_omits_distributions(self):
        assert "distributions" not in MetricsRegistry().snapshot()

    def test_merge_prefixes_distributions(self):
        w = MetricsRegistry()
        w.observe("width", 4)
        parent = MetricsRegistry()
        parent.merge(w, prefix="rank1.")
        parent.merge(w, prefix="rank1.")
        d = parent.distributions["rank1.width"]
        assert d.count == 2 and d.max == 4

    def test_summary_renders_distributions(self):
        m = MetricsRegistry()
        m.observe("serve.batch.width", 8)
        text = m.summary()
        assert "serve.batch.width" in text
        assert "max 8" in text

    def test_disabled_registry_ignores_observe(self):
        m = MetricsRegistry(enabled=False)
        m.observe("x", 1.0)
        assert m.distributions == {}


class TestNullMetrics:
    def test_is_disabled_and_frozen(self):
        assert not NULL_METRICS.enabled
        with pytest.raises(AttributeError):
            NULL_METRICS.enabled = True
        with pytest.raises(AttributeError):
            NULL_METRICS.trace = object()

    def test_merge_cannot_corrupt(self):
        donor = MetricsRegistry()
        with donor.span("k"):
            pass
        donor.count("n", 99)
        NULL_METRICS.merge(donor)
        NULL_METRICS.merge_snapshot(donor.snapshot(), prefix="rank0.")
        assert NULL_METRICS.timers == {}
        assert NULL_METRICS.counters == {}

    def test_span_and_count_are_noops(self):
        with NULL_METRICS.span("k", phase="p") as sp:
            sp.note(anything=1)
        NULL_METRICS.count("c", 7)
        NULL_METRICS.gauge("g", 7)
        NULL_METRICS.observe("d", 7)
        assert NULL_METRICS.counters == {}
        assert NULL_METRICS.distributions == {}
        assert NULL_METRICS.gauges == {}


class TestTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Trace(path) as tr:
            tr.emit({"name": "a", "dt": 0.5, "bytes": 10, "flops": 4})
            tr.emit({"name": "a", "dt": 0.5, "bytes": 10, "flops": 4})
            tr.emit({"name": "b", "dt": 1.0})
        assert tr.n_records == 3
        records = read_trace(path)
        assert len(records) == 3
        assert all("ts" in r for r in records)

    def test_aggregate_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Trace(path) as tr:
            tr.emit({"name": "a", "dt": 0.5, "bytes": 10, "flops": 4})
            tr.emit({"name": "a", "dt": 0.25, "bytes": 6, "flops": 2})
        agg = aggregate_spans(read_trace(path))
        assert agg["a"]["count"] == 2
        assert agg["a"]["seconds"] == 0.75
        assert agg["a"]["bytes"] == 16
        assert agg["a"]["flops"] == 6

    def test_registry_emits_span_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Trace(path) as tr:
            m = MetricsRegistry(trace=tr)
            with m.span("spmv", phase="moments") as sp:
                sp.charge("spmv", loads=80, stores=16, flops=24)
                sp.note(rows=12)
        (rec,) = read_trace(path)
        assert rec["name"] == "spmv"
        assert rec["phase"] == "moments"
        assert rec["bytes"] == 96 and rec["flops"] == 24
        assert rec["rows"] == 12
        assert rec["dt"] >= 0.0
