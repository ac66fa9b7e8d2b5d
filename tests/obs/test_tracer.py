"""Unit tests for the tracing/metrics core: repro.obs."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net import ConstantLatency, DatagramNetwork, Endpoint, NodeAddress
from repro.obs import CATEGORIES, Histogram, MetricsRegistry, Tracer
from repro.obs.metrics import BUCKET_BOUNDS
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)


def traced_pair(tracer, *, faults=None, seed=3, **endpoint_options):
    kernel = Kernel(seed=seed)
    tracer.attach(kernel)
    net = DatagramNetwork(kernel, latency=ConstantLatency(0.01),
                          faults=faults)
    ea = Endpoint(kernel, net, A, rto_initial=0.05, **endpoint_options)
    eb = Endpoint(kernel, net, B, rto_initial=0.05, **endpoint_options)
    return kernel, net, ea, eb


class TestTracer:
    def test_records_protocol_events_with_time(self):
        tracer = Tracer()
        kernel, _net, ea, eb = traced_pair(tracer)
        got = []
        eb.register_inbox(0, lambda p, a: got.append(p))
        ea.send(B.inbox(0), "hello", channel="c")
        kernel.run()
        assert got == ["hello"]
        for cat, name in [("ep", "data"), ("net", "send"), ("net", "deliver"),
                          ("ep", "deliver"), ("ep", "ack"), ("ep", "confirm"),
                          ("kernel", "schedule"), ("kernel", "fire")]:
            assert tracer.select(cat, name), f"missing {cat}/{name}"
        data = tracer.select("ep", "data")[0]
        assert data.node == str(A)
        assert data.fields["ch"] == "c" and data.fields["seq"] == 0
        confirm = tracer.select("ep", "confirm")[0]
        assert confirm.t > 0 and confirm.fields["rtt"] > 0

    def test_category_filter_rejects_at_emit(self):
        tracer = Tracer(categories=["ep"])
        kernel, _net, ea, eb = traced_pair(tracer)
        eb.register_inbox(0, lambda p, a: None)
        ea.send(B.inbox(0), "x", channel="c")
        kernel.run()
        assert tracer.events
        assert {ev.cat for ev in tracer.events} == {"ep"}
        # Filtered categories do not even reach the metrics.
        assert not any(k.startswith("net.") or k.startswith("kernel.")
                       for k in tracer.metrics.counters)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            Tracer(categories=["ep", "nope"])

    def test_metrics_only_keeps_counters_not_events(self):
        tracer = Tracer(metrics_only=True)
        kernel, _net, ea, eb = traced_pair(tracer)
        eb.register_inbox(0, lambda p, a: None)
        for i in range(5):
            ea.send(B.inbox(0), f"m{i}", channel="c")
        kernel.run()
        assert tracer.events == []
        assert tracer.metrics.counters["ep.data"] == 5
        summary = tracer.summary()
        assert summary["counters"]["ep.deliver"] == 5
        assert summary["histograms"]["ep.rtt"]["count"] == 5

    def test_max_events_caps_trace_but_not_metrics(self):
        tracer = Tracer(max_events=10)
        kernel, _net, ea, eb = traced_pair(tracer)
        eb.register_inbox(0, lambda p, a: None)
        for i in range(5):
            ea.send(B.inbox(0), f"m{i}", channel="c")
        kernel.run()
        assert len(tracer.events) == 10
        assert tracer.dropped_events > 0
        assert tracer.metrics.counters["ep.data"] == 5
        assert tracer.summary()["dropped_events"] == tracer.dropped_events

    def test_clock_stamps_come_from_registered_clocks(self):
        class FakeClock:
            time = 41

        tracer = Tracer()
        kernel, _net, ea, eb = traced_pair(tracer)
        tracer.register_clock(A, FakeClock())
        eb.register_inbox(0, lambda p, a: None)
        ea.send(B.inbox(0), "x", channel="c")
        kernel.run()
        data = tracer.select("ep", "data")[0]
        assert data.clk == 41
        # B has no registered clock: stamped None, serialized without clk.
        deliver = tracer.select("ep", "deliver")[0]
        assert deliver.clk is None
        assert "clk" not in deliver.to_dict()

    def test_ordinal_key_does_not_collide_with_protocol_seq(self):
        tracer = Tracer()
        kernel, _net, ea, eb = traced_pair(tracer)
        eb.register_inbox(0, lambda p, a: None)
        for i in range(3):
            ea.send(B.inbox(0), f"m{i}", channel="c")
        kernel.run()
        records = [json.loads(line) for line in
                   tracer.to_jsonl().splitlines()]
        assert [r["i"] for r in records] == list(range(len(records)))
        data = [r for r in records if r["cat"] == "ep" and r["ev"] == "data"]
        assert [r["seq"] for r in data] == [0, 1, 2]

    def test_per_node_and_per_channel_breakdowns(self):
        tracer = Tracer()
        kernel, _net, ea, eb = traced_pair(tracer)
        eb.register_inbox(0, lambda p, a: None)
        ea.send(B.inbox(0), "x", channel="c1")
        ea.send(B.inbox(0), "y", channel="c2")
        kernel.run()
        summary = tracer.summary()
        assert summary["per_node"][str(A)]["ep.data"] == 2
        assert summary["per_channel"]["c1"]["ep.data"] == 1
        assert summary["per_channel"]["c2"]["ep.data"] == 1

    def test_detach_stops_recording(self):
        tracer = Tracer()
        kernel, _net, ea, eb = traced_pair(tracer)
        eb.register_inbox(0, lambda p, a: None)
        tracer.detach(kernel)
        assert kernel.tracer is None
        ea.send(B.inbox(0), "x", channel="c")
        kernel.run()
        assert tracer.events == []

    def test_detach_drops_the_substrate_clock(self):
        # Detached, the tracer stamps 0.0 as one never attached does.
        tracer = Tracer(categories=["ep"])
        tracer.emit("ep", "unattached")
        kernel = Kernel(seed=1)
        tracer.attach(kernel)
        kernel.call_later(2.5, lambda: tracer.emit("ep", "attached"))
        kernel.run()
        tracer.detach(kernel)
        tracer.emit("ep", "detached")
        assert [ev.t for ev in tracer.events] == [0.0, 2.5, 0.0]

    def test_register_clock_restamps_a_node_already_seen(self):
        class FakeClock:
            time = 7

        tracer = Tracer()
        tracer.emit("ep", "before", node=A)
        tracer.register_clock(A, FakeClock())
        tracer.emit("ep", "after", node=A)
        assert [ev.clk for ev in tracer.events] == [None, 7]

    def test_fresh_node_objects_count_under_one_label(self):
        # Decoded datagrams carry a new address object per frame.
        tracer = Tracer(metrics_only=True)
        for _ in range(3000):
            tracer.emit("net", "deliver", node=NodeAddress("a.edu", 1000))
        assert tracer.summary()["per_node"] == {
            str(A): {"net.deliver": 3000}}
        assert len(tracer._nodes) <= 1024

    def test_export_jsonl_writes_the_trace(self, tmp_path):
        tracer = Tracer()
        kernel, _net, ea, eb = traced_pair(tracer)
        eb.register_inbox(0, lambda p, a: None)
        ea.send(B.inbox(0), "x", channel="c")
        kernel.run()
        path = tracer.export_jsonl(tmp_path / "t.jsonl")
        assert path.read_text() == tracer.to_jsonl()
        for line in path.read_text().splitlines():
            json.loads(line)  # every line is a standalone JSON object

    def test_all_categories_are_known(self):
        assert set(CATEGORIES) == {"kernel", "net", "ep", "mbox",
                                   "session", "tokens", "dir", "store",
                                   "reg"}


class TestHistogram:
    def test_observe_and_summary(self):
        h = Histogram()
        for v in [0.001, 0.002, 0.004, 0.1]:
            h.observe(v)
        assert h.count == 4
        assert h.min == 0.001 and h.max == 0.1
        assert h.mean == pytest.approx(0.02675)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert sum(snap["buckets"].values()) == 4

    def test_quantiles_are_bucket_upper_bounds(self):
        h = Histogram()
        for _ in range(100):
            h.observe(0.01)
        q = h.quantile(0.5)
        assert 0.01 <= q <= 0.02  # the enclosing power-of-two bucket

    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0 and h.mean == 0.0

    def test_registry_summary_is_sorted_and_plain(self):
        tracer = Tracer()
        tracer.emit("net", "last")
        tracer.emit("ep", "first", node="n1", ch="ch1")
        tracer.metrics.observe("lat", 0.5)
        summary = tracer.metrics.summary()
        assert list(summary["counters"]) == sorted(summary["counters"])
        assert summary["per_node"] == {"n1": {"ep.first": 1}}
        assert summary["per_channel"] == {"ch1": {"ep.first": 1}}
        assert isinstance(tracer.metrics, MetricsRegistry)
        json.dumps(summary)  # JSON-serializable throughout

    def test_quantile_is_nearest_rank(self):
        h = Histogram()
        for v in [1e-6, 1e-3, 1.0]:
            h.observe(v)
        # The 2nd of 3 samples, not the 1st.
        assert h.quantile(0.5) == BUCKET_BOUNDS[10]
        assert 1e-3 <= h.quantile(0.5) < 2e-3
        h = Histogram()
        for _ in range(49):
            h.observe(1e-6)
        h.observe(1.0)
        # ceil(0.99 * 50) = 50: the one slow sample.
        assert h.quantile(0.99) == BUCKET_BOUNDS[20]
        assert h.quantile(0.98) == BUCKET_BOUNDS[0]

    def test_quantile_rank_ignores_float_noise(self):
        # 0.07 * 100 is 7.000000000000001 in floats; the rank is still 7.
        h = Histogram()
        for _ in range(7):
            h.observe(1e-6)
        for _ in range(93):
            h.observe(1.0)
        assert h.quantile(0.07) == BUCKET_BOUNDS[0]
        assert h.quantile(0.08) == BUCKET_BOUNDS[20]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(BUCKET_BOUNDS),
        st.sampled_from(BUCKET_BOUNDS).map(
            lambda b: math.nextafter(b, math.inf)),
        st.sampled_from(BUCKET_BOUNDS).map(
            lambda b: math.nextafter(b, -math.inf))))
    # A bare bisect_left would put NaN in bucket 0; the scan puts it in
    # overflow.
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    def test_bucket_matches_the_linear_scan(self, value):
        def linear_scan(value):
            for i, bound in enumerate(BUCKET_BOUNDS):
                if value <= bound:
                    return i
            return None

        h = Histogram()
        h.observe(value)
        want = linear_scan(value)
        if want is None:
            assert h.overflow == 1 and not any(h.buckets)
        else:
            assert h.overflow == 0 and h.buckets[want] == 1
            assert sum(h.buckets) == 1
