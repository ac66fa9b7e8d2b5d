"""Property tests: FIFO + no-duplicate delivery per channel, as seen by
the tracer, under randomized fault schedules — on both substrates.

These complement tests/net/test_transport_properties.py: there the
invariant is checked on the delivered payloads; here it is checked on
the *trace*, which must tell the same story (per-channel ep/deliver
sequence numbers are exactly 0..n-1, in order, without duplicates) —
so the observability layer is itself covered by the invariant.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import ConstantLatency, FaultPlan, NodeAddress
from repro.net.endpoint import Endpoint
from repro.obs import Tracer
from repro.runtime import AsyncioSubstrate, SimSubstrate

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)

fault_plans = st.builds(
    FaultPlan,
    drop_prob=st.floats(min_value=0.0, max_value=0.5),
    duplicate_prob=st.floats(min_value=0.0, max_value=0.4),
    reorder_jitter=st.floats(min_value=0.0, max_value=0.3),
)


def run_stream(substrate, n_messages, n_channels, *, wall_timeout=None):
    """Send ``n_messages`` per channel A->B; return (received, tracer)."""
    tracer = Tracer(categories=["ep", "net"]).attach(substrate)
    try:
        ea = Endpoint(substrate, substrate.datagrams, A,
                      rto_initial=0.05, max_retries=80)
        eb = Endpoint(substrate, substrate.datagrams, B,
                      rto_initial=0.05, max_retries=80)
        received = {f"c{c}": [] for c in range(n_channels)}
        eb.register_inbox(0, lambda payload, addr: received[
            payload.split("|")[0]].append(payload))
        receipts = []
        for i in range(n_messages):
            for c in range(n_channels):
                receipts.append(ea.send(B.inbox(0), f"c{c}|{i}",
                                        channel=f"c{c}"))
        done = substrate.all_of([r.confirmed for r in receipts])
        if wall_timeout is not None:
            substrate.run(done, wall_timeout=wall_timeout)
            substrate.run(wall_timeout=wall_timeout)  # drain stray acks
        else:
            substrate.run()
        return received, tracer
    finally:
        substrate.close()


def assert_fifo_no_duplicates(received, tracer, n_messages, n_channels):
    for c in range(n_channels):
        # The application saw per-channel FIFO, exactly once...
        assert received[f"c{c}"] == [f"c{c}|{i}" for i in range(n_messages)]
    # ...and the trace tells the same story: per channel, delivery events
    # carry exactly the sequence numbers 0..n-1 in increasing order.
    per_channel = {}
    for ev in tracer.select("ep", "deliver"):
        per_channel.setdefault(ev.fields["ch"], []).append(ev.fields["seq"])
    for c in range(n_channels):
        assert per_channel[f"c{c}"] == list(range(n_messages))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       faults=fault_plans,
       n_messages=st.integers(min_value=1, max_value=30),
       n_channels=st.integers(min_value=1, max_value=3))
def test_fifo_no_duplicates_on_sim(seed, faults, n_messages, n_channels):
    substrate = SimSubstrate(seed=seed, latency=ConstantLatency(0.01),
                             faults=faults)
    received, tracer = run_stream(substrate, n_messages, n_channels)
    assert_fifo_no_duplicates(received, tracer, n_messages, n_channels)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**31),
       drop=st.floats(min_value=0.0, max_value=0.3),
       duplicate=st.floats(min_value=0.0, max_value=0.3),
       n_messages=st.integers(min_value=1, max_value=10))
def test_fifo_no_duplicates_on_asyncio(seed, drop, duplicate, n_messages):
    # Real sockets: fewer examples and smaller streams — each example
    # costs real wall-clock time — plus a wall timeout so a lost ACK
    # can never hang the test.
    substrate = AsyncioSubstrate(
        seed=seed, faults=FaultPlan(drop_prob=drop, duplicate_prob=duplicate))
    received, tracer = run_stream(substrate, n_messages, n_channels=2,
                                  wall_timeout=30)
    assert_fifo_no_duplicates(received, tracer, n_messages, n_channels=2)
