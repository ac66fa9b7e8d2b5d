"""Property-based tests: FIFO exactly-once holds under arbitrary fault
schedules — the reproduction's central transport invariant."""

from hypothesis import given, settings, strategies as st

from repro.net import (
    ConstantLatency,
    DatagramNetwork,
    Endpoint,
    FaultPlan,
    LogNormalLatency,
    NodeAddress,
    UniformLatency,
)
from repro.sim import Kernel

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)

fault_plans = st.builds(
    FaultPlan,
    drop_prob=st.floats(min_value=0.0, max_value=0.6),
    duplicate_prob=st.floats(min_value=0.0, max_value=0.5),
    reorder_jitter=st.floats(min_value=0.0, max_value=0.5),
)

latencies = st.one_of(
    st.floats(min_value=0.001, max_value=0.2).map(ConstantLatency),
    st.tuples(st.floats(min_value=0.001, max_value=0.05),
              st.floats(min_value=0.05, max_value=0.4)).map(
        lambda lo_hi: UniformLatency(*lo_hi)),
    st.floats(min_value=0.005, max_value=0.1).map(
        lambda m: LogNormalLatency(median=m, sigma=0.8)),
)


#: The recovery knobs of the one protocol: assorted delayed-ack windows
#: and duplicate-ACK thresholds. The FIFO exactly-once invariant must be
#: indifferent to all of them.
recovery_modes = st.fixed_dictionaries({
    "ack_delay": st.sampled_from([0.0, 0.005, 0.02, 0.1]),
    "dup_ack_threshold": st.integers(min_value=1, max_value=5),
})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       faults=fault_plans, latency=latencies,
       n_messages=st.integers(min_value=1, max_value=40),
       n_channels=st.integers(min_value=1, max_value=3),
       recovery=recovery_modes)
def test_fifo_exactly_once_under_arbitrary_faults(
        seed, faults, latency, n_messages, n_channels, recovery):
    kernel = Kernel(seed=seed)
    net = DatagramNetwork(kernel, latency=latency, faults=faults)
    ea = Endpoint(kernel, net, A, rto_initial=0.1, max_retries=80, **recovery)
    eb = Endpoint(kernel, net, B, rto_initial=0.1, max_retries=80, **recovery)
    received: dict[str, list[str]] = {f"c{c}": [] for c in range(n_channels)}
    eb.register_inbox(0, lambda payload, addr: received[
        payload.split("|")[0]].append(payload))
    for i in range(n_messages):
        for c in range(n_channels):
            ea.send(B.inbox(0), f"c{c}|{i}", channel=f"c{c}")
    kernel.run()
    for c in range(n_channels):
        expected = [f"c{c}|{i}" for i in range(n_messages)]
        assert received[f"c{c}"] == expected
    assert ea.stats.gave_up == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       drop=st.floats(min_value=0.0, max_value=0.5))
def test_no_phantom_messages(seed, drop):
    """The layer never delivers anything that was not sent, and never
    delivers out of thin air after duplication."""
    kernel = Kernel(seed=seed)
    net = DatagramNetwork(kernel, latency=ConstantLatency(0.01),
                          faults=FaultPlan(drop_prob=drop,
                                           duplicate_prob=0.4))
    ea = Endpoint(kernel, net, A, rto_initial=0.05)
    eb = Endpoint(kernel, net, B, rto_initial=0.05)
    sent = [f"m{i}" for i in range(20)]
    got: list[str] = []
    eb.register_inbox(0, lambda p, a: got.append(p))
    for p in sent:
        ea.send(B.inbox(0), p, channel="c")
    kernel.run()
    assert got == sent  # exactly the sent sequence, no extras, in order


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_bidirectional_independence(seed):
    """Traffic in one direction never corrupts the other."""
    kernel = Kernel(seed=seed)
    net = DatagramNetwork(kernel, latency=UniformLatency(0.01, 0.2),
                          faults=FaultPlan(drop_prob=0.25,
                                           reorder_jitter=0.1))
    ea = Endpoint(kernel, net, A, rto_initial=0.1, max_retries=80)
    eb = Endpoint(kernel, net, B, rto_initial=0.1, max_retries=80)
    got_a, got_b = [], []
    ea.register_inbox(0, lambda p, a: got_a.append(p))
    eb.register_inbox(0, lambda p, a: got_b.append(p))
    for i in range(15):
        ea.send(B.inbox(0), f"ab{i}", channel="x")
        eb.send(A.inbox(0), f"ba{i}", channel="x")
    kernel.run()
    assert got_b == [f"ab{i}" for i in range(15)]
    assert got_a == [f"ba{i}" for i in range(15)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       faults=fault_plans,
       n_messages=st.integers(min_value=1, max_value=40))
def test_sack_mode_never_beats_exactly_once(seed, faults, n_messages):
    """SACK + fast retransmit + delayed acks change *when* packets move,
    never *what* arrives: the exact sent sequence is delivered."""
    kernel = Kernel(seed=seed)
    net = DatagramNetwork(kernel, latency=ConstantLatency(0.02),
                          faults=faults)
    ea = Endpoint(kernel, net, A, rto_initial=0.1, max_retries=80)
    eb = Endpoint(kernel, net, B, rto_initial=0.1, max_retries=80)
    got: list[str] = []
    eb.register_inbox(0, lambda p, a: got.append(p))
    for i in range(n_messages):
        ea.send(B.inbox(0), f"m{i}", channel="c")
    kernel.run()
    assert got == [f"m{i}" for i in range(n_messages)]
    if not (faults.drop_prob or faults.duplicate_prob
            or faults.reorder_jitter):
        assert ea.stats.fast_retransmits == 0  # clean net, no false alarms
