"""Property tests for the sliding-window layer, on both substrates.

Two invariants, under randomized fault schedules and window geometries:

* **Window safety** — at the instant any packet is *first* put on the
  wire, the sender's bytes-in-flight (that packet included) never
  exceed ``min(cwnd, rwnd)`` as known at that moment. Retransmissions
  are exempt: after a congestion cut, in-flight may legitimately sit
  above the freshly shrunk window until ACKs drain it (exactly as in
  TCP), so the admission check binds first transmissions only.
* **Window liveness** — flow control never costs correctness: with any
  loss/duplication/reordering schedule and any window geometry (down to
  windows smaller than a single packet), every message is still
  delivered exactly once, per-channel FIFO, and every receipt confirms.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import ConstantLatency, FaultPlan, NodeAddress
from repro.net.endpoint import Endpoint
from repro.net.wire import KIND_DATA
from repro.runtime import AsyncioSubstrate, SimSubstrate

A = NodeAddress("a.edu", 1000)
B = NodeAddress("b.edu", 1000)

fault_plans = st.builds(
    FaultPlan,
    drop_prob=st.floats(min_value=0.0, max_value=0.4),
    duplicate_prob=st.floats(min_value=0.0, max_value=0.3),
    reorder_jitter=st.floats(min_value=0.0, max_value=0.2),
)

#: Window geometries from "smaller than one packet" (the cwnd floor and
#: zero-window machinery carry the stream) up to "never binds".
cwnd_sizes = st.sampled_from([64, 150, 400, 64 * 1024])
recv_windows = st.sampled_from([100, 300, 64 * 1024])


class WindowRecorder:
    """Wire tap asserting the admission invariant at first transmission."""

    def __init__(self):
        self.streams = {}
        self.first_seen = set()
        self.violations = []

    def watch(self, endpoint):
        self._sender = endpoint

    def __call__(self, t, datagram):
        header = datagram.header
        if header.get("kind") != KIND_DATA:
            return
        key = (header["ch"], header["seq"])
        n = len(header.get("parts", ())) or 1
        fresh = key not in self.first_seen
        for i in range(n):
            self.first_seen.add((header["ch"], header["seq"] + i))
        if not fresh:
            return  # retransmission: exempt (see module docstring)
        stream = self._sender._send_streams.get((datagram.dst, header["ch"]))
        if stream is None:
            return
        if stream.in_flight > stream.window() + 1e-9:
            self.violations.append(
                (t, key, stream.in_flight, stream.window()))


def run_flow_stream(substrate, n_messages, n_channels, *, cwnd, rwnd,
                    wall_timeout=None):
    """Send ``n_messages`` per channel A->B with flow control bound by
    the given window geometry; return (received, receipts, recorder)."""
    recorder = WindowRecorder()
    ea = Endpoint(substrate, substrate.datagrams, A,
                  rto_initial=0.05, max_retries=80,
                  cwnd_initial=cwnd, recv_window=rwnd)
    eb = Endpoint(substrate, substrate.datagrams, B,
                  rto_initial=0.05, max_retries=80,
                  cwnd_initial=cwnd, recv_window=rwnd)
    recorder.watch(ea)
    substrate.datagrams.wire_taps.append(recorder)
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
    return received, receipts, recorder


def assert_flow_invariants(received, receipts, recorder, n_messages,
                           n_channels):
    assert recorder.violations == []
    for c in range(n_channels):
        assert received[f"c{c}"] == [f"c{c}|{i}" for i in range(n_messages)]
    assert all(r.is_confirmed for r in receipts)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       faults=fault_plans,
       n_messages=st.integers(min_value=1, max_value=30),
       n_channels=st.integers(min_value=1, max_value=3),
       cwnd=cwnd_sizes, rwnd=recv_windows)
def test_window_safety_and_liveness_on_sim(seed, faults, n_messages,
                                           n_channels, cwnd, rwnd):
    substrate = SimSubstrate(seed=seed, latency=ConstantLatency(0.01),
                             faults=faults)
    try:
        received, receipts, recorder = run_flow_stream(
            substrate, n_messages, n_channels, cwnd=cwnd, rwnd=rwnd)
    finally:
        substrate.close()
    assert_flow_invariants(received, receipts, recorder, n_messages,
                           n_channels)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**31),
       drop=st.floats(min_value=0.0, max_value=0.25),
       n_messages=st.integers(min_value=1, max_value=8),
       cwnd=st.sampled_from([150, 400]))
def test_window_safety_and_liveness_on_asyncio(seed, drop, n_messages, cwnd):
    # Real sockets: fewer/smaller examples (each costs wall-clock time),
    # a wall timeout so nothing can hang, tight windows so the stream
    # actually stalls and resumes over real UDP.
    substrate = AsyncioSubstrate(seed=seed,
                                 faults=FaultPlan(drop_prob=drop))
    try:
        received, receipts, recorder = run_flow_stream(
            substrate, n_messages, n_channels=2, cwnd=cwnd, rwnd=300,
            wall_timeout=30)
    finally:
        substrate.close()
    assert_flow_invariants(received, receipts, recorder, n_messages,
                           n_channels=2)
