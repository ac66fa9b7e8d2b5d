"""Property: every timed call resolves exactly once, at the right time.

One client dapplet calls three exporters through one proxy each, so all
of its calls share one pending table and one deadline agenda. Some
exporters are muted (their replies never reach the client). A call
whose reply reaches the client before ``sent + timeout`` resolves with
the reply's value; any other call fails with :class:`RpcTimeout` at
exactly ``sent + timeout``.
"""

from hypothesis import assume, example, given, settings, strategies as st

from repro.dapplet import Dapplet
from repro.errors import RpcTimeout
from repro.net import ConstantLatency
from repro.rpc import RemoteProxy, export
from repro.world import World

EXPORTERS = 3


class Plain(Dapplet):
    kind = "plain"


class Slow:
    """Answers ``value`` after ``delay`` (a blocking method)."""

    def __init__(self, kernel):
        self.kernel = kernel

    def echo(self, value, delay):
        return self.kernel.timeout(delay, value=value)


times = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
calls = st.lists(
    st.tuples(st.integers(0, EXPORTERS - 1), times,
              st.floats(min_value=0.001, max_value=3.0), times),
    min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(calls=calls, muted=st.sets(st.integers(0, EXPORTERS - 1)))
# Re-armed at 0.238…, no delay lands on 0.984… itself: the wake must
# land short of it and re-arm, not one ulp past it.
@example(calls=[(0, 0.0, 0.23814653691339033, 0.0),
                (0, 0.0, 0.9842794334314585, 0.0)], muted={0})
def test_each_call_resolves_once_with_its_reply_or_at_its_deadline(
        calls, muted):
    world = World(seed=3, latency=ConstantLatency(0.01))
    client = world.dapplet(Plain, "rice.edu", "client")
    proxies = []
    for i in range(EXPORTERS):
        server = world.dapplet(Plain, f"s{i}.edu", f"server{i}")
        proxies.append(RemoteProxy(client, export(
            server, Slow(world.kernel), name="slow").pointer))
        if i in muted:
            world.network.faults.partition(server.address, client.address,
                                           bidirectional=False)
    rpc = client._rpc_client
    arrived = {}

    def note_arrival(reply):
        arrived[reply.value] = world.now
        return reply

    rpc.inbox.delivery_hooks.append(note_arrival)
    sent, outcomes = {}, {n: [] for n in range(len(calls))}

    def caller(n, exporter, at, timeout, delay):
        yield world.kernel.timeout(at)
        sent[n] = world.now
        event = proxies[exporter].call("echo", n, delay, timeout=timeout)
        event.callbacks.append(
            lambda ev: outcomes[n].append((world.now, ev.ok, ev.value)))
        event.defused = True

    for n, (exporter, at, timeout, delay) in enumerate(calls):
        world.process(caller(n, exporter, at, timeout, delay))
    world.run()

    for n, (exporter, _, timeout, _) in enumerate(calls):
        due = sent[n] + timeout
        assume(arrived.get(n) != due)  # a tie at one instant is unordered
        assert len(outcomes[n]) == 1, (n, outcomes[n])
        when, ok, value = outcomes[n][0]
        if n in arrived and arrived[n] < due:
            assert exporter not in muted
            assert (when, ok, value) == (arrived[n], True, n)
        else:
            assert not ok and isinstance(value, RpcTimeout)
            assert when == due
            assert str(value) == (f"call 'echo' on {proxies[exporter].pointer}"
                                  f" timed out after {timeout}s")
    assert rpc._pending == {} and rpc._agenda == []
