"""Tests for global pointers and RPC."""

import pytest

from repro import Tracer
from repro.dapplet import Dapplet
from repro.errors import ReproError, RpcError, RpcTimeout, SerializationError
from repro.messages import dumps
from repro.net import ConstantLatency, FaultPlan
from repro.rpc import RemoteProxy, export
from repro.services.sync import DistributedSemaphore, SyncHost
from repro.world import World
from tests.messages.test_codec_oracle import oracle_dumps


class Counter:
    """A plain object to export."""

    def __init__(self):
        self.value = 0

    def add(self, n):
        self.value += n
        return self.value

    def get(self):
        return self.value

    def fail(self):
        raise ValueError("deliberate")

    def _private(self):
        return "secret"


class Plain(Dapplet):
    kind = "plain"


@pytest.fixture
def world():
    return World(seed=2, latency=ConstantLatency(0.01))


@pytest.fixture
def nodes(world):
    server = world.dapplet(Plain, "caltech.edu", "server")
    client = world.dapplet(Plain, "rice.edu", "client")
    return server, client


def test_sync_call_returns_value(world, nodes):
    server, client = nodes
    counter = Counter()
    remote = export(server, counter, name="counter")
    proxy = RemoteProxy(client, remote.pointer)
    results = []

    def caller():
        v1 = yield proxy.call("add", 5)
        v2 = yield proxy.call("add", 2)
        v3 = yield proxy.call("get")
        results.append((v1, v2, v3))

    p = world.process(caller())
    world.run(until=p)
    assert results == [(5, 7, 7)]
    assert counter.value == 7
    assert remote.invocations == 3


def test_async_invoke_is_one_way(world, nodes):
    server, client = nodes
    counter = Counter()
    remote = export(server, counter, name="counter")
    proxy = RemoteProxy(client, remote.pointer)
    proxy.invoke("add", 10)
    proxy.invoke("add", 1)
    world.run()
    assert counter.value == 11


def test_remote_exception_propagates(world, nodes):
    server, client = nodes
    remote = export(server, Counter(), name="counter")
    proxy = RemoteProxy(client, remote.pointer)
    caught = []

    def caller():
        try:
            yield proxy.call("fail")
        except RpcError as exc:
            caught.append((exc.remote_type, exc.remote_message))

    p = world.process(caller())
    world.run(until=p)
    assert caught == [("ValueError", "deliberate")]
    assert remote.errors == 1


class Refused(ReproError):
    """An error whose fields travel with it."""

    rpc_fields = ("where", "path")

    def __init__(self, message, *, where="", path=()):
        super().__init__(message)
        self.where = where
        self.path = path


class Refuser:
    def refuse(self):
        raise Refused("no", where="here", path=("a", "b"))


def _posted(dapplet):
    """Record every message ``dapplet`` posts."""
    sent, post = [], dapplet.post
    dapplet.post = lambda to, message: (sent.append(message),
                                        post(to, message))
    return sent


def test_an_error_with_no_declared_fields_keeps_its_reply_string(world,
                                                                 nodes):
    server, client = nodes
    replies = _posted(server)
    proxy = RemoteProxy(client, export(server, Counter(), name="c").pointer)
    caught = []

    def caller():
        try:
            yield proxy.call("fail")
        except RpcError as exc:
            caught.append(exc.remote_fields)

    world.run(until=world.process(caller()))
    assert caught == [{}]
    (reply,) = replies
    assert dumps(reply) == oracle_dumps(reply) == (
        '{"t":"rpc.reply","f":{"call_id":1,"ok":false,'
        '"error_type":"ValueError","error_message":"deliberate"}}')


@pytest.mark.parametrize("encoded", [False, True])
def test_declared_error_fields_reach_the_caller_intact(encoded):
    world = World(seed=2, latency=ConstantLatency(0.01), encoded=encoded)
    server = world.dapplet(Plain, "caltech.edu", "server")
    client = world.dapplet(Plain, "rice.edu", "client")
    proxy = RemoteProxy(client, export(server, Refuser(), name="r").pointer)
    caught = []

    def caller():
        try:
            yield proxy.call("refuse")
        except RpcError as exc:
            caught.append((exc.remote_type, exc.remote_message,
                           exc.remote_fields))

    world.run(until=world.process(caller()))
    assert caught == [("Refused", "no", {"where": "here", "path": ("a", "b")})]
    assert type(caught[0][2]["path"]) is tuple


def test_one_way_invoke_draws_no_call_id(world, nodes):
    server, client = nodes
    invokes = _posted(client)
    proxy = RemoteProxy(client, export(server, Counter(), name="c").pointer)

    def caller():
        proxy.invoke("add", 1)
        yield proxy.call("get")

    world.run(until=world.process(caller()))
    one_way, call = invokes
    assert (one_way.call_id, call.call_id) == (0, 1)
    assert dumps(one_way) == ('{"t":"rpc.invoke","f":{"method":"add",'
                              '"args":{"$tuple":[1]}}}')


def test_unknown_and_private_methods_rejected(world, nodes):
    server, client = nodes
    remote = export(server, Counter(), name="counter")
    proxy = RemoteProxy(client, remote.pointer)
    caught = []

    def caller():
        for method in ("nope", "_private", "value"):
            try:
                yield proxy.call(method)
            except RpcError as exc:
                caught.append(exc.remote_type)

    p = world.process(caller())
    world.run(until=p)
    # 'value' is an attribute, not callable -> AttributeError too.
    assert caught == ["AttributeError", "PermissionError", "AttributeError"]


def test_call_timeout(world, nodes):
    server, client = nodes
    remote = export(server, Counter(), name="counter")
    remote.unexport()  # pointer now dangles
    proxy = RemoteProxy(client, remote.pointer)
    caught = []

    def caller():
        try:
            yield proxy.call("get", timeout=1.0)
        except RpcTimeout:
            caught.append(world.now)

    p = world.process(caller())
    world.run(until=p)
    assert caught == [1.0]


def test_late_reply_after_timeout_is_dropped(world):
    """Slow network: the reply lands after the caller gave up."""
    world = World(seed=2, latency=ConstantLatency(2.0))
    server = world.dapplet(Plain, "caltech.edu", "server")
    client = world.dapplet(Plain, "rice.edu", "client")
    counter = Counter()
    remote = export(server, counter, name="counter")
    proxy = RemoteProxy(client, remote.pointer)
    caught = []

    def caller():
        try:
            yield proxy.call("add", 1, timeout=0.5)
        except RpcTimeout:
            caught.append("timeout")

    p = world.process(caller())
    world.run(until=p)
    world.run()  # the late reply arrives and must be ignored
    assert caught == ["timeout"]
    assert counter.value == 1  # the call *did* execute remotely


def test_kwargs_roundtrip(world, nodes):
    server, client = nodes

    class Greeter:
        def greet(self, name, punctuation="!"):
            return f"hello {name}{punctuation}"

    remote = export(server, Greeter(), name="greeter")
    proxy = RemoteProxy(client, remote.pointer)
    results = []

    def caller():
        r = yield proxy.call("greet", "mani", punctuation="?")
        results.append(r)

    p = world.process(caller())
    world.run(until=p)
    assert results == ["hello mani?"]


def test_rpc_reliable_over_lossy_network():
    world = World(seed=5, latency=ConstantLatency(0.01),
                  faults=FaultPlan(drop_prob=0.3),
                  endpoint_options={"rto_initial": 0.05})
    server = world.dapplet(Plain, "caltech.edu", "server")
    client = world.dapplet(Plain, "rice.edu", "client")
    counter = Counter()
    remote = export(server, counter, name="counter")
    proxy = RemoteProxy(client, remote.pointer)
    results = []

    def caller():
        for i in range(10):
            v = yield proxy.call("add", 1)
            results.append(v)

    p = world.process(caller())
    world.run(until=p)
    assert results == list(range(1, 11))


def test_two_proxies_one_object(world, nodes):
    server, client = nodes
    other = world.dapplet(Plain, "utk.edu", "other")
    counter = Counter()
    remote = export(server, counter, name="counter")
    p1 = RemoteProxy(client, remote.pointer)
    p2 = RemoteProxy(other, remote.pointer)
    results = []

    def c1():
        results.append((yield p1.call("add", 1)))

    def c2():
        results.append((yield p2.call("add", 1)))

    a, b = world.process(c1()), world.process(c2())
    world.run()
    assert sorted(results) == [1, 2]
    assert counter.value == 2



# -- one reply half per calling dapplet ----------------------------------------


def test_a_calling_dapplet_has_one_reply_inbox_however_many_proxies(world,
                                                                   nodes):
    server, client = nodes
    other = world.dapplet(Plain, "utk.edu", "other")
    pointers = [export(server, Counter(), name=f"c{i}").pointer
                for i in range(8)]
    inboxes, processes = len(client.inboxes), len(client._processes)
    proxies = [RemoteProxy(client, pointer) for pointer in pointers]
    assert len(client.inboxes) == inboxes + 1
    assert len(client._processes) == processes + 1
    results = []

    def caller(proxy):
        results.append((yield proxy.call("add", 1)))

    for proxy in [*proxies, RemoteProxy(other, pointers[0])]:
        world.process(caller(proxy))
    world.run()
    assert sorted(results) == [1] * 7 + [1, 2]
    # The exporter answers each calling dapplet on one channel.
    assert set(server._posts) == {client._rpc_client.inbox.address,
                                  other._rpc_client.inbox.address}


def test_concurrent_timed_calls_share_one_deadline_wake(world, nodes):
    server, client = nodes
    proxy = RemoteProxy(client, export(server, Counter(),
                                       name="counter").pointer)
    armed = []
    call_later = world.kernel.call_later

    def counting(delay, fn):
        if fn.__module__ == "repro.rpc.proxy":
            armed.append(delay)
        return call_later(delay, fn)

    world.kernel.call_later = counting
    results = []

    def caller():
        results.append((yield proxy.call("add", 1, timeout=5.0)))

    for _ in range(50):
        world.process(caller())
    world.run()
    assert sorted(results) == list(range(1, 51))
    assert 1 <= len(armed) <= 2
    # A send that raises leaves nothing pending and nothing on the agenda.
    with pytest.raises(SerializationError):
        proxy.call("add", object(), timeout=5.0)
    rpc = client._rpc_client
    assert rpc._pending == {} and rpc._agenda == []


def test_agenda_stays_bounded_by_pending_behind_a_long_call(world, nodes):
    """Answered timed calls queued behind one long pending call are
    compacted away: the agenda grows with what is pending, not with
    what was ever called."""
    server, client = nodes
    proxy = RemoteProxy(client, export(server, Counter(),
                                       name="counter").pointer)
    silent = RemoteProxy(client, server.address.inbox("nowhere"))
    long_call = silent.call("add", 1, timeout=1000.0)
    long_call.defused = True
    rpc = client._rpc_client
    sizes = []

    def caller():
        for _ in range(2000):
            yield proxy.call("add", 1, timeout=2000.0)
            sizes.append(len(rpc._agenda))

    world.run(until=world.process(caller()))
    assert len(rpc._pending) == 1 and max(sizes) <= 4
    world.run()
    assert not long_call.ok and isinstance(long_call.value, RpcTimeout)
    assert world.now == pytest.approx(1000.0)
    assert rpc._pending == {} and rpc._agenda == []


# -- blocking methods: a method may return an event --------------------------


class Gate:
    """An object whose methods block on events it hands back."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.doors = {}

    def wait(self, door):
        return self.doors.setdefault(door, self.kernel.event())

    def open(self, door, value):
        self.doors[door].succeed(value)
        return "opened"

    def slam(self, door):
        self.doors[door].fail(KeyError(door))
        return "slammed"

    def later(self, delay):
        return self.kernel.timeout(delay, value="late")


def test_method_returning_a_pending_event_answers_when_it_fires(world, nodes):
    server, client = nodes
    remote = export(server, Gate(world.kernel), name="gate")
    proxy = RemoteProxy(client, remote.pointer)
    log = []

    def waiter():
        log.append(("waited", (yield proxy.call("wait", "a")), world.now))

    def opener():
        yield world.kernel.timeout(1.0)
        # Served while the first call is still blocked at the host.
        log.append(("opener", (yield proxy.call("open", "a", 42)), world.now))

    world.process(waiter())
    world.process(opener())
    world.run()
    # One reply channel, FIFO: open's own answer left before the event
    # it triggered was processed.
    assert [entry[:2] for entry in log] == [("opener", "opened"),
                                            ("waited", 42)]
    assert all(t > 1.0 for _, _, t in log)
    assert remote.invocations == 2 and remote.errors == 0


def test_failing_event_reaches_the_caller_as_a_typed_rpc_error(world, nodes):
    server, client = nodes
    remote = export(server, Gate(world.kernel), name="gate")
    proxy = RemoteProxy(client, remote.pointer)
    caught = []

    def waiter():
        try:
            yield proxy.call("wait", "a")
        except RpcError as exc:
            caught.append((exc.remote_type, exc.remote_message))

    def slammer():
        yield world.kernel.timeout(0.5)
        yield proxy.call("slam", "a")

    world.process(waiter())
    world.process(slammer())
    world.run()  # the failed event was defused: nothing crashes the run
    assert caught == [("KeyError", "'a'")]
    assert remote.errors == 1


def test_already_processed_event_is_answered_at_once(world, nodes):
    server, client = nodes
    gate = Gate(world.kernel)
    gate.wait("done").succeed("now")
    world.run()
    assert gate.doors["done"].processed
    proxy = RemoteProxy(client, export(server, gate, name="gate").pointer)
    got = []

    def caller():
        got.append(((yield proxy.call("wait", "done")), world.now))

    world.run(until=world.process(caller()))
    assert got == [("now", pytest.approx(0.02))]


def test_one_way_invoke_of_a_blocking_method_drops_the_outcome(world, nodes):
    server, client = nodes
    gate = Gate(world.kernel)
    remote = export(server, gate, name="gate")
    proxy = RemoteProxy(client, remote.pointer)
    proxy.invoke("wait", "ok")
    proxy.invoke("wait", "bad")
    world.run()
    gate.doors["ok"].succeed("ignored")
    gate.doors["bad"].fail(RuntimeError("nobody is told"))
    world.run()  # the failure is defused, not raised out of the run
    assert client._rpc_client._pending == {}
    assert remote.errors == 1
    assert server.endpoint.stats.data_sent == 0  # nothing was answered


def test_blocked_callers_are_answered_in_firing_order(world, nodes):
    server, client = nodes
    proxy = RemoteProxy(client, export(server, Gate(world.kernel),
                                       name="gate").pointer)
    order = []

    def caller(delay):
        yield proxy.call("later", delay)
        order.append(delay)

    for delay in (3.0, 1.0, 2.0):
        world.process(caller(delay))
    world.run()
    assert order == [1.0, 2.0, 3.0]


def test_event_firing_after_the_exporter_stopped_is_dropped(world, nodes):
    server, client = nodes
    remote = export(server, Gate(world.kernel), name="gate")
    proxy = RemoteProxy(client, remote.pointer)
    outcome = []

    def caller():
        try:
            yield proxy.call("later", 2.0, timeout=3.0)
        except RpcTimeout:
            outcome.append("timeout")

    world.process(caller())
    world.kernel.call_later(1.0, server.stop)
    world.run()  # posting from a stopped dapplet would raise AddressError
    assert outcome == ["timeout"]


# -- values the wire cannot carry ---------------------------------------------


def test_unencodable_return_value_is_an_error_reply_not_a_crash(world, nodes):
    server, client = nodes

    class Svc:
        def bad(self):
            return object()

        def worse(self):
            return {1, 2}

        def good(self):
            return "fine"

    remote = export(server, Svc(), name="svc")
    proxy = RemoteProxy(client, remote.pointer)
    log = []

    def caller():
        for method in ("bad", "worse"):
            try:
                yield proxy.call(method)
            except RpcError as exc:
                log.append(exc.remote_type)
        log.append((yield proxy.call("good")))  # the server still serves

    world.run(until=world.process(caller()))
    world.run()
    assert log == ["SerializationError", "SerializationError", "fine"]
    assert remote.errors == 2 and remote.server.is_alive

    # Caller-side mirror: the call raises where it is made, and leaves
    # no call id waiting for a reply that will never come.
    with pytest.raises(SerializationError):
        proxy.call("good", object())
    assert client._rpc_client._pending == {}


# -- a sync host is an export like any other ---------------------------------


def test_only_the_seven_operations_of_a_sync_host_are_callable(world, nodes):
    server, client = nodes
    host = SyncHost(server)
    proxy = RemoteProxy(client, host.pointer)
    refused = {}

    def caller():
        for method in ("unexport", "_named", "_channel", "pointer",
                       "dapplet"):
            try:
                yield proxy.call(method)
            except RpcError as exc:
                refused[method] = exc.remote_type
        assert (yield proxy.call("sem_acquire", "s", 1)) is None

    world.run(until=world.process(caller()))
    assert refused == {"unexport": "AttributeError",
                       "_named": "PermissionError",
                       "_channel": "PermissionError",
                       "pointer": "AttributeError",
                       "dapplet": "AttributeError"}
    public = {name for name in dir(host)
              if not name.startswith("_") and callable(getattr(host, name))}
    assert public == {"barrier_arrive", "sem_acquire", "sem_release",
                      "sa_set", "sa_get", "ch_put", "ch_get"}


def test_sync_host_on_an_owned_dapplet_passes_the_rpc_gate():
    tracer = Tracer(categories=("reg",))
    world = World(seed=2, latency=ConstantLatency(0.01), tracer=tracer)
    alice = world.registry.principal("alice", "acme")
    carol = world.registry.principal("carol", "acme")
    mallory = world.registry.principal("mallory", "evil")
    host = SyncHost(world.dapplet(Plain, "caltech.edu", "host", owner=alice))
    handles = {
        who.name: DistributedSemaphore(
            world.dapplet(Plain, f"{who.name}.edu", who.name, owner=who),
            host.pointer, "s", permits=3)
        for who in (alice, carol, mallory)}
    world.registry.grant(carol, "acme/**", ("rpc.call:*",))
    outcomes = {}

    def worker(name, sem):
        try:
            yield sem.acquire()
            outcomes[name] = "acquired"
        except RpcError as exc:
            outcomes[name] = (exc.remote_type, exc.remote_message)

    for name, sem in handles.items():
        world.process(worker(name, sem))
    world.run()
    assert outcomes["alice"] == "acquired"      # same owner
    assert outcomes["carol"] == "acquired"      # rpc.call:* grant
    assert outcomes["mallory"] == (
        "PermissionError",
        "capability:rpc.call:sem_acquire denied for principal 'mallory'")
    denied = [e.fields for e in tracer.events if e.name == "deny"]
    assert [(f["principal"], f["verb"]) for f in denied] == \
        [("mallory", "rpc.call:sem_acquire")]
