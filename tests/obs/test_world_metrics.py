"""``World.metrics()``: every layer's counters in one flat snapshot.

One world runs a directory, a DAppStore, an owned session (so the
registry checks it), a resolver and a token ring; the snapshot must
carry each of those layers, agree with the per-component ``.stats`` the
benchmarks read, repeat exactly under the same seed, and never fall
when dapplets stop or restart.
"""

from collections import Counter

from benchmarks.e20.workloads import world_counters
from repro import Dapplet, Initiator, SessionSpec, World
from repro.messages import Text
from repro.net import ConstantLatency
from repro.store import MemoryBackend

LAYERS = {"net", "ep", "session", "resolver", "directory", "dappstore",
          "registry", "tokens"}


class Echo(Dapplet):
    kind = "echo"

    def on_session_start(self, ctx):
        self.ctx = ctx


def pair_spec() -> SessionSpec:
    spec = SessionSpec("echo")
    spec.add_member("a", inboxes=("in",))
    spec.add_member("b", inboxes=("in",))
    spec.bind("a", "out", "b", "in")
    return spec


def build(seed: int = 7) -> World:
    world = World(seed=seed, latency=ConstantLatency(0.01))
    alice = world.registry.principal("alice", org="acme")
    world.registry.grant(alice, "acme/**", ("session.establish",))
    world.registry.grant(alice, "tokens", ("token.request:*",))
    world.host_directory(2)
    world.host_dappstore(2)
    service = world.host_token_shards(2, {"red": 2, "blue": 1})
    a = world.dapplet(Echo, "caltech.edu", "a", owner=alice)
    b = world.dapplet(Echo, "rice.edu", "b", owner=alice)
    initiator = world.dapplet(Initiator, "caltech.edu", "init", owner=alice)
    agent = service.attach(a)

    def director():
        yield world.kernel.timeout(2.0)  # leases granted and gossiped
        session = yield from initiator.establish(pair_spec(), timeout=30.0)
        a.ctx.outbox("out").send(Text("hello"))
        yield b.ctx.inbox("in").receive()
        granted = yield agent.request({"red": 1, "blue": 1})
        agent.release(granted)
        yield from session.terminate()

    # Replicas gossip forever: bound every run.
    world.run(until=world.process(director()))
    world.run(until=world.now + 1.0)
    return world


def test_net_and_ep_entries_are_the_live_components_sums():
    world = build()
    metrics = world.metrics()
    expected: Counter = Counter()
    for key, value in world.network.stats.snapshot().items():
        expected["net." + key] += value
    for dapplet in world.dapplets():
        for key, value in dapplet.endpoint.stats.snapshot().items():
            expected["ep." + key] += value
    wire = {k: v for k, v in metrics.items() if k.startswith(("net.", "ep."))}
    assert wire == dict(expected) == dict(world_counters(world))
    assert metrics["net.sent"] > 0 and metrics["ep.delivered"] > 0


def test_every_layer_in_the_world_has_its_prefix():
    metrics = build().metrics()
    assert {key.split(".")[0] for key in metrics} == LAYERS
    assert list(metrics) == sorted(metrics)
    assert metrics["session.commits"] == 2
    assert metrics["resolver.misses"] >= 1
    assert metrics["directory.grants"] >= 1
    assert metrics["dappstore.grants"] >= 1
    assert metrics["registry.allows"] >= 1
    assert metrics["tokens.grants"] == 1


def test_same_seed_gives_equal_metrics():
    assert build(seed=3).metrics() == build(seed=3).metrics()


def test_no_entry_falls_across_restart_and_stop():
    world = build()
    before = world.metrics()
    world.restart_dapplet("b")
    world.run(until=world.now + 1.0)
    after_restart = world.metrics()
    world.get("a").stop()
    world.directory_replicas[0].stop()
    world.run(until=world.now + 1.0)
    after_stop = world.metrics()
    for earlier, later in ((before, after_restart),
                           (after_restart, after_stop)):
        assert set(earlier) <= set(later)
        assert all(later[key] >= n for key, n in earlier.items())
    # The stopped dapplets' endpoints still count in the totals.
    assert after_stop["ep.data_sent"] > sum(
        d.endpoint.stats.data_sent for d in world.dapplets())


def test_store_counters_reach_the_world():
    """A world with a store journals every dapplet's state; its counts
    reach ``store.*``, and survive a restart."""
    world = World(seed=1, store=MemoryBackend())
    d = world.dapplet(Echo, "caltech.edu", "d")
    assert world.metrics()["store.recoveries"] == 1
    d.state.region("r").set("k", 1)
    d.state.region("r").set("k", 2)
    assert world.metrics()["store.appends"] == d.state.durable.stats.appends
    assert d.state.durable.stats.appends >= 2
    reborn = world.restart_dapplet("d")
    assert reborn.state.region("r").get("k") == 2
    metrics = world.metrics()
    assert metrics["store.recoveries"] == 2
    assert metrics["store.replayed"] == reborn.state.durable.stats.replayed
