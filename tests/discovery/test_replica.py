"""Integration tests for replicas, agents and resolvers on the simulator."""

import pytest

from repro import DiscoveryError, Initiator, LeaseExpired, World
from repro.discovery import RegistrationAgent, Resolver
from repro.errors import DappletError
from repro.net import ConstantLatency

from tests.discovery.conftest import Worker, drain, fast_config


def make_world(seed=7, n_replicas=3, cfg=None):
    cfg = cfg or fast_config()
    world = World(seed=seed, latency=ConstantLatency(0.01))
    replicas = world.host_directory(n_replicas, config=cfg)
    return world, replicas, cfg


def run_director(world, body):
    done = world.kernel.event()

    def wrapper():
        yield from body
        done.succeed(None)

    world.process(wrapper())
    world.run(until=done)


def test_registration_gossips_to_every_replica():
    world, replicas, cfg = make_world()
    for i in range(3):
        world.dapplet(Worker, f"host{i}.edu", f"w{i}")

    def director():
        yield world.kernel.timeout(1.5)
        for r in replicas:
            assert r.names() == ["w0", "w1", "w2"]
            assert r.names(kind="worker") == ["w0", "w1", "w2"]
        # Load is spread: no single replica granted all the leases.
        grants = [r.stats.grants for r in replicas]
        assert sum(grants) == 3

    run_director(world, director())
    drain(world)


def test_renewals_keep_a_lease_alive_past_its_ttl():
    world, replicas, cfg = make_world()
    w = world.dapplet(Worker, "host.edu", "alice")

    def director():
        yield world.kernel.timeout(3 * cfg.ttl)
        assert w.lease_agent.renewals > 0
        for r in replicas:
            assert "alice" in r.names()

    run_director(world, director())
    drain(world)


def test_silent_death_expires_on_every_replica():
    world, replicas, cfg = make_world()
    w = world.dapplet(Worker, "host.edu", "alice")

    def director():
        yield world.kernel.timeout(1.0)
        w.stop()  # silent: no unregister, heartbeats just cease
        yield world.kernel.timeout(cfg.staleness_bound(len(replicas)) + 0.5)
        for r in replicas:
            assert "alice" not in r.names()
            assert not r.store["alice"].alive  # tombstoned, not forgotten
            assert r.stats.expiries >= 0
        assert sum(r.stats.expiries for r in replicas) >= 1

    run_director(world, director())
    drain(world)


def test_deregister_tombstones_without_waiting_out_the_ttl():
    world, replicas, cfg = make_world()
    w = world.dapplet(Worker, "host.edu", "alice")

    def director():
        yield world.kernel.timeout(1.0)
        w.lease_agent.deregister()
        # Far sooner than ttl + sweep: one delivery + gossip round.
        yield world.kernel.timeout(3 * cfg.gossip_interval)
        for r in replicas:
            assert "alice" not in r.names()

    run_director(world, director())
    drain(world)


def test_tombstones_are_garbage_collected():
    cfg = fast_config(tombstone_ttl=1.0)
    world, replicas, _ = make_world(cfg=cfg)
    w = world.dapplet(Worker, "host.edu", "alice")

    def director():
        yield world.kernel.timeout(0.5)
        w.stop()
        yield world.kernel.timeout(cfg.staleness_bound(3)
                                   + cfg.tombstone_ttl + 3 * cfg.gossip_interval)
        for r in replicas:
            assert "alice" not in r.store

    run_director(world, director())
    drain(world)


def test_registering_a_taken_name_is_denied_until_the_lease_expires():
    world, replicas, cfg = make_world()
    alice = world.dapplet(Worker, "host.edu", "alice")
    usurper = world.dapplet(Worker, "other.edu", "mallory")
    # A second agent claiming "alice" from a different address.
    claim = RegistrationAgent(usurper, world.replica_addresses(),
                              config=cfg, name="alice")

    def director():
        yield world.kernel.timeout(2 * cfg.ttl)
        # As long as the real alice renews, the claim is refused.
        assert not claim.registered.triggered
        assert sum(r.stats.denials for r in replicas) >= 1
        home = next(r for r in replicas
                    if "alice" in r.store and r.store["alice"].alive)
        assert home.store["alice"].address == alice.address
        # Once alice goes silent, her lease expires and the claim wins.
        alice.stop()
        yield claim.registered
        # The new lease carries a higher epoch; give gossip a few rounds
        # to supersede the stale record on the other replicas.
        yield world.kernel.timeout(4 * cfg.gossip_interval)
        entries = [r.store["alice"] for r in replicas
                   if "alice" in r.store and r.store["alice"].alive]
        assert entries
        assert all(e.address == usurper.address for e in entries)

    run_director(world, director())
    drain(world)


def test_agent_fails_over_when_its_home_replica_crashes():
    world, replicas, cfg = make_world()
    w = world.dapplet(Worker, "host.edu", "alice")

    def director():
        yield w.lease_agent.registered
        home = w.lease_agent.replica
        victim = next(r for r in replicas if r.address == home)
        victim.stop()
        yield world.kernel.timeout(cfg.ttl + 4 * cfg.request_timeout)
        assert w.lease_agent.failovers >= 1
        # The re-registration carries a higher epoch, so gossip makes it
        # supersede the stale lease on every survivor.
        assert w.lease_agent.epoch >= 2
        for r in replicas:
            if not r.stopped:
                assert "alice" in r.names()

    run_director(world, director())
    drain(world)


def test_resolver_caches_within_ttl_and_refreshes_after():
    world, replicas, cfg = make_world()
    world.dapplet(Worker, "host.edu", "alice")
    probe = world.dapplet(Worker, "probe.edu", "probe")
    resolver = world.resolver_for(probe)

    def director():
        yield world.kernel.timeout(1.0)
        a1 = yield from resolver.resolve("alice")
        a2 = yield from resolver.resolve("alice")  # immediate: cached
        assert a1 == a2
        assert resolver.stats.hits == 1
        assert resolver.stats.misses == 1
        lookups_before = sum(r.stats.lookups for r in replicas)
        yield world.kernel.timeout(cfg.cache_ttl + 0.1)
        yield from resolver.resolve("alice")       # stale: refreshed
        assert resolver.stats.misses == 2
        assert sum(r.stats.lookups for r in replicas) == lookups_before + 1

    run_director(world, director())
    drain(world)


def test_cache_ttl_zero_disables_caching():
    cfg = fast_config(cache_ttl=0.0)
    world, replicas, _ = make_world(cfg=cfg)
    world.dapplet(Worker, "host.edu", "alice")
    probe = world.dapplet(Worker, "probe.edu", "probe")
    resolver = world.resolver_for(probe)

    def director():
        yield world.kernel.timeout(1.0)
        yield from resolver.resolve("alice")
        yield from resolver.resolve("alice")
        assert resolver.stats.hits == 0
        assert resolver.stats.misses == 2

    run_director(world, director())
    drain(world)


def test_resolver_raises_lease_expired_for_unknown_names():
    world, replicas, cfg = make_world()
    probe = world.dapplet(Worker, "probe.edu", "probe")
    resolver = world.resolver_for(probe)

    def director():
        yield world.kernel.timeout(0.5)
        with pytest.raises(LeaseExpired) as info:
            yield from resolver.resolve("ghost")
        assert info.value.name == "ghost"

    run_director(world, director())
    drain(world)


def test_a_miss_drops_the_names_cache_entry():
    """Regression: only a successful resolve wrote the cache, so a name
    that resolved once and then died kept its expired entry for the
    resolver's whole life. A negative answer and a silent ring both drop
    it."""
    world, replicas, cfg = make_world()
    alice = world.dapplet(Worker, "host.edu", "alice")
    world.dapplet(Worker, "host.edu", "bob")
    probe = world.dapplet(Worker, "probe.edu", "probe")
    resolver = world.resolver_for(probe)

    def director():
        yield world.kernel.timeout(1.0)
        yield from resolver.resolve("alice")
        yield from resolver.resolve("bob")
        assert set(resolver._cache) == {"alice", "bob"}
        alice.stop()
        yield world.kernel.timeout(cfg.staleness_bound(len(replicas)))
        with pytest.raises(LeaseExpired):
            yield from resolver.resolve("alice")
        assert set(resolver._cache) == {"bob"}
        for r in replicas:
            r.stop()
        yield world.kernel.timeout(cfg.cache_ttl)
        with pytest.raises(DiscoveryError) as info:
            yield from resolver.resolve("bob")
        assert not isinstance(info.value, LeaseExpired)
        assert resolver._cache == {}

    run_director(world, director())
    drain(world)


def test_resolver_for_makes_one_resolver_per_dapplet():
    """Regression: every call built a new Resolver, with its own cache
    and its own counter group in ``dapplet.counters``."""
    world, replicas, cfg = make_world()
    probe = world.dapplet(Worker, "probe.edu", "probe")
    resolver = world.resolver_for(probe)
    assert world.resolver_for(probe) is resolver
    assert probe.resolver is resolver
    assert [g.layer for g in probe.counters].count("resolver") == 1
    drain(world)


def test_a_restarted_replica_takes_its_place_in_the_ring():
    """Regression: the reborn replica had no peers, and the ring kept
    the stopped instance's address."""
    world, replicas, cfg = make_world(n_replicas=2)
    alice = world.dapplet(Worker, "host.edu", "alice")
    probe = world.dapplet(Worker, "probe.edu", "probe")
    world.run(until=1.0)
    new = world.restart_dapplet("_dir0")
    survivor = replicas[1]
    assert world.directory_replicas == [new, survivor]
    assert new.peers == (survivor.address,)
    assert survivor.peers == (new.address,)

    def director():
        yield world.kernel.timeout(3 * cfg.gossip_interval)
        resolver = Resolver(probe, [new.address], config=cfg)
        assert (yield from resolver.resolve("alice")) == alice.address

    run_director(world, director())
    drain(world)


def test_agents_follow_a_restarted_replica_to_its_new_port():
    """Regression: an agent kept the replica addresses it was built
    with, so after a restart it renewed against the dead instance's
    port, timed out and failed over."""
    world, replicas, cfg = make_world(n_replicas=2)
    bob = world.dapplet(Worker, "host.edu", "bob")
    agent = bob.lease_agent
    assert agent.replica == replicas[0].address  # bob's home replica
    world.run(until=1.0)
    new = world.restart_dapplet("_dir0")
    assert new.address != replicas[0].address
    world.run(until=3.0)
    assert agent.replicas is world._hosted["directory"][1]
    assert agent.replicas == [new.address, replicas[1].address]
    assert agent.replica == new.address
    assert agent.failovers == 0
    assert new.store["bob"].live_at(world.kernel.now)
    drain(world)


def test_initiator_gets_a_resolver_automatically():
    world, replicas, cfg = make_world()
    init = world.dapplet(Initiator, "cern.ch", "init")
    assert init.resolver is not None
    assert init.resolver.replicas == world.replica_addresses()
    drain(world)


def test_host_directory_guards():
    world, replicas, cfg = make_world()
    with pytest.raises(DappletError):
        world.host_directory(2)  # already hosted
    drain(world)

    bare = World(seed=1)
    w = bare.dapplet(Worker, "host.edu", "w")
    with pytest.raises(DappletError):
        bare.enroll(w)
    with pytest.raises(DappletError):
        bare.resolver_for(w)
    with pytest.raises(DappletError):
        World(seed=2).host_directory([])
