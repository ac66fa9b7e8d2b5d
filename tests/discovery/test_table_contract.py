"""One contract, two catalogs.

The address directory and the DAppStore are record types on the same
lease-replicated table (:mod:`repro.discovery.table`), so every lease
rule must hold for both: grant, renew (a renewal moves only the home's
deadline), the four denials, expiry of a silent owner, tombstone
collection, agent failover, the drop-and-count rule for malformed
gossip, the "absent vs unreachable" rule of the client, the hygiene of
the one RPC proxy every client calls the replicas through, what
anti-entropy sends (only the rows a peer is not known to hold), and
the liveness rules of homes and heartbeats: a dead home under live
owners, a partition relayed by the third replica, a restarted home and
a renewal sent to a replica that is not the home. Each test runs once
per catalog.
"""

import pytest

from repro import Tracer, World
from repro.discovery.table import Gossip
from repro.errors import RpcError
from repro.net import ConstantLatency
from repro.rpc import RemoteProxy

from tests.discovery.catalogs import DAPPSTORE, DIRECTORY
from tests.discovery.conftest import Worker, drain, fast_config

N_REPLICAS = 3


@pytest.fixture(params=[DIRECTORY, DAPPSTORE], ids=["directory", "dappstore"])
def catalog(request):
    return request.param


class Deployment:
    """A world hosting one catalog, with owned dapplets claiming rows."""

    def __init__(self, catalog, *, seed=7, tracer=None,
                 endpoint_options=None, **overrides):
        self.catalog = catalog
        self.cfg = fast_config(**overrides)
        self.world = World(seed=seed, latency=ConstantLatency(0.01),
                           tracer=tracer, endpoint_options=endpoint_options)
        self.owner = self.world.registry.principal("alice", org="acme")
        self.replicas = getattr(self.world, catalog.host)(
            N_REPLICAS, config=self.cfg)
        self.addresses = [r.address for r in self.replicas]

    def member(self, host, name):
        """An owned dapplet: returns (dapplet, its agent, its row name)."""
        dapplet = self.world.dapplet(Worker, host, name, owner=self.owner)
        return (dapplet, getattr(dapplet, self.catalog.agent_attr),
                self.catalog.row(dapplet))

    def client(self, dapplet):
        return getattr(self.world, self.catalog.client_for)(dapplet)

    def claimed(self, agent):
        return getattr(agent, self.catalog.claimed)

    def home_of(self, agent):
        return next(r for r in self.replicas if r.address == agent.replica)

    def live(self):
        return [r for r in self.replicas if not r.stopped]

    def serving(self, replicas):
        """{replica name: the rows it serves} for ``replicas``."""
        return {r.name: {rec.name for rec in r.live_records()}
                for r in replicas}

    def run(self, body):
        self.world.run(until=self.world.process(body()))
        drain(self.world)


def test_grant_then_renewals_move_only_the_home_deadline(catalog):
    """A renewal is not a write: the home's deadline moves and nothing
    else does. The peers' copies stay as the grant left them, and they
    serve the row on the home's heartbeat alone."""
    dep = Deployment(catalog)
    _, agent, row = dep.member("host.edu", "alice")

    def director():
        yield dep.claimed(agent)
        home = dep.home_of(agent)
        granted = home.store[row]
        assert (granted.epoch, granted.version, granted.alive) == (1, 0, True)
        assert granted.home == str(home.address)
        yield dep.world.kernel.timeout(3 * dep.cfg.gossip_interval)
        peers = [r for r in dep.replicas if r is not home]
        copies = [r.store[row] for r in peers]
        merged = sum(r.stats.gossip_merged for r in dep.replicas)
        yield dep.world.kernel.timeout(3 * dep.cfg.ttl)
        renewed = home.store[row]
        assert agent.renewals > 0
        assert home.stats.renewals == agent.renewals
        assert renewed.stamp == granted.stamp
        assert renewed.expires_at > granted.expires_at + 2 * dep.cfg.ttl
        assert [r.store[row] for r in peers] == copies
        assert sum(r.stats.gossip_merged for r in dep.replicas) == merged
        assert all(row in rows for rows in dep.serving(dep.replicas).values())
        assert sum(r.stats.grants for r in dep.replicas) == 1

    dep.run(director)


def test_name_taken_while_a_live_lease_sits_at_another_address(catalog):
    dep = Deployment(catalog)
    holder, agent, row = dep.member("host.edu", "alice")
    usurper, _, _ = dep.member("other.edu", "mallory")
    rival = catalog.rival(usurper, dep.addresses, dep.cfg, row)

    def director():
        yield dep.claimed(agent)
        yield dep.world.kernel.timeout(2 * dep.cfg.ttl)
        assert not dep.claimed(rival).triggered
        assert sum(r.stats.denials for r in dep.replicas) >= 1
        assert dep.home_of(agent).store[row].address == holder.address
        # The holder goes silent: its lease runs out and the rival wins
        # with a higher epoch that supersedes the old row everywhere.
        holder.stop()
        yield dep.claimed(rival)
        yield dep.world.kernel.timeout(4 * dep.cfg.gossip_interval)
        for r in dep.replicas:
            assert r.store[row].alive
            assert r.store[row].address == usurper.address
            assert r.store[row].epoch == rival.epoch > agent.epoch

    dep.run(director)


def _denial(call):
    """Yield ``call`` (an RPC event) and return the remote error's
    ``(remote_type, reason)``."""
    with pytest.raises(RpcError) as info:
        yield call
    return info.value.remote_type, info.value.remote_message


def test_renew_denials_stale_epoch_and_unknown(catalog):
    """The three renewal denials, as the facet's caller sees them. A
    slow sweeper leaves a lease past its TTL in the store for the third."""
    dep = Deployment(catalog, sweep_interval=5.0)
    owner, agent, row = dep.member("host.edu", "alice")
    probe = dep.world.dapplet(Worker, "probe.edu", "probe")

    def director():
        yield dep.claimed(agent)
        home = dep.home_of(agent)
        proxy = RemoteProxy(probe, home.address.inbox(catalog.inbox))
        denials = home.stats.denials
        assert (yield from _denial(proxy.call(
            "renew", row, agent.epoch + 5, timeout=1.0))) \
            == ("LeaseDenied", "stale-epoch")
        assert (yield from _denial(proxy.call(
            "renew", "no/such/row", 1, timeout=1.0))) \
            == ("LeaseDenied", "unknown")
        assert home.store[row].epoch == agent.epoch   # untouched
        owner.stop()
        yield dep.world.kernel.timeout(dep.cfg.ttl + 0.1)
        assert home.store[row].alive                  # not swept yet
        assert (yield from _denial(proxy.call(
            "renew", row, agent.epoch, timeout=1.0))) \
            == ("LeaseDenied", "expired")
        assert home.stats.denials == denials + 3

    dep.run(director)


def test_renew_after_the_ttl_but_before_the_sweep_does_not_revive(catalog):
    """Regression: renewal tested ``alive`` where lookup and claim test
    ``live_at(now)``, so a replica answered "absent" and then granted a
    renewal of the same lapsed lease — which a peer holding the swept
    tombstone at an equal stamp would roll back by gossip."""
    dep = Deployment(catalog, sweep_interval=5.0)
    owner, agent, row = dep.member("host.edu", "alice")
    probe = dep.world.dapplet(Worker, "probe.edu", "probe")
    kernel = dep.world.kernel

    def director():
        yield dep.claimed(agent)
        owner.stop()                          # the agent is halted
        home = dep.home_of(agent)
        proxy = RemoteProxy(probe, home.address.inbox(catalog.inbox))
        t0 = kernel.now
        yield kernel.timeout(dep.cfg.ttl + 0.1)
        assert (yield proxy.call("lookup", row, timeout=1.0)) is None
        yield kernel.timeout(t0 + dep.cfg.ttl + 0.2 - kernel.now)
        assert (yield from _denial(proxy.call(
            "renew", row, agent.epoch, timeout=1.0))) \
            == ("LeaseDenied", "expired")
        assert (yield proxy.call("lookup", row, timeout=1.0)) is None
        assert home.stats.renewals == agent.renewals == 0

    dep.run(director)


def test_a_late_reply_after_failover_is_dropped(catalog):
    """The first replica hears the lookup but its answer is held past
    ``request_timeout``: the client fails over, the second replica's
    answer resolves the call, and the late one is dropped on arrival."""
    dep = Deployment(catalog)
    _, agent, row = dep.member("host.edu", "alice")
    probe = dep.world.dapplet(Worker, "probe.edu", "probe")
    client = type(dep.client(probe))(probe, dep.addresses, config=dep.cfg)
    first, second = dep.replicas[:2]
    faults = dep.world.network.faults
    kernel = dep.world.kernel

    rpc = probe._rpc_client
    late = []

    def note_late(msg):
        # Seen before the dispatcher: a reply with no call waiting is late.
        late.append(msg.call_id not in rpc._pending)
        return msg

    rpc.inbox.delivery_hooks.append(note_late)

    def director():
        yield dep.claimed(agent)
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        lookups = first.stats.lookups, second.stats.lookups
        faults.partition(first.address, probe.address, bidirectional=False)
        kernel.call_later(dep.cfg.request_timeout + 0.1,
                          lambda: faults.heal(first.address, probe.address))
        assert (yield from catalog.find(client, row)) is not None
        assert client.failovers == 1 and client.replica == second.address
        assert (first.stats.lookups, second.stats.lookups) \
            == (lookups[0] + 1, lookups[1] + 1)
        assert late.count(True) == 0
        yield kernel.timeout(10.0)            # the held reply gets through
        assert late.count(True) == 1
        assert rpc._pending == {}

    dep.run(director)


def test_no_call_is_left_pending_at_quiescence(catalog):
    """Every call the agent and the client make is answered or timed
    out: nothing waits in their dapplets' RPC clients once the ring is
    quiet."""
    dep = Deployment(catalog)
    owner, agent, row = dep.member("host.edu", "alice")
    probe = dep.world.dapplet(Worker, "probe.edu", "probe")
    client = dep.client(probe)
    kernel = dep.world.kernel

    def director():
        yield dep.claimed(agent)
        assert owner._rpc_client._pending == {}
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        assert (yield from catalog.find(client, row)) is not None
        assert (yield from catalog.find(client, "no/such/row")) is None
        assert probe._rpc_client._pending == {}
        dep.home_of(agent).stop()             # one call times out
        yield kernel.timeout(dep.cfg.ttl + 4 * dep.cfg.request_timeout)
        assert agent.failovers >= 1

    dep.run(director)
    assert owner._rpc_client._pending == {} == probe._rpc_client._pending


def test_silent_owner_is_tombstoned_then_forgotten(catalog):
    """The home writes the tombstone within ``ttl`` + one sweep of the
    last renewal, and gossip spreads it within the staleness bound. The
    tombstone lives ``tombstone_ttl`` from its writing, so at the bound
    (2.1 s after the stop) it has at least 0.65 s, over three sweeps,
    left everywhere: the check never races its lapse."""
    dep = Deployment(catalog, tombstone_ttl=2.0)
    owner, agent, row = dep.member("host.edu", "alice")
    kernel = dep.world.kernel

    def director():
        yield dep.claimed(agent)
        yield kernel.timeout(2 * dep.cfg.gossip_interval)
        owner.stop()          # silent: no release, heartbeats just cease
        yield kernel.timeout(dep.cfg.staleness_bound(N_REPLICAS))
        for r in dep.replicas:
            assert not r.store[row].alive   # tombstoned, not forgotten
        # Only the home wrote it.
        assert dep.home_of(agent).stats.expiries == 1
        assert sum(r.stats.expiries for r in dep.replicas) == 1
        assert any(row in known for r in dep.replicas
                   for known in r._known.values())
        yield kernel.timeout(dep.cfg.tombstone_ttl
                             + 3 * dep.cfg.gossip_interval)
        for r in dep.replicas:
            assert row not in r.store
            # Nor does any map of what a peer holds name it.
            for stamps in (*r._known.values(), *r._flying.values()):
                assert row not in stamps

    dep.run(director)


def test_agent_failover_raises_the_epoch_and_supersedes_everywhere(catalog):
    dep = Deployment(catalog)
    owner, agent, row = dep.member("host.edu", "alice")

    def director():
        yield dep.claimed(agent)
        assert agent.epoch == 1
        yield dep.world.kernel.timeout(2 * dep.cfg.gossip_interval)
        dep.home_of(agent).stop()
        yield dep.world.kernel.timeout(
            dep.cfg.ttl + 4 * dep.cfg.request_timeout)
        assert agent.failovers >= 1
        assert agent.epoch >= 2
        for r in dep.live():
            assert r.store[row].alive
            assert r.store[row].epoch == agent.epoch
            assert r.store[row].address == owner.address

    dep.run(director)


def test_a_renew_at_a_replica_that_is_not_the_home_is_denied(catalog):
    """Only the home extends a lease. A renewal sent to another replica
    is denied ``not-home``; an agent that gets that answer re-claims
    there with an epoch bump, and that replica becomes the row's home
    everywhere."""
    dep = Deployment(catalog)
    _, agent, row = dep.member("host.edu", "alice")
    probe = dep.world.dapplet(Worker, "probe.edu", "probe")
    kernel = dep.world.kernel

    def director():
        yield dep.claimed(agent)
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        home = dep.home_of(agent)
        other = next(r for r in dep.replicas if r is not home)
        proxy = RemoteProxy(probe, other.address.inbox(catalog.inbox))
        copy = other.store[row]
        assert (yield from _denial(proxy.call(
            "renew", row, agent.epoch, timeout=1.0))) \
            == ("LeaseDenied", "not-home")
        assert other.store[row] == copy
        # Point the agent at the other replica, as a restart of its
        # home would: its next renewal is denied, and it re-claims.
        agent._ix = dep.addresses.index(other.address)
        yield kernel.timeout(dep.cfg.renew_interval
                             + 3 * dep.cfg.gossip_interval)
        assert agent.epoch == 2 and agent.failovers == 0
        for r in dep.replicas:
            assert r.store[row].epoch == 2
            assert r.store[row].home == str(other.address)
        assert all(row in rows for rows in dep.serving(dep.replicas).values())

    dep.run(director)


def test_a_dead_home_keeps_live_owners_rows_until_they_reclaim(catalog):
    """A home that dies takes no live row with it. Its peers serve the
    rows homed there while they heard it within ``ttl``, and before
    that runs out the owners' agents have failed over, re-claimed and
    spread the new epoch (``ttl`` > renew + request timeout + two
    spreads; DISCOVERY.md)."""
    dep = Deployment(catalog, ttl=2.5)
    members = [dep.member(f"h{i}.edu", f"w{i}") for i in range(6)]
    kernel = dep.world.kernel

    def director():
        for _, agent, _ in members:
            yield dep.claimed(agent)
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        dead = dep.home_of(members[0][1])
        orphans = [(agent, row) for _, agent, row in members
                   if agent.replica == dead.address]
        survivors = [r for r in dep.replicas if r is not dead]
        rows = {row for _, _, row in members}
        dead.stop()
        until = kernel.now + 2 * dep.cfg.ttl
        while kernel.now < until:
            for name, serving in dep.serving(survivors).items():
                assert serving == rows, (kernel.now, name, rows - serving)
            yield kernel.timeout(0.05)
        for agent, row in orphans:
            assert agent.epoch == 2 and agent.failovers == 1
            for r in survivors:
                assert r.store[row].home == str(agent.replica)

    dep.run(director)


def test_a_partition_relayed_by_the_third_replica_lapses_nothing(catalog):
    """Two replicas cut off from each other for three ``ttl``, both
    still talking to the third: each hears the other's heartbeat
    through it, so no row lapses anywhere and no stamp moves."""
    dep = Deployment(catalog)
    members = [dep.member(f"h{i}.edu", f"w{i}") for i in range(6)]
    kernel, faults = dep.world.kernel, dep.world.network.faults

    def director():
        for _, agent, _ in members:
            yield dep.claimed(agent)
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        rows = {row for _, _, row in members}
        stamps = {r.name: {row: r.store[row].stamp for row in rows}
                  for r in dep.replicas}
        a, b = dep.replicas[0].address, dep.replicas[1].address
        faults.partition(a, b)
        until = kernel.now + 3 * dep.cfg.ttl
        while kernel.now < until:
            for name, serving in dep.serving(dep.replicas).items():
                assert serving == rows, (kernel.now, name, rows - serving)
            yield kernel.timeout(0.05)
        faults.heal(a, b)
        assert {r.name: {row: r.store[row].stamp for row in rows}
                for r in dep.replicas} == stamps
        assert sum(r.stats.expiries for r in dep.replicas) == 0

    dep.run(director)


def test_a_restarted_homes_dead_owners_lapse_within_the_bound(catalog):
    """A restart brings the replica back at a fresh port, so it is a
    new home: its predecessor's heartbeat stops for good. The rows of
    owners that died with it lapse at every replica, the reborn one
    included, within the staleness bound of the restart; a live owner
    homed there re-claims at the reborn replica."""
    dep = Deployment(catalog)
    members = [dep.member(f"h{i}.edu", f"w{i}") for i in range(8)]
    kernel = dep.world.kernel

    def director():
        for _, agent, _ in members:
            yield dep.claimed(agent)
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        old = dep.home_of(members[0][1])
        homed = [m for m in members if m[1].replica == old.address]
        assert len(homed) >= 2
        (_, keeper, kept), dead = homed[0], homed[1:]
        for dapplet, _, _ in dead:
            dapplet.stop()
        start = kernel.now
        new = dep.world.restart_dapplet(old.name)
        ring = [r for r in dep.replicas if r is not old] + [new]
        gone = {row for _, _, row in dead}
        last_seen = start
        while kernel.now < start + dep.cfg.staleness_bound(N_REPLICAS) + 1:
            if any(gone & rows for rows in dep.serving(ring).values()):
                last_seen = kernel.now
            yield kernel.timeout(0.05)
        assert last_seen - start <= dep.cfg.staleness_bound(N_REPLICAS)
        # Nobody wrote a tombstone for the old home's rows.
        assert all(r.store[row].alive for r in ring for row in gone
                   if row in r.store)
        assert keeper.replica == new.address and keeper.epoch == 2
        for r in ring:
            assert r.store[kept].home == str(new.address)
            assert kept in {rec.name for rec in r.live_records()}

    dep.run(director)


SHORT_RETRIES = {"rto_initial": 0.05, "rto_max": 0.2, "max_retries": 3}


@pytest.mark.parametrize("both_ways", [True, False],
                         ids=["cut-both-ways", "cut-one-way"])
def test_a_home_cut_off_past_forgetting_is_served_again_after_the_heal(
        catalog, both_ways):
    """A home cut off from both peers for longer than ``ttl +
    tombstone_ttl`` (or unable to send to them) while its owner keeps
    renewing there: the peers forget its row, and its map of them still
    says they hold it. Once the cut heals, a peer that was not heard
    within ``ttl`` (or that had not heard the home) is sent every row,
    so every replica serves the row again within a few rounds, at its
    old stamp: no re-claim, no conflicting grant."""
    dep = Deployment(catalog, tombstone_ttl=1.0,
                     endpoint_options=SHORT_RETRIES)
    _, agent, row = dep.member("host.edu", "alice")
    kernel, faults = dep.world.kernel, dep.world.network.faults

    def director():
        yield dep.claimed(agent)
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        home = dep.home_of(agent)
        peers = [r for r in dep.replicas if r is not home]
        stamp = home.store[row].stamp
        assert all(row in rows for rows in dep.serving(dep.replicas).values())
        for peer in peers:
            faults.partition(home.address, peer.address,
                             bidirectional=both_ways)
        yield kernel.timeout(dep.cfg.ttl + dep.cfg.tombstone_ttl
                             + 4 * dep.cfg.gossip_interval)
        for peer in peers:
            assert row not in peer.store
            assert home._known[peer.address].get(row, stamp) == stamp
        assert row in dep.serving([home])[home.name]
        for peer in peers:
            faults.heal(home.address, peer.address)
        yield kernel.timeout(4 * dep.cfg.gossip_interval)
        for r in dep.replicas:
            assert r.store[row].stamp == stamp
        assert all(row in rows for rows in dep.serving(dep.replicas).values())
        assert agent.epoch == 1
        assert sum(r.stats.grants for r in dep.replicas) == 1

    dep.run(director)


def test_a_cut_off_peers_stale_row_is_retired_after_the_heal(catalog):
    """A peer cut off from both others holds a live row whose owner
    releases it meanwhile. The home writes the tombstone and, past
    ``tombstone_ttl``, forgets it everywhere it reached, before the cut
    peer has gone long enough without the home to forget the row. Once
    the cut heals the peer hears the home again, and would serve the
    row for as long as the home lives; instead it resends its rows to a
    home that had not heard it, the home finds the row's deadline long
    past and tombstones it again, and within a few rounds nobody serves
    it."""
    dep = Deployment(catalog, ttl=2.5, tombstone_ttl=1.0,
                     endpoint_options=SHORT_RETRIES)
    _, agent, row = dep.member("host.edu", "alice")
    kernel, faults = dep.world.kernel, dep.world.network.faults

    def director():
        yield dep.claimed(agent)
        yield kernel.timeout(6 * dep.cfg.gossip_interval)
        home = dep.home_of(agent)
        cut = next(r for r in dep.replicas if r is not home)
        others = [r for r in dep.replicas if r is not cut]
        for r in others:
            faults.partition(r.address, cut.address)
        agent._release()
        yield kernel.timeout(dep.cfg.tombstone_ttl + 0.4)
        for r in others:
            assert row not in r.store
        assert cut.store[row].alive and cut._known[home.address][row]
        for r in others:
            faults.heal(r.address, cut.address)
        yield kernel.timeout(4 * dep.cfg.gossip_interval
                             + dep.cfg.sweep_interval)
        assert not any(row in rows
                       for rows in dep.serving(dep.replicas).values())
        for r in dep.replicas:
            assert row not in r.store or not r.store[row].alive
        assert home.stats.expiries == 1
        assert sum(r.stats.expiries for r in dep.replicas) == 1

    dep.run(director)


def test_a_home_dying_before_its_sweep_stretches_the_window_by_a_ttl(
        catalog):
    """The one case the staleness bound does not cover: the owner goes
    silent, then its home dies before its sweep writes the tombstone.
    No one else may write it, so the peers serve the row until ``ttl``
    after they last heard the home, up to ``ttl + (n - 1) *
    gossip_interval`` past the bound (DISCOVERY.md); then it lapses
    everywhere, with no tombstone written."""
    dep = Deployment(catalog)
    owner, agent, row = dep.member("host.edu", "alice")
    kernel = dep.world.kernel
    cfg = dep.cfg

    def director():
        yield dep.claimed(agent)
        yield kernel.timeout(3 * cfg.gossip_interval)
        home = dep.home_of(agent)
        survivors = [r for r in dep.replicas if r is not home]
        owner.stop()
        start = kernel.now
        yield kernel.timeout(cfg.ttl - cfg.sweep_interval / 2)
        assert home.store[row].alive
        home.stop()
        last_seen = kernel.now
        limit = (cfg.staleness_bound(N_REPLICAS) - cfg.cache_ttl
                 + cfg.ttl + (N_REPLICAS - 1) * cfg.gossip_interval)
        while kernel.now < start + limit + 1:
            if any(row in rows for rows in dep.serving(survivors).values()):
                last_seen = kernel.now
            yield kernel.timeout(0.05)
        # Past the bound of a single failure (2.19 s against 1.8 s on
        # this schedule), inside the longer one.
        single = cfg.staleness_bound(N_REPLICAS) - cfg.cache_ttl
        assert single < last_seen - start <= limit
        assert sum(r.stats.expiries for r in dep.replicas) == 0

    dep.run(director)


def test_malformed_gossip_entries_are_dropped_and_counted(catalog):
    """Regression: one bad entry used to raise inside the merge loop and take
    the replica (on the simulator, the whole world) down with it."""
    tracer = Tracer(categories=(catalog.category,))
    dep = Deployment(catalog, tracer=tracer)
    _, agent, row = dep.member("host.edu", "alice")
    probe = dep.world.dapplet(Worker, "probe.edu", "probe")
    out = probe.create_outbox()

    def director():
        yield dep.claimed(agent)
        # The target serves a row homed elsewhere only once it has
        # heard that home's heartbeat.
        yield dep.world.kernel.timeout(3 * dep.cfg.gossip_interval)
        home = dep.home_of(agent)
        target = next(r for r in dep.replicas if r is not home)
        good = home.store[row].to_wire(dep.world.kernel.now)
        bad = ({"n": "x"},                              # missing fields
               "junk",                                  # not a mapping
               dict(good, n=7),                         # name not a string
               dict(good, a="nowhere"),                 # unparsable address
               dict(good, e="one"),                     # non-numeric epoch
               dict(good, tl=float("nan")),             # non-finite TTL
               dict(good, h=5))                         # home not a string
        fresh = dict(good, n="fresh/row")
        out.add(target.gossip_inbox.named_address)
        out.send(Gossip(probe.address, bad[:3] + (fresh,) + bad[3:], False))
        yield dep.world.kernel.timeout(0.1)
        assert target.stats.gossip_rejected == len(bad)
        # A heartbeat vector that is no mapping, and one whose counter
        # is no int, are each one more drop; their entries still merge.
        out.send(Gossip(probe.address, (dict(fresh, n="list/beats"),),
                        False, [1, 2]))
        out.send(Gossip(probe.address, (), False,
                        {"x": "one", str(home.address): 10 ** 6}))
        yield dep.world.kernel.timeout(0.1)
        assert target.stats.gossip_rejected == len(bad) + 2
        assert "list/beats" in target.store
        # The probe is no ring peer: it was answered, not remembered.
        assert set(target._known) == set(target._flying) \
            == set(target.peers)
        # The valid entry of the same message was merged ...
        assert target.store["fresh/row"].address == home.store[row].address
        assert "x" not in target.store and 7 not in target.store
        # ... and the replica is still serving.
        lookups = target.stats.lookups
        client = type(dep.client(probe))(probe, [target.address],
                                         config=dep.cfg)
        assert (yield from catalog.find(client, "fresh/row")) is not None
        assert target.stats.lookups == lookups + 1

    dep.run(director)
    rejects = tracer.select(catalog.category, "gossip_reject")
    assert [(ev.fields["peer"], ev.fields["dropped"]) for ev in rejects] \
        == [(str(probe.address), 7), (str(probe.address), 1),
            (str(probe.address), 1)]


def test_a_quiet_tombstone_only_table_pushes_empty_gossip(catalog):
    """Once every row is a tombstone and nothing changes, each replica
    knows its peers hold all of them: every push carries no entry, and
    none draws a reply. (A push used to carry the whole store, every
    tombstone, every round.)"""
    tracer = Tracer(categories=(catalog.category,))
    dep = Deployment(catalog, tracer=tracer)
    members = [dep.member(f"h{i}.edu", f"w{i}") for i in range(3)]
    kernel = dep.world.kernel
    window = []

    def director():
        for _, agent, _ in members:
            yield dep.claimed(agent)
        for dapplet, _, _ in members:
            dapplet.stop()
        yield kernel.timeout(dep.cfg.staleness_bound(N_REPLICAS)
                             + 4 * dep.cfg.gossip_interval)
        for r in dep.replicas:
            assert {name for name, rec in r.store.items()
                    if not rec.alive} == {row for _, _, row in members}
        window.append(kernel.now)
        rounds = sum(r.stats.gossip_rounds for r in dep.replicas)
        yield kernel.timeout(6 * dep.cfg.gossip_interval)
        window.append(kernel.now)
        assert sum(r.stats.gossip_rounds for r in dep.replicas) \
            == rounds + 6 * N_REPLICAS

    dep.run(director)
    start, end = window
    syncs = [ev for ev in tracer.select(catalog.category, "gossip_sync")
             if start < ev.t <= end]
    assert len(syncs) == 6 * N_REPLICAS          # the pushes; no reply
    assert [ev.fields["received"] for ev in syncs] == [0] * len(syncs)


def test_an_unconfirmed_push_teaches_nothing_and_arrives_after_the_heal(
        catalog):
    """A push whose receipt never confirms leaves the sender's map of
    that peer as it was, so every later push repeats its rows until one
    gets through. The peer is cut off past the retry budget, and the
    row changes at its home meanwhile (its owner releases it)."""
    dep = Deployment(catalog, endpoint_options={
        "rto_initial": 0.05, "rto_max": 0.2, "max_retries": 3})
    _, agent, row = dep.member("host.edu", "alice")
    kernel, faults = dep.world.kernel, dep.world.network.faults

    def director():
        yield dep.claimed(agent)
        yield kernel.timeout(3 * dep.cfg.gossip_interval)
        home = dep.home_of(agent)
        cut = next(r for r in dep.replicas if r is not home)
        others = [r.address for r in dep.replicas if r is not cut]
        for address in others:
            faults.partition(address, cut.address)
        yield kernel.timeout(0.05)            # nothing left in flight
        before = dict(home._known[cut.address])
        gave_up = home.endpoint.stats.gave_up
        agent._release()
        yield kernel.timeout(3.0)
        # The release moved the row on at home, and its pushes to the
        # cut peer ran out of retries: the map still says what it said.
        assert home.store[row].stamp > before[row]
        assert home.endpoint.stats.gave_up > gave_up
        assert home._known[cut.address] == before
        for address in others:
            faults.heal(address, cut.address)
        stamp = home.store[row].stamp
        yield kernel.timeout(4 * dep.cfg.gossip_interval)
        assert cut.store[row].stamp >= stamp
        assert home._known[cut.address][row] >= stamp

    dep.run(director)


def test_client_tells_absent_from_unreachable(catalog):
    """A live replica's "not found" is an answer; a silent ring is an
    error — for lookups and (where the catalog has it) listing."""
    dep = Deployment(catalog)
    _, agent, row = dep.member("host.edu", "alice")
    probe = dep.world.dapplet(Worker, "probe.edu", "probe")
    client = dep.client(probe)

    def director():
        yield dep.claimed(agent)
        yield dep.world.kernel.timeout(3 * dep.cfg.gossip_interval)
        assert (yield from catalog.find(client, "no/such/row")) is None
        # One replica left: failover still finds the row.
        for r in dep.replicas[:-1]:
            r.stop()
        assert (yield from catalog.find(client, row)) is not None
        # None left: the typed error, naming the ring and the timeout.
        dep.replicas[-1].stop()
        with pytest.raises(catalog.unreachable) as info:
            yield from catalog.find(client, row)
        assert f"tried {N_REPLICAS}" in str(info.value)
        assert f"{dep.cfg.request_timeout}s" in str(info.value)
        if hasattr(client, "list"):
            with pytest.raises(catalog.unreachable):
                yield from client.list("acme")

    dep.run(director)


def test_owner_stopping_mid_query_is_the_typed_error_not_a_port_error(catalog):
    """Every replica silent and the asking dapplet stopped between two
    tries: the next request has no channel to its replica yet, and must
    fail like a send on the closed endpoint — which the query loop
    turns into the catalog's error — not as a dapplet lifecycle error.
    The stopped dapplet's own agent ends quietly."""
    dep = Deployment(catalog)
    probe, agent, _ = dep.member("probe.edu", "probe")
    client = dep.client(probe)
    failures = []

    def asker():
        try:
            yield from catalog.find(client, "no/such/row")
        except Exception as exc:  # noqa: BLE001 - the type is the assertion
            failures.append(type(exc))

    def director():
        yield dep.claimed(agent)
        for r in dep.replicas:
            r.stop()
        dep.world.process(asker())
        # Inside the first try's wait (request_timeout is 0.5).
        yield dep.world.kernel.timeout(0.3)
        probe.stop()
        yield dep.world.kernel.timeout(2.0)

    dep.run(director)
    assert failures == [catalog.unreachable]
    assert agent.process.processed and agent.process.ok
