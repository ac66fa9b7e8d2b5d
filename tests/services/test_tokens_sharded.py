"""Integration tests for the sharded token service.

The consistent-hash ring, cross-shard atomic grants, forwarded
release/transfer, directory-based shard resolution, the paper's two
protocols running unchanged over shards — and the distributed deadlock
regressions: wait cycles spanning 2 and 3 shards (invisible to any
single manager) must be broken at exactly one victim by the
edge-chasing probe protocol.
"""

import itertools

import pytest

from repro.dapplet import Dapplet
from repro.errors import DeadlockDetected, TokenError
from repro.net import ConstantLatency
from repro.services.tokens import (
    ALL,
    ReadersWriterLock,
    ShardRing,
    TokenAgent,
    TokenMutex,
    TokenShard,
    resolve_shard,
)
from repro.services.tokens.manager import AGENT_INBOX
from repro.world import World


class Plain(Dapplet):
    kind = "plain"


def colors_per_shard(n_shards, per_shard=1, prefix="c"):
    """Colour names homed on each shard of an ``n_shards`` world.

    Returns ``{shard_name: [colour, ...]}`` with ``per_shard`` colours
    per shard, found by scanning candidates against the same ring
    :meth:`World.host_token_shards` builds.
    """
    ring = ShardRing([f"_tok{i}" for i in range(n_shards)])
    found = {name: [] for name in ring.names}
    for i in itertools.count():
        bucket = found[ring.home(f"{prefix}{i}")]
        if len(bucket) < per_shard:
            bucket.append(f"{prefix}{i}")
        if all(len(v) == per_shard for v in found.values()):
            return found


def make_sharded(initial, n_shards=4, n_agents=3, policy="fifo", seed=3):
    world = World(seed=seed, latency=ConstantLatency(0.01))
    service = world.host_token_shards(n_shards, initial, policy=policy)
    agents = [service.attach(world.dapplet(Plain, f"site{i}.edu", f"d{i}"))
              for i in range(n_agents)]
    return world, service, agents


# -- the ring ---------------------------------------------------------------


def test_ring_home_is_deterministic_and_split_ordered():
    ring = ShardRing(["_tok0", "_tok1", "_tok2"])
    again = ShardRing(["_tok2", "_tok1", "_tok0"])  # order-insensitive
    for key in ("red", "blue", "agent-17", "c99"):
        assert ring.home(key) == again.home(key)
        assert ring.home(key) in ring.names
    groups = ring.split({f"c{i}": 1 for i in range(40)})
    assert [name for name, _ in groups] == sorted(name for name, _ in groups)
    assert sum(len(g) for _, g in groups) == 40


def test_ring_growth_only_moves_keys_to_the_new_shard():
    small = ShardRing([f"_tok{i}" for i in range(3)])
    grown = ShardRing([f"_tok{i}" for i in range(4)])
    for i in range(200):
        before, after = small.home(f"k{i}"), grown.home(f"k{i}")
        assert after == before or after == "_tok3"


def test_ring_validation():
    with pytest.raises(TokenError):
        ShardRing([])


# -- routing and atomic grants ----------------------------------------------


def test_single_shard_roundtrip():
    world, service, (a, b, c) = make_sharded({"red": 2, "blue": 1},
                                             n_shards=1)
    log = []

    def user():
        granted = yield a.request({"red": 1, "blue": 1})
        log.append(granted)
        assert a.holds == {"red": 1, "blue": 1}
        a.release({"red": 1, "blue": 1})

    p = world.process(user())
    world.run(until=p)
    world.run()
    assert log == [{"red": 1, "blue": 1}]
    service.check_conservation()
    assert service.quiescent


def test_multi_shard_request_granted_atomically():
    by_home = colors_per_shard(4)
    initial = {cs[0]: 2 for cs in by_home.values()}
    world, service, (a, b, c) = make_sharded(initial, n_shards=4)
    want = {color: 1 for color in initial}
    assert len({service.ring.home(c) for c in want}) == 4
    log = []

    def user():
        granted = yield a.request(want)
        log.append(granted)
        service.check_conservation()  # mid-hold, instantaneous
        a.release(want)

    p = world.process(user())
    world.run(until=p)
    world.run()
    assert log == [want]
    assert service.grants == 1
    assert service.forwards > 0  # prepares really crossed shards
    service.check_conservation()
    assert service.quiescent


def test_any_shard_accepts_any_colour():
    """An agent talks only to its home shard; colours homed elsewhere
    are reached by manager-to-manager forwarding."""
    by_home = colors_per_shard(3)
    initial = {cs[0]: 1 for cs in by_home.values()}
    world, service, agents = make_sharded(initial, n_shards=3, n_agents=1)
    (a,) = agents
    agent_home = service.ring.home("d0")
    foreign = next(c for c in initial if service.ring.home(c) != agent_home)
    done = []

    def user():
        yield a.request({foreign: 1})
        a.release({foreign: 1})
        done.append(True)

    p = world.process(user())
    world.run(until=p)
    world.run()
    assert done == [True]
    assert service.by_name[agent_home].stats.forwards > 0
    service.check_conservation()


def test_all_sentinel_resolved_per_home_shard():
    by_home = colors_per_shard(3)
    c_a, c_b = by_home["_tok0"][0], by_home["_tok1"][0]
    world, service, agents = make_sharded({c_a: 3, c_b: 5}, n_shards=3,
                                          n_agents=1)
    (a,) = agents
    log = []

    def user():
        granted = yield a.request({c_a: ALL, c_b: ALL})
        log.append(granted)
        a.release({c_a: ALL, c_b: ALL})

    p = world.process(user())
    world.run(until=p)
    world.run()
    assert log == [{c_a: 3, c_b: 5}]
    service.check_conservation()


def test_unknown_colour_fails_request():
    world, service, agents = make_sharded({"red": 1}, n_shards=2, n_agents=1)
    (a,) = agents
    failures = []

    def user():
        try:
            yield a.request({"green": 1})
        except DeadlockDetected:
            failures.append("deadlock")
        except TokenError as exc:
            failures.append(str(exc))

    p = world.process(user())
    world.run(until=p)
    assert failures == ["unknown colour 'green': no token manager holds it"]
    assert service.quiescent


def test_total_tokens_reports_global_totals():
    by_home = colors_per_shard(4)
    initial = {cs[0]: i + 1 for i, cs in enumerate(by_home.values())}
    world, service, agents = make_sharded(initial, n_shards=4, n_agents=1)
    (a,) = agents
    log = []

    def user():
        totals = yield a.total_tokens()
        log.append(totals)

    p = world.process(user())
    world.run(until=p)
    assert log == [initial]
    assert service.total_tokens() == initial


def test_a_restarted_agent_replaces_its_registration():
    """Regression: every restart of an agent's dapplet added one more
    (agent, notice facet) pair to the shard it calls, kept for good."""
    world, service, _ = make_sharded({"red": 1}, n_shards=2, n_agents=0)
    dapplet = world.dapplet(Plain, "site.edu", "d0")
    restarts = 3
    for i in range(restarts + 1):
        if i:
            dapplet = world.restart_dapplet("d0")
        agent = service.attach(dapplet)

        def ask():
            yield agent.total_tokens()

        world.run(until=world.process(ask()))
    assert service.shard_for("d0")._agents == {
        "d0": dapplet.address.inbox(AGENT_INBOX)}


def test_cross_shard_transfer_notifies_receiver():
    """Transferred holdings move at the colour's home shard; the notice
    is forwarded to the *receiver's* home shard, which knows its inbox
    from the receiver's own calls."""
    _transfer_and_notify(away=False)


def test_a_receiver_attached_away_from_home_is_notified():
    """The shard an agent calls away from its home sends the home one
    ``AgentRegister``, so the notice still finds the agent."""
    _transfer_and_notify(away=True)


def _transfer_and_notify(away):
    world = World(seed=3, latency=ConstantLatency(0.01))
    service = world.host_token_shards(4, {"red": 3})
    # Agent names chosen to live on different home shards.
    ring = ShardRing([f"_tok{i}" for i in range(4)])
    names = ["d0"] + [f"d{i}" for i in range(1, 50)
                      if ring.home(f"d{i}") != ring.home("d0")][:1]
    giver_name, receiver_name = names
    a = service.attach(world.dapplet(Plain, "site0.edu", giver_name))
    receiver_node = world.dapplet(Plain, "site1.edu", receiver_name)
    if away:
        other = next(s for s in service.shards
                     if s.name != ring.home(receiver_name))
        b = TokenAgent(receiver_node, other.pointer)
    else:
        b = service.attach(receiver_node)
    log = []

    def giver():
        yield a.request({"red": 3})
        a.transfer(receiver_name, {"red": 2})
        assert a.holds == {"red": 1}

    def receiver():
        yield b.total_tokens()  # registers the inbox at its home shard
        while not b.holds:
            yield world.kernel.timeout(0.1)
        log.append(dict(b.holds))
        log.append(b.transfers_received[0][0])

    world.process(giver())
    world.process(receiver())
    world.run(until=10.0)
    assert log == [{"red": 2}, giver_name]
    notice_facet = receiver_node.address.inbox(AGENT_INBOX)
    assert service.shard_for(receiver_name)._agents[receiver_name] \
        == notice_facet
    service.check_conservation()


# -- distributed deadlock detection -----------------------------------------


def _grab_then_want(world, agent, first, second, outcomes, tag, stagger):
    yield agent.request({first: 1})
    yield world.kernel.timeout(1.0 + stagger)
    try:
        yield agent.request({second: 1})
        outcomes.append((tag, "granted"))
        agent.release({second: 1})
    except DeadlockDetected as exc:
        outcomes.append((tag, "deadlock", exc.cycle))
    agent.release({first: 1})


def test_two_shard_cycle_detected_at_exactly_one_victim():
    """d0 holds x (home shard A) and wants y (home B); d1 holds y and
    wants x. Each shard sees one waiter and one foreign holder — no
    local cycle anywhere — so only the probe protocol can find it."""
    by_home = colors_per_shard(2)
    x, y = by_home["_tok0"][0], by_home["_tok1"][0]
    world, service, (a, b, c) = make_sharded({x: 1, y: 1}, n_shards=2)
    outcomes = []

    world.process(_grab_then_want(world, a, x, y, outcomes, "a", 0.0))
    world.process(_grab_then_want(world, b, y, x, outcomes, "b", 0.3))
    world.run(until=30.0)
    world.run()
    deadlocks = [o for o in outcomes if o[1] == "deadlock"]
    granted = [o for o in outcomes if o[1] == "granted"]
    assert len(deadlocks) == 1
    assert service.deadlocks == 1
    # The survivor's blocked request was granted once the victim aborted.
    assert len(granted) == 1
    # The reported cycle names both agents.
    assert set(deadlocks[0][2]) == {"d0", "d1"}
    service.check_conservation()
    assert service.quiescent
    assert service.total_tokens() == {x: 1, y: 1}


def test_three_shard_cycle_detected_at_exactly_one_victim():
    by_home = colors_per_shard(3)
    x, y, z = (by_home[f"_tok{i}"][0] for i in range(3))
    world, service, (a, b, c) = make_sharded({x: 1, y: 1, z: 1}, n_shards=3)
    outcomes = []

    world.process(_grab_then_want(world, a, x, y, outcomes, "a", 0.0))
    world.process(_grab_then_want(world, b, y, z, outcomes, "b", 0.3))
    world.process(_grab_then_want(world, c, z, x, outcomes, "c", 0.6))
    world.run(until=30.0)
    world.run()
    deadlocks = [o for o in outcomes if o[1] == "deadlock"]
    granted = [o for o in outcomes if o[1] == "granted"]
    assert len(deadlocks) == 1
    assert service.deadlocks == 1
    assert len(granted) == 2
    assert service.probes_sent > 0
    service.check_conservation()
    assert service.quiescent


def test_a_prepare_granted_beside_a_waiter_sweeps_probes_once():
    """Regression: when a prepare was reserved while an older waiter
    stayed queued, the drain swept probes and the prepare swept again,
    so the waiter's probes went to every shard twice."""
    world, service, (holder, waiter, other) = make_sharded(
        {"x": 1, "y": 1}, n_shards=1)
    swept = []

    def run():
        yield holder.request({"x": 1})
        wait = waiter.request({"x": 1})  # queued behind the holder
        yield world.kernel.timeout(1.0)
        before = service.probes_sent
        yield other.request({"y": 1})  # reserved; the waiter stays queued
        swept.append(service.probes_sent - before)
        holder.release({"x": 1})
        yield wait
        waiter.release({"x": 1})
        other.release({"y": 1})

    world.run(until=world.process(run()))
    world.run()
    # One probe for the one scarce holder at the prepare, one at the
    # commit (a new holding); three when the prepare swept twice.
    assert swept == [2]
    service.check_conservation()
    assert service.quiescent


def test_atomic_requests_never_deadlock():
    """All-at-once requests spanning shards are prepared in a global
    acquisition order, so heavy contention causes waits, not cycles."""
    by_home = colors_per_shard(3)
    initial = {cs[0]: 1 for cs in by_home.values()}
    world, service, agents = make_sharded(initial, n_shards=3, n_agents=4,
                                          seed=11)
    completed = []

    def worker(agent, tag):
        for _ in range(5):
            yield agent.request(dict.fromkeys(initial, 1))  # all at once
            yield world.kernel.timeout(0.05)
            agent.release(dict.fromkeys(initial, 1))
        completed.append(tag)

    for i, agent in enumerate(agents):
        world.process(worker(agent, i))
    world.run()
    assert sorted(completed) == [0, 1, 2, 3]
    assert service.deadlocks == 0
    service.check_conservation()
    assert service.quiescent


def test_aborting_a_queued_head_drains_its_followers():
    """Timestamp policy, "only the head may go": when the deadlock
    victim is the queued head at a shard, aborting it makes the next
    prepare the head — which must be granted then, not at whatever
    unrelated event next touches that shard.

    w holds x and asks y; v holds y and asks x, so v queues at x's home
    as its head and (the younger of the two) is the victim; ``late``,
    younger still, asks the *free* colour z homed on the same shard and
    queues behind v."""
    latency = 0.01
    by_home = colors_per_shard(2, per_shard=2)
    (x, z), y = by_home["_tok0"], by_home["_tok1"][0]
    world, service, (w, v, late) = make_sharded(
        {x: 1, y: 1, z: 1}, n_shards=2, policy="timestamp")
    at = {}

    def hold_then_want(agent, first, second, start, tag, warm_up):
        for _ in range(warm_up):  # each exchange ages the Lamport clock
            yield agent.total_tokens()
        yield agent.request({first: 1})
        yield world.kernel.timeout(start - world.now)
        try:
            yield agent.request({second: 1})
            at[tag] = ("granted", world.now)
            yield world.kernel.timeout(5.0)
            agent.release({second: 1})
        except DeadlockDetected:
            at[tag] = ("victim", world.now)
        agent.release({first: 1})

    def latecomer():
        for _ in range(8):
            yield late.total_tokens()
        yield world.kernel.timeout(1.04 - world.now)
        yield late.request({z: 1})
        at["late"] = ("granted", world.now)
        late.release({z: 1})

    world.process(hold_then_want(w, x, y, 1.0, "w", warm_up=0))
    world.process(hold_then_want(v, y, x, 1.03, "v", warm_up=3))
    world.process(latecomer())
    world.run()
    assert at["v"][0] == "victim" and at["w"][0] == "granted"
    # v hears of its abort one hop after its coordinator decided it; the
    # Abort, the Prepared it frees and late's Grant are one hop each.
    assert at["late"][1] <= at["v"][1] + 2 * latency + 1e-9
    service.check_conservation()
    assert service.quiescent


# -- the paper's protocols, unchanged over shards ---------------------------


def test_mutex_protocol_over_shards():
    world, service, agents = make_sharded({"obj": 1}, n_shards=4)
    in_cs = [0]
    max_in_cs = [0]

    def worker(agent):
        mutex = TokenMutex(agent, "obj")
        for _ in range(4):
            yield mutex.acquire()
            in_cs[0] += 1
            max_in_cs[0] = max(max_in_cs[0], in_cs[0])
            yield world.kernel.timeout(0.05)
            in_cs[0] -= 1
            mutex.release()

    for agent in agents:
        world.process(worker(agent))
    world.run()
    assert max_in_cs[0] == 1
    service.check_conservation()


def test_readers_writer_protocol_over_shards():
    world, service, agents = make_sharded({"doc": 4}, n_shards=4)
    readers_now = [0]
    writer_now = [0]
    violations = []

    def reader(agent):
        lock = ReadersWriterLock(agent, "doc")
        for _ in range(5):
            yield lock.acquire_read()
            readers_now[0] += 1
            if writer_now[0]:
                violations.append("read-during-write")
            yield world.kernel.timeout(0.05)
            readers_now[0] -= 1
            lock.release_read()

    def writer(agent):
        lock = ReadersWriterLock(agent, "doc")
        for _ in range(3):
            yield lock.acquire_write()
            writer_now[0] += 1
            if readers_now[0] or writer_now[0] > 1:
                violations.append("overlap")
            yield world.kernel.timeout(0.05)
            writer_now[0] -= 1
            lock.release_write()

    world.process(reader(agents[0]))
    world.process(reader(agents[1]))
    world.process(writer(agents[2]))
    world.run()
    assert violations == []
    service.check_conservation()


# -- discovery enrollment ---------------------------------------------------


def test_resolve_shard_through_directory():
    """Shard hosts enroll like any dapplet; an agent can find a colour's
    home manager by ring name through the replicated directory."""
    world = World(seed=5, latency=ConstantLatency(0.01))
    world.host_directory(2)
    service = world.host_token_shards(3, {"red": 2})
    probe = world.dapplet(Plain, "probe.edu", "probe")
    resolver = world.resolver_for(probe)
    log = []

    def user():
        yield world.kernel.timeout(2.0)  # let enrollment gossip settle
        pointer = yield from resolve_shard(resolver, service.ring, "red")
        assert pointer == service.pointer_for("red")
        agent = TokenAgent(probe, pointer)
        granted = yield agent.request({"red": 1})
        log.append(granted)
        agent.release({"red": 1})

    p = world.process(user())
    # No bare world.run() here: directory replicas gossip forever.
    world.run(until=p)
    world.run(until=world.now + 1.0)
    assert log == [{"red": 1}]
    service.check_conservation()


# -- construction guards ----------------------------------------------------


def test_shard_validation():
    world = World(seed=0)
    host = world.dapplet(Plain, "caltech.edu", "host")
    ring = ShardRing(["_tok0"])
    with pytest.raises(TokenError):
        TokenShard(host, ring, "_tok0", {"_tok0": host.address}, {"red": -1})
    with pytest.raises(TokenError):
        TokenShard(host, ring, "_tok0", {"_tok0": host.address}, {"red": 1},
                   policy="lifo")
    with pytest.raises(TokenError):
        TokenShard(host, ring, "_tok0", {}, {"red": 1})  # peers != ring


def test_timestamp_policy_orders_grants_at_the_home_shard():
    by_home = colors_per_shard(2)
    red = by_home["_tok0"][0]
    world, service, (a, b, c) = make_sharded({red: 2}, n_shards=2,
                                             policy="timestamp")
    order = []

    def big_then_release():
        yield a.request({red: 2})
        yield world.kernel.timeout(2.0)
        a.release({red: 2})

    def wants_two():
        yield world.kernel.timeout(0.5)
        yield b.request({red: 2})
        order.append("two")
        b.release({red: 2})

    def wants_one():
        yield world.kernel.timeout(1.0)
        yield c.request({red: 1})
        order.append("one")
        c.release({red: 1})

    world.process(big_then_release())
    world.process(wants_two())
    world.process(wants_one())
    world.run()
    assert order == ["two", "one"]
    service.check_conservation()
