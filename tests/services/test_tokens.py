"""Tests for the token-manager network, deadlock detection and protocols."""

import pytest

from repro.dapplet import Dapplet
from repro.errors import DeadlockDetected, TokenError
from repro.net import ConstantLatency
from repro.services.tokens import (
    ALL,
    ReadersWriterLock,
    TokenAgent,
    TokenCoordinator,
    TokenMutex,
    TokenShard,
)
from repro.world import World


class Plain(Dapplet):
    kind = "plain"


def make_world(initial, policy="fifo", n_agents=3, seed=3,
               deployment="coordinator", latency=0.01):
    """A world with the token managers deployed as one
    ``TokenCoordinator`` or (``deployment="ring"``) three shards."""
    world = World(seed=seed, latency=ConstantLatency(latency))
    if deployment == "coordinator":
        host = world.dapplet(Plain, "caltech.edu", "host")
        coord = TokenCoordinator(host, initial, policy=policy)

        def attach(dapplet):
            return TokenAgent(dapplet, coord.pointer)
    else:
        coord = world.host_token_shards(3, initial, policy=policy)
        attach = coord.attach
    agents = [attach(world.dapplet(Plain, f"site{i}.edu", f"d{i}"))
              for i in range(n_agents)]
    return world, coord, agents


def test_request_and_release_roundtrip(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 2, "blue": 1},
                                         deployment=deployment)
    log = []

    def user():
        granted = yield a.request({"red": 1, "blue": 1})
        log.append(granted)
        assert a.holds == {"red": 1, "blue": 1}
        a.release({"red": 1, "blue": 1})
        assert a.holds == {}

    p = world.process(user())
    world.run(until=p)
    world.run()
    assert log == [{"red": 1, "blue": 1}]
    coord.check_conservation()


def test_request_blocks_until_available(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 1}, deployment=deployment)
    times = {}

    def holder():
        yield a.request({"red": 1})
        times["a"] = world.now
        yield world.kernel.timeout(5.0)
        a.release({"red": 1})

    def waiter():
        yield b.request({"red": 1})
        times["b"] = world.now

    world.process(holder())
    world.process(waiter())
    world.run()
    assert times["b"] > times["a"] + 5.0
    coord.check_conservation()


def test_request_all_of_color(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 5}, deployment=deployment)
    log = []

    def user():
        granted = yield a.request({"red": ALL})
        log.append(granted)
        a.release({"red": ALL})

    p = world.process(user())
    world.run(until=p)
    world.run()
    assert log == [{"red": 5}]
    coord.check_conservation()


def test_release_unheld_tokens_raises_locally(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 1}, deployment=deployment)
    with pytest.raises(TokenError):
        a.release({"red": 1})
    with pytest.raises(TokenError):
        a.release({"nonexistent": 2})


def test_request_validation(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 1}, deployment=deployment)
    with pytest.raises(TokenError):
        a.request({})
    with pytest.raises(TokenError):
        a.request({"red": 0})
    with pytest.raises(TokenError):
        a.request({"red": -2})
    with pytest.raises(TokenError):
        a.request({"red": True})


def test_unknown_color_fails_request(deployment="coordinator"):
    """A colour no manager holds is a plain TokenError, not a deadlock:
    a caller that retries its deadlock victims must not retry it."""
    world, coord, (a, b, c) = make_world({"red": 1}, deployment=deployment)
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
    assert a.holds == {}
    coord.check_conservation()


def test_total_tokens(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 2, "blue": 7},
                                         deployment=deployment)
    log = []

    def user():
        totals = yield a.total_tokens()
        log.append(totals)

    p = world.process(user())
    world.run(until=p)
    assert log == [{"red": 2, "blue": 7}]


def test_two_agent_deadlock_detected(deployment="coordinator"):
    """a holds red and wants blue; b holds blue and wants red."""
    world, coord, (a, b, c) = make_world({"red": 1, "blue": 1},
                                         deployment=deployment)
    outcomes = []

    def alpha():
        yield a.request({"red": 1})
        yield world.kernel.timeout(1.0)
        try:
            yield a.request({"blue": 1})
            outcomes.append("a-granted")
        except DeadlockDetected as exc:
            outcomes.append(("a-deadlock", exc.cycle))

    def beta():
        yield b.request({"blue": 1})
        yield world.kernel.timeout(1.0)
        try:
            yield b.request({"red": 1})
            outcomes.append("b-granted")
        except DeadlockDetected as exc:
            outcomes.append(("b-deadlock", exc.cycle))

    world.process(alpha())
    world.process(beta())
    world.run(until=10.0)
    deadlocks = [o for o in outcomes if isinstance(o, tuple)]
    assert len(deadlocks) >= 1
    # The reported cycle mentions both agents.
    cycle = deadlocks[0][1]
    assert set(cycle) >= {"d0", "d1"}
    coord.check_conservation()


def test_three_agent_cycle_detected(deployment="coordinator"):
    world, coord, agents = make_world({"x": 1, "y": 1, "z": 1},
                                      deployment=deployment)
    a, b, c = agents
    outcomes = []

    def grab_then_want(agent, first, second, tag):
        yield agent.request({first: 1})
        yield world.kernel.timeout(1.0)
        try:
            yield agent.request({second: 1})
            outcomes.append((tag, "granted"))
        except DeadlockDetected:
            outcomes.append((tag, "deadlock"))

    world.process(grab_then_want(a, "x", "y", "a"))
    world.process(grab_then_want(b, "y", "z", "b"))
    world.process(grab_then_want(c, "z", "x", "c"))
    world.run(until=10.0)
    assert ("a", "deadlock") in outcomes or ("b", "deadlock") in outcomes \
        or ("c", "deadlock") in outcomes
    coord.check_conservation()


def test_two_phase_use_never_deadlocks(deployment="coordinator"):
    """The paper: releasing all before re-requesting avoids deadlock."""
    world, coord, agents = make_world({"x": 1, "y": 1}, n_agents=3,
                                      deployment=deployment)
    completed = []

    def worker(agent, tag):
        for _ in range(5):
            yield agent.request({"x": 1, "y": 1})  # all at once
            yield world.kernel.timeout(0.1)
            agent.release({"x": 1, "y": 1})
        completed.append(tag)

    for i, agent in enumerate(agents):
        world.process(worker(agent, i))
    world.run()
    assert sorted(completed) == [0, 1, 2]
    assert world.metrics()["tokens.deadlocks"] == 0
    coord.check_conservation()


def test_transfer_moves_tokens_between_agents(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 3}, deployment=deployment)
    log = []

    def giver():
        yield a.request({"red": 3})
        a.transfer("d1", {"red": 2})
        assert a.holds == {"red": 1}

    def receiver():
        # b must have contacted the coordinator once to be reachable.
        yield b.total_tokens()
        while not b.holds:
            yield world.kernel.timeout(0.1)
        log.append(dict(b.holds))
        log.append(b.transfers_received[0][0])

    world.process(giver())
    world.process(receiver())
    world.run(until=10.0)
    assert log == [{"red": 2}, "d0"]
    coord.check_conservation()


def test_transfer_to_unenrolled_agent_parks_tokens():
    """A transfer to a dead or never-enrolled agent still moves the
    holding at the coordinator — the tokens are parked under the target
    name (conservation intact), there is just nobody to notify."""
    world, coord, (a, b, c) = make_world({"red": 3})

    def giver():
        yield a.request({"red": 3})
        a.transfer("ghost", {"red": 2})
        assert a.holds == {"red": 1}

    p = world.process(giver())
    world.run(until=p)
    world.run()
    assert coord.holders["ghost"] == {"red": 2}
    coord.check_conservation()


def test_transfer_exceeding_held_raises_locally():
    world, coord, (a, b, c) = make_world({"red": 3})

    def user():
        yield a.request({"red": 2})
        with pytest.raises(TokenError):
            a.transfer("d1", {"red": 3})      # more than held
        with pytest.raises(TokenError):
            a.transfer("d1", {"blue": 1})     # colour not held at all
        # 'all of nothing' moves nothing and is not an error.
        a.transfer("d1", {"blue": ALL})
        assert a.holds == {"red": 2}

    p = world.process(user())
    world.run(until=p)
    world.run()
    assert "d1" not in coord.holders
    coord.check_conservation()


def test_transfer_racing_a_release():
    """A transfer landing while the receiver is concurrently releasing
    its own holding: both apply in coordinator order, the receiver ends
    up with exactly the transferred tokens."""
    world, coord, (a, b, c) = make_world({"red": 2})

    def setup_and_race():
        yield a.request({"red": 1})
        yield b.request({"red": 1})
        # Same instant: b gives its token back while a hands b another.
        b.release({"red": 1})
        a.transfer("d1", {"red": 1})

    p = world.process(setup_and_race())
    world.run(until=p)
    world.run()
    assert a.holds == {}
    assert b.holds == {"red": 1}
    assert b.transfers_received == [("d0", {"red": 1})]
    assert coord.holders.get("d1") == {"red": 1}
    assert coord.pool["red"] == 1
    coord.check_conservation()


def test_transfer_can_unblock_deadlock_free_waiter(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"red": 1}, deployment=deployment)
    order = []

    def holder():
        yield a.request({"red": 1})
        order.append("a-got")
        yield world.kernel.timeout(1.0)
        a.release({"red": 1})

    def waiter():
        yield b.request({"red": 1})
        order.append("b-got")

    world.process(holder())
    world.process(waiter())
    world.run()
    assert order == ["a-got", "b-got"]


def test_mutex_protocol_mutual_exclusion(deployment="coordinator"):
    world, coord, agents = make_world({"obj": 1}, n_agents=3,
                                      deployment=deployment)
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
    coord.check_conservation()


def test_mutex_release_without_hold_raises(deployment="coordinator"):
    world, coord, (a, b, c) = make_world({"obj": 1}, deployment=deployment)
    mutex = TokenMutex(a, "obj")
    with pytest.raises(TokenError):
        mutex.release()


def test_readers_writer_protocol(deployment="coordinator"):
    world, coord, agents = make_world({"doc": 4}, n_agents=3,
                                      deployment=deployment)
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
    coord.check_conservation()


def test_coordinator_validation():
    world = World(seed=0)
    host = world.dapplet(Plain, "caltech.edu", "host")
    with pytest.raises(TokenError):
        TokenCoordinator(host, {"red": -1})
    with pytest.raises(TokenError):
        TokenCoordinator(host, {"red": 1}, policy="lifo")


def test_timestamp_policy_grants_in_order(deployment="coordinator"):
    """Under the timestamp policy the earliest request goes first even
    if a later, smaller request is satisfiable."""
    world, coord, (a, b, c) = make_world({"red": 2}, policy="timestamp",
                                         deployment=deployment)
    order = []

    def big_then_release():
        # Take both tokens, then release after the others have queued.
        yield a.request({"red": 2})
        yield world.kernel.timeout(2.0)
        a.release({"red": 2})

    def wants_two():
        yield world.kernel.timeout(0.5)
        yield b.request({"red": 2})
        order.append("two")
        b.release({"red": 2})

    def wants_one():
        yield world.kernel.timeout(1.0)
        yield c.request({"red": 1})
        order.append("one")
        c.release({"red": 1})

    world.process(big_then_release())
    world.process(wants_two())
    world.process(wants_one())
    world.run()
    # FIFO-opportunistic would let "one" jump the queue at release time;
    # timestamp order must serve "two" (earlier request) first.
    assert order == ["two", "one"]


#: Tests above that see the managers only through agents,
#: ``check_conservation()`` and ``deadlocks`` — deployment-blind.
ANY_DEPLOYMENT = [
    test_request_and_release_roundtrip,
    test_request_blocks_until_available,
    test_request_all_of_color,
    test_release_unheld_tokens_raises_locally,
    test_request_validation,
    test_unknown_color_fails_request,
    test_total_tokens,
    test_two_agent_deadlock_detected,
    test_three_agent_cycle_detected,
    test_two_phase_use_never_deadlocks,
    test_transfer_moves_tokens_between_agents,
    test_transfer_can_unblock_deadlock_free_waiter,
    test_mutex_protocol_mutual_exclusion,
    test_mutex_release_without_hold_raises,
    test_readers_writer_protocol,
    test_timestamp_policy_grants_in_order,
]


@pytest.mark.parametrize("scenario", ANY_DEPLOYMENT,
                         ids=lambda test: test.__name__)
def test_same_behaviour_on_a_three_shard_ring(scenario):
    scenario(deployment="ring")


def test_coordinator_is_a_one_shard_ring():
    """One manager class: the coordinator is a ``TokenShard`` whose ring
    has one name, so every manager-to-manager message is dispatched
    inline — a contended workload never forwards."""
    world, coord, agents = make_world({"x": 1, "y": 1}, n_agents=3)
    assert isinstance(coord, TokenShard)
    assert len(coord.ring) == 1

    def worker(agent):
        for _ in range(5):
            yield agent.request({"x": 1, "y": 1})
            yield world.kernel.timeout(0.1)
            agent.release({"x": 1, "y": 1})

    for agent in agents:
        world.process(worker(agent))
    world.run()
    assert coord.stats.grants == 15
    assert coord.stats.forwards == 0
    assert coord.quiescent
    coord.check_conservation()
