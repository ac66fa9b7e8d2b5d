"""Focused tests for the managers' deadlock detector (edge-chasing
probes), on a ring of one and a ring of three."""

import pytest

from repro.errors import DeadlockDetected
from repro.services.tokens import ALL

from tests.services.test_tokens import make_world


def rig(initial, n_agents, policy="fifo", seed=93, deployment="coordinator"):
    return make_world(initial, policy, n_agents, seed, deployment,
                      latency=0.005)


def test_blocked_without_cycle_is_not_deadlock(deployment="coordinator"):
    """Waiting on a busy resource is not a deadlock."""
    world, coordinator, (a, b) = rig({"x": 1}, 2, deployment=deployment)
    order = []

    def holder():
        yield a.request({"x": 1})
        yield world.kernel.timeout(1.0)
        a.release({"x": 1})

    def waiter():
        yield b.request({"x": 1})
        order.append("granted")

    world.process(holder())
    world.process(waiter())
    world.run()
    assert order == ["granted"]
    assert world.metrics()["tokens.deadlocks"] == 0


def test_self_wait_is_not_a_cycle(deployment="coordinator"):
    """An agent requesting more of a colour while holding some of it
    blocks (scarcity) but is not 'waiting on itself'."""
    world, coordinator, (a, b) = rig({"x": 2}, 2, deployment=deployment)
    outcome = []

    def greedy():
        yield a.request({"x": 2})
        ev = a.request({"x": 1})  # nothing left; blocks, no cycle
        got = yield ev | world.kernel.timeout(1.0)
        outcome.append(ev.triggered)
        a.release({"x": 2})
        yield ev  # now grantable
        outcome.append("eventually")

    p = world.process(greedy())
    world.run(until=p)
    world.run()
    assert outcome == [False, "eventually"]
    assert world.metrics()["tokens.deadlocks"] == 0


def test_deadlock_formed_by_grant_not_request(deployment="coordinator"):
    """The cycle's last edge appears when a *grant* makes a colour
    scarce, with no new request arriving — the detector must sweep
    after grants too."""
    world, coordinator, (a, b, c) = rig({"x": 1, "y": 1, "z": 1}, 3,
                                        deployment=deployment)
    events = []

    def agent_a():
        yield a.request({"x": 1})
        yield world.kernel.timeout(0.2)
        try:
            yield a.request({"y": 1})
            events.append("a-granted")
            a.release({"y": 1})
        except DeadlockDetected:
            events.append("a-deadlock")

    def agent_b():
        yield b.request({"y": 1})
        yield world.kernel.timeout(0.4)
        try:
            yield b.request({"x": 1})
            events.append("b-granted")
        except DeadlockDetected:
            events.append("b-deadlock")

    world.process(agent_a())
    world.process(agent_b())
    world.run(until=5.0)
    assert "a-deadlock" in events or "b-deadlock" in events
    coordinator.check_conservation()


def test_all_request_can_deadlock(deployment="coordinator"):
    """'all of a colour' requests participate in cycles too."""
    world, coordinator, (a, b) = rig({"x": 2, "y": 2}, 2,
                                     deployment=deployment)
    events = []

    def alpha():
        yield a.request({"x": ALL})
        yield world.kernel.timeout(0.2)
        try:
            yield a.request({"y": ALL})
            events.append("a-granted")
        except DeadlockDetected:
            events.append("a-deadlock")

    def beta():
        yield b.request({"y": ALL})
        yield world.kernel.timeout(0.2)
        try:
            yield b.request({"x": ALL})
            events.append("b-granted")
        except DeadlockDetected:
            events.append("b-deadlock")

    world.process(alpha())
    world.process(beta())
    world.run(until=5.0)
    assert any(e.endswith("deadlock") for e in events)


def test_partial_overlap_cycle_detected_with_bystander(deployment="coordinator"):
    """A bystander holding unrelated tokens must not appear in the
    reported cycle."""
    world, coordinator, agents = rig({"x": 1, "y": 1, "spare": 1}, 3,
                                     deployment=deployment)
    a, b, bystander = agents
    cycles = []

    def bystander_proc():
        yield bystander.request({"spare": 1})
        yield world.kernel.timeout(10.0)
        bystander.release({"spare": 1})

    def alpha():
        yield a.request({"x": 1})
        yield world.kernel.timeout(0.2)
        try:
            yield a.request({"y": 1})
        except DeadlockDetected as exc:
            cycles.append(exc.cycle)

    def beta():
        yield b.request({"y": 1})
        yield world.kernel.timeout(0.3)
        try:
            yield b.request({"x": 1})
        except DeadlockDetected as exc:
            cycles.append(exc.cycle)

    world.process(bystander_proc())
    world.process(alpha())
    world.process(beta())
    world.run(until=5.0)
    assert cycles
    assert "d2" not in cycles[0]  # the bystander is not implicated


def test_detection_breaks_cycle_others_proceed():
    """After one request is killed, the survivor gets its tokens."""
    world, coordinator, (a, b) = rig({"x": 1, "y": 1}, 2)
    events = []

    def alpha():
        yield a.request({"x": 1})
        yield world.kernel.timeout(0.2)
        try:
            yield a.request({"y": 1})
            events.append("a-completed")
            a.release({"x": 1, "y": 1})
        except DeadlockDetected:
            events.append("a-killed")
            a.release({"x": 1})  # back off, release what we hold

    def beta():
        yield b.request({"y": 1})
        yield world.kernel.timeout(0.3)
        try:
            yield b.request({"x": 1})
            events.append("b-completed")
            b.release({"x": 1, "y": 1})
        except DeadlockDetected:
            events.append("b-killed")
            b.release({"y": 1})

    world.process(alpha())
    world.process(beta())
    world.run(until=10.0)
    assert sorted(events) in (["a-completed", "b-killed"],
                              ["a-killed", "b-completed"])
    coordinator.check_conservation()
    assert coordinator.pool == {"x": 1, "y": 1}  # everything returned


@pytest.mark.parametrize("scenario", [
    test_blocked_without_cycle_is_not_deadlock,
    test_self_wait_is_not_a_cycle,
    test_deadlock_formed_by_grant_not_request,
    test_all_request_can_deadlock,
    test_partial_overlap_cycle_detected_with_bystander,
], ids=lambda test: test.__name__)
def test_same_verdict_on_a_three_shard_ring(scenario):
    scenario(deployment="ring")
