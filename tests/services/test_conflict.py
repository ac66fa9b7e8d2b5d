"""Tests for timestamp-priority conflict resolution (paper §4.2)."""

import pytest

from repro.dapplet import Dapplet
from repro.errors import TokenError
from repro.net import ConstantLatency
from repro.services.clocks import PrioritizedResources
from repro.services.tokens import TokenAgent, TokenCoordinator
from repro.world import World


class Plain(Dapplet):
    kind = "plain"


def make(policy, n=4, seed=5):
    world = World(seed=seed, latency=ConstantLatency(0.01))
    host = world.dapplet(Plain, "caltech.edu", "host")
    coord = TokenCoordinator(host, {"fork-l": 1, "fork-r": 1, "fork-m": 1},
                             policy=policy)
    agents = [TokenAgent(world.dapplet(Plain, f"s{i}.edu", f"d{i}"),
                         coord.pointer) for i in range(n)]
    return world, coord, agents


def test_two_phase_requests_all_satisfied_under_timestamp_policy():
    """The paper's guarantee: with two-phase use and finite holding,
    every request is eventually satisfied."""
    world, coord, agents = make("timestamp")
    completions = {a.name: 0 for a in agents}
    ROUNDS = 6

    def philosopher(agent, resources):
        prio = PrioritizedResources(agent, resources)
        for _ in range(ROUNDS):
            yield prio.acquire()
            yield world.kernel.timeout(0.05)
            prio.release()
            completions[agent.name] += 1

    # Everyone contends for overlapping resource pairs.
    world.process(philosopher(agents[0], {"fork-l": 1, "fork-r": 1}))
    world.process(philosopher(agents[1], {"fork-r": 1, "fork-m": 1}))
    world.process(philosopher(agents[2], {"fork-m": 1, "fork-l": 1}))
    world.process(philosopher(agents[3], {"fork-l": 1, "fork-r": 1}))
    world.run()
    assert all(c == ROUNDS for c in completions.values())
    assert coord.stats.deadlocks == 0
    coord.check_conservation()


def test_requires_release_before_reacquire():
    world, coord, agents = make("timestamp")
    prio = PrioritizedResources(agents[0], {"fork-l": 1})
    errors = []

    def user():
        yield prio.acquire()
        try:
            prio.acquire()
        except TokenError:
            errors.append("double-acquire")
        prio.release()
        try:
            prio.release()
        except TokenError:
            errors.append("double-release")

    p = world.process(user())
    world.run(until=p)
    assert errors == ["double-acquire", "double-release"]


def test_empty_resource_set_rejected():
    world, coord, agents = make("timestamp")
    with pytest.raises(TokenError):
        PrioritizedResources(agents[0], {})


def test_wait_times_recorded():
    world, coord, agents = make("timestamp")
    prio = PrioritizedResources(agents[0], {"fork-l": 1})

    def user():
        yield prio.acquire()
        prio.release()

    p = world.process(user())
    world.run(until=p)
    assert prio.acquisitions == 1
    assert len(prio.wait_times) == 1
    assert prio.max_wait >= 0
