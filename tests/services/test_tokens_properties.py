"""Property-based tests: token conservation under arbitrary operation
sequences — the paper's defining invariant ("tokens are objects that are
neither created nor destroyed")."""

from hypothesis import given, settings, strategies as st

from repro.dapplet import Dapplet
from repro.errors import DeadlockDetected, TokenError
from repro.net import ConstantLatency
from repro.services.tokens import ALL, TokenAgent, TokenCoordinator
from repro.world import World


class Plain(Dapplet):
    kind = "plain"


COLORS = ["red", "blue"]

ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),            # agent index
        st.sampled_from(["request", "release", "release_all", "transfer",
                         "totals"]),
        st.sampled_from(COLORS),
        st.one_of(st.integers(min_value=1, max_value=3),
                  st.just(ALL)),
        st.integers(min_value=0, max_value=2),            # transfer target
        st.floats(min_value=0.0, max_value=0.3),          # think time
    ),
    min_size=1, max_size=25)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), script=ops)
def test_conservation_under_arbitrary_schedules(seed, script):
    world = World(seed=seed, latency=ConstantLatency(0.01))
    host = world.dapplet(Plain, "caltech.edu", "host")
    coordinator = TokenCoordinator(host, {"red": 3, "blue": 2})
    agents = [TokenAgent(world.dapplet(Plain, f"s{i}.edu", f"d{i}"),
                         coordinator.pointer) for i in range(3)]

    def driver():
        for idx, op, color, count, target, think in script:
            agent = agents[idx]
            yield world.kernel.timeout(think)
            try:
                if op == "request":
                    # Bounded wait so adversarial scripts cannot hang the
                    # property; a timeout leaves a pending request, which
                    # conservation must still survive.
                    ev = agent.request({color: count})
                    yield ev | world.kernel.timeout(1.0)
                elif op == "release":
                    agent.release({color: count})
                elif op == "release_all":
                    if agent.holds:
                        agent.release({c: ALL for c in agent.holds})
                elif op == "transfer":
                    agent.transfer(f"d{target}", {color: count})
                elif op == "totals":
                    totals = yield agent.total_tokens()
                    assert totals == {"red": 3, "blue": 2}
            except (TokenError, DeadlockDetected):
                pass  # invalid ops and deadlocks are legitimate outcomes

    p = world.process(driver())
    world.run(until=20.0)
    coordinator.check_conservation()
    # Pool never exceeds totals, holdings never negative.
    for color, total in coordinator.totals.items():
        assert 0 <= coordinator.pool.get(color, 0) <= total
    for held in coordinator.holders.values():
        assert all(v > 0 for v in held.values())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       n_agents=st.integers(min_value=2, max_value=4),
       rounds=st.integers(min_value=1, max_value=4))
def test_two_phase_discipline_always_completes(seed, n_agents, rounds):
    """The paper's avoidance claim as a property: request-all/release-all
    workloads never deadlock and always finish."""
    world = World(seed=seed, latency=ConstantLatency(0.01))
    host = world.dapplet(Plain, "caltech.edu", "host")
    coordinator = TokenCoordinator(host, {"x": 1, "y": 1})
    completed = []

    def worker(agent, tag):
        for _ in range(rounds):
            yield agent.request({"x": 1, "y": 1})
            yield world.kernel.timeout(0.05)
            agent.release({"x": 1, "y": 1})
        completed.append(tag)

    for i in range(n_agents):
        agent = TokenAgent(world.dapplet(Plain, f"s{i}.edu", f"d{i}"),
                           coordinator.pointer)
        world.process(worker(agent, i))
    world.run()
    assert sorted(completed) == list(range(n_agents))
    assert coordinator.stats.deadlocks == 0
    coordinator.check_conservation()
