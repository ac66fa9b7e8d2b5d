"""E5 — tokens and capabilities (paper §4.1).

Scenario A: N dapplets contend for one single-token mutex (the paper's
"at most one process modifies the object" example); metric: critical
sections completed per virtual second vs contention.

Scenario B: wait-for cycles of length L are constructed deliberately;
metric: time from cycle completion to the DeadlockDetected exception.

Shape claims: mutex throughput saturates (the token serializes work) so
per-dapplet throughput degrades as contention rises; detection latency
grows with cycle length (the last request closes the cycle later) but
every cycle is detected.
"""

from __future__ import annotations

import pytest

from benchmarks._util import print_table
from repro import Dapplet, DeadlockDetected, World
from repro.net import ConstantLatency
from repro.services.tokens import TokenAgent, TokenCoordinator, TokenMutex


class Node(Dapplet):
    kind = "node"


CS_EACH = 10
HOLD = 0.01


def run_mutex(contenders: int, seed: int = 13):
    world = World(seed=seed, latency=ConstantLatency(0.005))
    host = world.dapplet(Node, "caltech.edu", "host")
    coordinator = TokenCoordinator(host, {"obj": 1})
    done = []

    def worker(agent):
        mutex = TokenMutex(agent, "obj")
        for _ in range(CS_EACH):
            yield mutex.acquire()
            yield world.kernel.timeout(HOLD)
            mutex.release()
        done.append(world.now)

    for i in range(contenders):
        d = world.dapplet(Node, f"s{i}.edu", f"d{i}")
        world.process(worker(TokenAgent(d, coordinator.pointer)))
    world.run()
    coordinator.check_conservation()
    total_cs = contenders * CS_EACH
    elapsed = max(done)
    return {"throughput": total_cs / elapsed, "elapsed": elapsed,
            "per_dapplet": CS_EACH / elapsed}


def run_deadlock(cycle_len: int, seed: int = 14):
    """d_i grabs colour c_i then requests c_{i+1 mod L}: a guaranteed
    L-cycle. Returns virtual time from last request to detection."""
    world = World(seed=seed, latency=ConstantLatency(0.005))
    host = world.dapplet(Node, "caltech.edu", "host")
    colors = {f"c{i}": 1 for i in range(cycle_len)}
    coordinator = TokenCoordinator(host, colors)
    agents = [TokenAgent(world.dapplet(Node, f"s{i}.edu", f"d{i}"),
                         coordinator.pointer) for i in range(cycle_len)]
    detected = []
    last_request_at = []

    def member(i):
        yield agents[i].request({f"c{i}": 1})
        yield world.kernel.timeout(0.5)  # everyone holds before anyone asks
        yield world.kernel.timeout(0.01 * i)  # stagger the closing requests
        if i == cycle_len - 1:
            last_request_at.append(world.now)
        try:
            yield agents[i].request({f"c{(i + 1) % cycle_len}": 1})
        except DeadlockDetected as exc:
            detected.append((world.now, exc.cycle))

    for i in range(cycle_len):
        world.process(member(i))
    world.run(until=10.0)
    assert detected, f"no deadlock detected for cycle of {cycle_len}"
    assert coordinator.stats.deadlocks >= 1
    return {"latency": detected[0][0] - last_request_at[0],
            "cycle": detected[0][1]}


@pytest.fixture(scope="module")
def results():
    contention = (1, 2, 4, 8)
    mutex = {n: run_mutex(n) for n in contention}
    cycles = (2, 3, 5, 8)
    deadlock = {n: run_deadlock(n) for n in cycles}
    return contention, mutex, cycles, deadlock


def test_e5_mutex_contention(results, benchmark):
    contention, mutex, _, _ = results
    rows = [[n, f"{mutex[n]['throughput']:.1f}",
             f"{mutex[n]['per_dapplet']:.1f}",
             f"{mutex[n]['elapsed']:.3f}"] for n in contention]
    print_table("E5a: token mutex under contention "
                f"({CS_EACH} critical sections each, hold {HOLD}s)",
                ["dapplets", "total CS/s", "CS/s per dapplet",
                 "elapsed (s)"], rows)
    # Shape: per-dapplet throughput degrades with contention...
    per = [mutex[n]["per_dapplet"] for n in contention]
    assert per == sorted(per, reverse=True)
    # ...and total throughput saturates (bounded by 1/HOLD).
    assert mutex[8]["throughput"] <= 1.05 / HOLD

    benchmark(run_mutex, 4)


def test_e5_deadlock_detection(results, benchmark):
    _, _, cycles, deadlock = results
    rows = [[n, f"{deadlock[n]['latency']*1000:.1f}",
             len(deadlock[n]["cycle"])] for n in cycles]
    print_table("E5b: deadlock detection vs cycle length",
                ["cycle len", "detect (ms)", "cycle reported"], rows)
    for n in cycles:
        assert deadlock[n]["latency"] < 1.0  # well before any timeout

    benchmark(run_deadlock, 4)
