"""E18 — sharded token service: forwarding overhead and a soak at scale.

Two measurements over ``repro.services.tokens.shard``, both on the
simulator (virtual time, seed-deterministic — any drift is a protocol
change):

* **Forwarding overhead** (deterministic, guarded): one uncontended
  workload run on 1, 4 and 16 shards. A request whose colour is homed
  on the agent's own shard costs one round trip; a foreign colour adds
  one prepare/prepared exchange, so the median request latency on a
  multi-shard ring must stay within 2x of the single-shard median
  (two extra one-way hops at most double the no-contention path).

* **Soak** (deterministic, guarded): a 16-shard ring serving 2000
  agents, every request granted all-at-once (two-phase use, so the
  probe protocol must never kill one). Records the request-to-grant
  tail (p50/p99), granted fraction (1.0 or the service lost a
  request), virtual-time throughput, and cross-shard forwarding volume.
"""

from __future__ import annotations

import pytest

from benchmarks._util import print_table
from repro.dapplet import Dapplet
from repro.net import ConstantLatency
from repro.world import World

SEED = 18

#: Overhead grid: same workload, growing ring.
GRID_SHARDS = (1, 4, 16)
GRID_AGENTS = 200
GRID_COLORS = 8
GRID_TOKENS = 32         # 8 * 32 = 256 tokens >= 200 agents: no queueing
GRID_ROUNDS = 4

#: Soak: the acceptance-criteria world.
SOAK_SHARDS = 16
SOAK_AGENTS = 2000
SOAK_COLORS = 64
SOAK_TOKENS = 40         # 64 * 40 = 2560 tokens: mild contention
SOAK_ROUNDS = 3

#: Multi-shard p50 must stay within this factor of the 1-shard p50.
OVERHEAD_BOUND = 2.05


class Plain(Dapplet):
    kind = "plain"


def _pct(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_shard_world(n_shards: int, n_agents: int, n_colors: int,
                    tokens_per_color: int, rounds: int,
                    seed: int = SEED) -> dict:
    """One deterministic workload against an ``n_shards`` ring.

    Every agent runs ``rounds`` two-phase cycles: request one colour
    (all at once), hold briefly, release. Latencies are virtual time
    from send to grant, measured at the agent.
    """
    colors = [f"c{i}" for i in range(n_colors)]
    world = World(seed=seed, latency=ConstantLatency(0.01))
    service = world.host_token_shards(n_shards,
                                      dict.fromkeys(colors,
                                                    tokens_per_color))
    latencies: list[float] = []
    completed = []

    def worker(agent, i):
        # Staggered starts spread arrivals over ~1s of virtual time.
        yield world.kernel.timeout(0.01 * (i % 97))
        for r in range(rounds):
            color = colors[(i * 7 + r) % n_colors]
            t0 = world.now
            yield agent.request({color: 1})
            latencies.append(world.now - t0)
            yield world.kernel.timeout(0.05)
            agent.release({color: 1})
        completed.append(i)

    for i in range(n_agents):
        agent = service.attach(world.dapplet(Plain, f"s{i}.edu", f"a{i}"))
        world.process(worker(agent, i))
    world.run()
    assert len(completed) == n_agents, "soak lost agents"
    service.check_conservation()
    assert service.quiescent
    requests = n_agents * rounds
    return {
        "shards": n_shards,
        "agents": n_agents,
        "requests": requests,
        "granted_frac": service.grants / requests,
        "deadlocks": service.deadlocks,
        "p50": _pct(latencies, 0.50),
        "p99": _pct(latencies, 0.99),
        "mean": sum(latencies) / len(latencies),
        "virtual_duration": world.now,
        "requests_per_s": requests / world.now,
        "forwards": service.forwards,
        "forwards_per_request": service.forwards / requests,
        "probes_sent": service.probes_sent,
    }


def run_overhead_grid() -> dict:
    grid = {f"shards{n}": run_shard_world(n, GRID_AGENTS, GRID_COLORS,
                                          GRID_TOKENS, GRID_ROUNDS)
            for n in GRID_SHARDS}
    base_p50 = grid["shards1"]["p50"]
    worst = max(grid[f"shards{n}"]["p50"] / base_p50
                for n in GRID_SHARDS if n > 1)
    grid["base_p50"] = base_p50
    grid["worst_ratio"] = worst
    grid["within_bound"] = 1.0 if worst <= OVERHEAD_BOUND else 0.0
    return grid


@pytest.fixture(scope="module")
def results():
    return {
        "sim/overhead": run_overhead_grid(),
        "sim/soak": run_shard_world(SOAK_SHARDS, SOAK_AGENTS, SOAK_COLORS,
                                    SOAK_TOKENS, SOAK_ROUNDS),
    }


def test_e18_table_and_shape(results, benchmark):
    grid = results["sim/overhead"]
    rows = [[n, f"{grid[f'shards{n}']['p50'] * 1000:.1f}",
             f"{grid[f'shards{n}']['p99'] * 1000:.1f}",
             grid[f"shards{n}"]["forwards"],
             f"{grid[f'shards{n}']['forwards_per_request']:.2f}"]
            for n in GRID_SHARDS]
    print_table(
        "E18a: forwarding overhead — same workload, growing ring",
        ["shards", "p50 (ms)", "p99 (ms)", "forwards", "fwd/req"], rows)
    soak = results["sim/soak"]
    print_table(
        "E18b: soak — 16 shards, 2000 agents (virtual time)",
        ["requests", "granted", "p50 (ms)", "p99 (ms)", "req/s", "fwd/req"],
        [[soak["requests"], f"{soak['granted_frac']:.3f}",
          f"{soak['p50'] * 1000:.1f}", f"{soak['p99'] * 1000:.1f}",
          f"{soak['requests_per_s']:.0f}",
          f"{soak['forwards_per_request']:.2f}"]])

    # Shape claims. The bound is the tentpole: sharding the pool may
    # cost at most the extra prepare hop, never a latency cliff.
    assert grid["within_bound"] == 1.0
    # A single shard forwards nothing; a real ring forwards a lot.
    assert grid["shards1"]["forwards"] == 0
    assert grid["shards16"]["forwards"] > 0
    # The soak never loses or falsely kills a request.
    assert soak["granted_frac"] == 1.0
    assert soak["deadlocks"] == 0
    assert soak["p99"] >= soak["p50"] > 0

    benchmark(lambda: run_shard_world(4, 40, GRID_COLORS, GRID_TOKENS, 2))
