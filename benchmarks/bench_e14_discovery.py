"""E14 — discovery: resolver latency with caching, staleness under churn,
gossip volume.

Three scenarios against a 3-replica replicated directory:

* **Resolution latency** (simulator): one client resolves the same name
  back-to-back, with the resolver cache enabled vs disabled
  (``cache_ttl=0``). Cached, almost every resolve is a local cache hit
  costing zero network round-trips, so resolves-per-virtual-second is
  orders of magnitude higher; uncached, every resolve pays a full
  client->replica round trip.

* **Staleness under churn** (simulator *and* real UDP): register a
  fresh dapplet, kill it silently, and poll its name until resolution
  raises :class:`~repro.errors.LeaseExpired`. The window between the
  kill and the last successful resolve is the client-observed staleness,
  which must stay under the config's analytic bound
  (:meth:`~repro.discovery.LeaseConfig.staleness_bound`: TTL + gossip
  lag + one sweep + cache lifetime) on both substrates.

* **Gossip volume** (simulator, counted): 30, 100 and 300 renewing
  rows, and a table of tombstones only, on 3 replicas. Every gossip
  message the replicas send is counted: per replica per round, one
  push and some replies, each with its entries and serialized bytes.
  A push carries only the rows the peer is not known to hold, so a
  quiet tombstone-only table pushes empty messages and draws no
  replies.
"""

from __future__ import annotations

import pytest

from benchmarks._util import print_table
from repro import AsyncioSubstrate, LeaseConfig, LeaseExpired, World
from repro.dapplet.dapplet import Dapplet
from repro.discovery.table import Gossip
from repro.messages.serialize import dumps
from repro.net import ConstantLatency
from repro.obs import Tracer

SEED = 14
N_RESOLVES = 300
CHURN_CYCLES_SIM = 5
CHURN_CYCLES_AIO = 2
GOSSIP_SIZES = (30, 100, 300)
GOSSIP_TOMBSTONES = 100
GOSSIP_ROUNDS = 20

SIM_CFG = LeaseConfig(ttl=1.0, renew_interval=0.25, sweep_interval=0.2,
                      gossip_interval=0.3, cache_ttl=0.3,
                      request_timeout=0.5, tombstone_ttl=10.0)
AIO_CFG = LeaseConfig(ttl=0.6, renew_interval=0.15, sweep_interval=0.1,
                      gossip_interval=0.15, cache_ttl=0.1,
                      request_timeout=0.4, tombstone_ttl=10.0)


class Target(Dapplet):
    kind = "bench-target"


def run_resolve_burst(cached: bool, *, tracer: "Tracer | None" = None) -> dict:
    """N back-to-back resolves of one name on the simulator."""
    cfg = SIM_CFG if cached else LeaseConfig(
        **{**_as_kwargs(SIM_CFG), "cache_ttl": 0.0})
    world = World(seed=SEED, latency=ConstantLatency(0.01))
    if tracer is not None:
        world.attach_tracer(tracer)
    world.host_directory(3, config=cfg)
    world.dapplet(Target, "target.edu", "target")
    prober = world.dapplet(Target, "probe.edu", "probe")
    resolver = world.resolver_for(prober)
    done = world.kernel.event()
    out = {}

    def director():
        yield world.kernel.timeout(1.0)  # leases granted and gossiped
        start = world.kernel.now
        for _ in range(N_RESOLVES):
            yield from resolver.resolve("target")
        elapsed = world.kernel.now - start
        stats = resolver.stats.snapshot()
        out.update(stats)
        out["hit_rate"] = stats["hits"] / N_RESOLVES
        # On cache hits no virtual time passes, so elapsed is the pure
        # network cost of the misses; never zero (the first resolve
        # always misses and pays a round trip).
        out["elapsed"] = elapsed
        out["resolves_per_s"] = N_RESOLVES / elapsed
        done.succeed(None)

    world.process(director())
    world.run(until=done)
    for dapplet in list(world.dapplets()):
        dapplet.stop()
    world.run()
    return out


def run_churn(kind: str, *, cycles: int,
              wall_timeout: float | None = None) -> dict:
    """Register/kill cycles; measures the client-observed staleness."""
    if kind == "sim":
        cfg, step = SIM_CFG, 0.1
        world = World(seed=SEED, latency=ConstantLatency(0.01))
    else:
        cfg, step = AIO_CFG, 0.05
        world = World(substrate=AsyncioSubstrate(seed=SEED))
    try:
        replicas = world.host_directory(3, config=cfg)
        prober = world.dapplet(Target, "probe.edu", "probe")
        resolver = world.resolver_for(prober)
        windows = []
        done = world.kernel.event()

        def director():
            for i in range(cycles):
                name = f"churn{i}"
                worker = world.dapplet(Target, f"c{i}.edu", name)
                yield worker.lease_agent.registered
                while True:  # resolvable through this client?
                    try:
                        yield from resolver.resolve(name)
                        break
                    except LeaseExpired:
                        yield world.kernel.timeout(step)
                kill_t = world.kernel.now
                worker.stop()
                last_success = kill_t
                while True:
                    yield world.kernel.timeout(step)
                    try:
                        yield from resolver.resolve(name)
                        last_success = world.kernel.now
                    except LeaseExpired:
                        break
                windows.append(last_success - kill_t)
            done.succeed(None)

        world.process(director())
        if wall_timeout is not None:
            world.run(until=done, wall_timeout=wall_timeout)
        else:
            world.run(until=done)
        for dapplet in list(world.dapplets()):
            dapplet.stop()
        if wall_timeout is None:
            world.run()
        bound = cfg.staleness_bound(len(replicas))
        return {
            "cycles": cycles,
            "bound": bound,
            "max_staleness": max(windows),
            "mean_staleness": sum(windows) / len(windows),
            "bound_margin": bound - max(windows),
        }
    finally:
        world.close()


def run_gossip_volume(rows: int, *, tombstones: bool = False) -> dict:
    """Count the replicas' gossip over ``GOSSIP_ROUNDS`` rounds of a
    table of ``rows`` renewing leases (or, with ``tombstones``, of
    ``rows`` leases whose owners all stopped)."""
    world = World(seed=SEED, latency=ConstantLatency(0.01))
    replicas = world.host_directory(3, config=SIM_CFG)
    sent: list[tuple[bool, int, int]] = []

    def recording(post):
        def record(to, message):
            if isinstance(message, Gossip):
                sent.append((message.want_reply, len(message.entries),
                             len(dumps(message))))
            return post(to, message)
        return record

    for replica in replicas:
        replica.post = recording(replica.post)
    targets = [world.dapplet(Target, f"g{i}.edu", f"g{i}")
               for i in range(rows)]
    world.run(until=3.0)                  # every lease granted and spread
    if tombstones:
        for target in targets:
            target.stop()
        world.run(until=world.kernel.now + SIM_CFG.staleness_bound(3)
                  + 4 * SIM_CFG.gossip_interval)
        assert all(not r.live_records() and len(r.store) == rows
                   for r in replicas)
    sent.clear()
    world.run(until=world.kernel.now
              + GOSSIP_ROUNDS * SIM_CFG.gossip_interval)
    for dapplet in list(world.dapplets()):
        dapplet.stop()
    world.run()
    pushes = [(n, size) for push, n, size in sent if push]
    replies = [(n, size) for push, n, size in sent if not push]
    per_push, per_reply = len(pushes) or 1, len(replies) or 1
    return {
        "rows": rows,
        "pushes": len(pushes),
        "push_entries": sum(n for n, _ in pushes) / per_push,
        "push_bytes": sum(size for _, size in pushes) / per_push,
        "replies_per_push": len(replies) / per_push,
        "reply_entries": sum(n for n, _ in replies) / per_reply,
        "reply_bytes": sum(size for _, size in replies) / per_reply,
    }


def _as_kwargs(cfg: LeaseConfig) -> dict:
    return {f: getattr(cfg, f) for f in (
        "ttl", "renew_interval", "sweep_interval", "gossip_interval",
        "tombstone_ttl", "cache_ttl", "request_timeout")}


@pytest.fixture(scope="module")
def results():
    return {
        "sim/cached": run_resolve_burst(True),
        "sim/uncached": run_resolve_burst(False),
        "sim/churn": run_churn("sim", cycles=CHURN_CYCLES_SIM),
        "aio/churn": run_churn("aio", cycles=CHURN_CYCLES_AIO,
                               wall_timeout=60),
    }


def test_e14_table_and_shape(results, benchmark):
    # The resolver-latency histogram must land in the obs metrics.
    tracer = Tracer(categories=["dir"], metrics_only=True)
    run_resolve_burst(True, tracer=tracer)
    summary = tracer.summary()
    assert "dir.resolve" in summary["histograms"]
    assert summary["counters"].get("dir.cache_hit", 0) > 0

    cached, uncached = results["sim/cached"], results["sim/uncached"]
    rows = [
        ["cached", N_RESOLVES, cached["hits"], cached["misses"],
         f"{cached['hit_rate']:.2f}", f"{cached['resolves_per_s']:.0f}"],
        ["uncached", N_RESOLVES, uncached["hits"], uncached["misses"],
         f"{uncached['hit_rate']:.2f}",
         f"{uncached['resolves_per_s']:.0f}"],
    ]
    print_table("E14a: back-to-back resolves, cache on vs off (sim)",
                ["mode", "resolves", "hits", "misses", "hit rate",
                 "resolves/s"], rows)
    rows = [[kind, r["cycles"], f"{r['max_staleness']:.2f}",
             f"{r['mean_staleness']:.2f}", f"{r['bound']:.2f}"]
            for kind, r in (("sim", results["sim/churn"]),
                            ("aio", results["aio/churn"]))]
    print_table("E14b: staleness window under register/kill churn",
                ["substrate", "cycles", "max stale (s)", "mean stale (s)",
                 "bound (s)"], rows)

    # Caching pays: most resolves are hits and the burst completes far
    # faster than paying a round trip per resolve.
    assert cached["hit_rate"] > 0.8
    assert uncached["hits"] == 0
    assert cached["resolves_per_s"] > 5 * uncached["resolves_per_s"]
    # The staleness window is bounded on both substrates.
    for kind in ("sim/churn", "aio/churn"):
        churn = results[kind]
        assert 0 <= churn["max_staleness"] <= churn["bound"], kind
        assert churn["bound_margin"] >= 0

    benchmark(run_resolve_burst, True)


def test_e14c_gossip_volume():
    tables = [(f"renewing {n}", run_gossip_volume(n)) for n in GOSSIP_SIZES]
    tables.append(("tombstones only", run_gossip_volume(
        GOSSIP_TOMBSTONES, tombstones=True)))
    print_table(
        "E14c: gossip per replica per round (sim, counted): one push, "
        "some replies",
        ["table", "rows", "entries/push", "bytes/push", "replies",
         "entries/reply", "bytes/reply"],
        [[name, r["rows"], f"{r['push_entries']:.1f}",
          f"{r['push_bytes']:.0f}", f"{r['replies_per_push']:.2f}",
          f"{r['reply_entries']:.1f}", f"{r['reply_bytes']:.0f}"]
         for name, r in tables])
    quiet = tables[-1][1]
    # Every replica still pushes every round ...
    assert quiet["pushes"] >= 3 * (GOSSIP_ROUNDS - 1)
    # ... but a peer known to hold every tombstone is sent none of them,
    # and has nothing newer to send back.
    assert quiet["push_entries"] == 0
    assert quiet["replies_per_push"] == 0
