"""E19 — capability registry: grant-check overhead and churn soak.

Three measurements over ``repro.registry`` enforcement:

* **Session-establish overhead** (wall-clock, guarded as a bound): the
  same establish/terminate workload run in an unowned world (no
  registry checks anywhere — the pre-registry baseline) and in an
  owned world (initiator and member stamped with principals, one grant
  covering the member). Every prepare on the owned path pays the
  session gate's cached ``registry.check``; the acceptance bound is
  that the cached check costs <= 10% of establish throughput. Rates
  are best-of-``REPS`` to shave scheduler noise; the guarded metric is
  the boolean ``within_bound``.

* **RPC-call overhead** (wall-clock, recorded): the same comparison on
  the RPC hot path — an owned exporter checks ``rpc.call:<method>``
  per invocation; an unowned one checks nothing.

* **Churn soak** (virtual time, seed-deterministic, guarded): a
  marketplace of consumer principals establishing sessions against
  provider-owned services while grants churn — every round one
  consumer is revoked and a fresh one granted. Every granted
  principal's establish must succeed, every revoked principal's must
  be denied at the capability gate (``granted_frac`` and ``denied_ok``
  are 1.0 or enforcement is broken), and the virtual-time establish
  throughput is seed-deterministic.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._util import print_table
from repro.dapplet import Dapplet
from repro.errors import SessionRejected
from repro.net import ConstantLatency
from repro.registry import Registry
from repro.rpc import RemoteProxy, export
from repro.session import Initiator, SessionSpec
from repro.world import World

SEED = 19

#: Establish/terminate cycles per timed run, and repetitions per mode.
ESTABLISHES = 150
RPC_CALLS = 400
REPS = 3

#: The acceptance bound: cached grant checks may cost at most this
#: fraction of session-establish throughput.
OVERHEAD_BOUND = 0.10

#: Churn soak shape.
CHURN_SERVICES = 4
CHURN_CONSUMERS = 16
CHURN_ROUNDS = 6


class Member(Dapplet):
    kind = "member"

    def on_session_start(self, ctx):
        return None


def pair_spec():
    spec = SessionSpec("bench")
    spec.add_member("a", inboxes=("in",))
    spec.add_member("b", inboxes=("in",))
    spec.bind("a", "out", "b", "in")
    return spec


# -- a) session-establish overhead -------------------------------------------


def run_establishes(owned: bool, n: int = ESTABLISHES) -> dict:
    """One timed run; returns wall rate and registry cache counters."""
    world = World(seed=SEED, latency=ConstantLatency(0.01))
    if owned:
        alice = world.registry.principal("alice", org="acme")
        bob = world.registry.principal("bob", org="acme")
        world.registry.grant(bob, "acme/**", ("session.establish",))
        owner_a, owner_b = {"owner": bob}, {"owner": alice}
    else:
        owner_a = owner_b = {}
    world.dapplet(Member, "caltech.edu", "a", **owner_a)
    world.dapplet(Member, "rice.edu", "b", **owner_b)
    initiator = world.dapplet(Initiator, "caltech.edu", "init", **owner_a)

    def director():
        for _ in range(n):
            session = yield from initiator.establish(pair_spec(),
                                                     timeout=30.0)
            yield from session.terminate()

    p = world.process(director())
    start = time.perf_counter()
    world.run(until=p)
    elapsed = time.perf_counter() - start
    stats = world.registry.stats if owned else None
    return {
        "per_s": n / elapsed,
        "checks": (stats.allows + stats.denies) if stats else 0,
        "cache_hits": stats.cache_hits if stats else 0,
        "cache_misses": stats.cache_misses if stats else 0,
    }


def best_of(fn, *args):
    runs = [fn(*args) for _ in range(REPS)]
    return max(runs, key=lambda r: r["per_s"])


# -- b) RPC-call overhead ----------------------------------------------------


class Counter:
    def __init__(self):
        self.n = 0

    def read(self):
        return self.n


def run_rpc_calls(owned: bool, n: int = RPC_CALLS) -> dict:
    world = World(seed=SEED, latency=ConstantLatency(0.01))
    if owned:
        alice = world.registry.principal("alice", org="acme")
        bob = world.registry.principal("bob", org="acme")
        world.registry.grant(bob, "acme/**", ("rpc.call:read",))
        server_kw, client_kw = {"owner": alice}, {"owner": bob}
    else:
        server_kw = client_kw = {}
    server = world.dapplet(Member, "caltech.edu", "server", **server_kw)
    client = world.dapplet(Member, "rice.edu", "client", **client_kw)
    remote = export(server, Counter(), name="counter")
    proxy = RemoteProxy(client, remote.pointer)

    def caller():
        for _ in range(n):
            yield proxy.call("read", timeout=10.0)

    p = world.process(caller())
    start = time.perf_counter()
    world.run(until=p)
    elapsed = time.perf_counter() - start
    return {"per_s": n / elapsed}


# -- c) churn soak -----------------------------------------------------------


def run_churn_soak() -> dict:
    """Marketplace churn: consumers come and go; enforcement holds."""
    world = World(seed=SEED, latency=ConstantLatency(0.01))
    provider = world.registry.principal("provider", org="mkt")
    for i in range(CHURN_SERVICES):
        world.dapplet(Member, f"svc{i}.edu", f"svc{i}", owner=provider)

    def service_spec(i: int) -> SessionSpec:
        spec = SessionSpec("mkt")
        spec.add_member(f"svc{i % CHURN_SERVICES}", inboxes=("in",))
        spec.add_member("lobby", inboxes=("in",))
        spec.bind("lobby", "out", f"svc{i % CHURN_SERVICES}", "in")
        return spec

    world.dapplet(Member, "lobby.edu", "lobby")
    consumers = []
    for i in range(CHURN_CONSUMERS):
        principal = world.registry.principal(f"c{i}", org=f"org{i}")
        world.registry.grant(principal, "mkt/**", ("session.establish",))
        consumers.append(world.dapplet(
            Initiator, f"c{i}.edu", f"init{i}", owner=principal))

    granted = []
    denied = []
    unexpected = []

    def shopper(i: int, initiator):
        # Each consumer churns only its own grant, so an in-flight
        # establish of another principal can never straddle a
        # revocation — outcomes stay exactly predictable.
        has_grant = True
        for r in range(CHURN_ROUNDS):
            try:
                session = yield from initiator.establish(
                    service_spec(i + r), timeout=30.0)
            except SessionRejected as exc:
                (denied if not has_grant else unexpected).append(
                    (i, r, exc.reason))
            else:
                (granted if has_grant else unexpected).append((i, r))
                yield from session.terminate()
            if (r + i) % 3 == 2:  # periodic leave/rejoin churn
                if has_grant:
                    world.registry.revoke(f"c{i}")
                else:
                    world.registry.grant(f"c{i}", "mkt/**",
                                         ("session.establish",))
                has_grant = not has_grant
            yield world.kernel.timeout(0.2)

    for i, initiator in enumerate(consumers):
        world.process(shopper(i, initiator))
    world.run()
    attempts = CHURN_CONSUMERS * CHURN_ROUNDS
    stats = world.registry.stats
    return {
        "attempts": attempts,
        "granted": len(granted),
        "denied": len(denied),
        "granted_frac": (len(granted) + len(denied)) / attempts,
        "denied_ok": 1.0 if not unexpected else 0.0,
        "establishes_per_s": len(granted) / world.now,
        "virtual_duration": world.now,
        "checks": stats.allows + stats.denies,
        "cache_hit_rate": stats.cache_hits
        / max(1, stats.cache_hits + stats.cache_misses),
        "revokes": stats.revokes,
    }


# -- d) cached-vs-uncached microbenchmark ------------------------------------


def check_rates(rounds: int = 20000) -> dict:
    """Raw ``registry.check`` throughput, cold cache vs warm."""
    registry = Registry()
    registry.grant("bob", "acme/**", ("session.establish", "rpc.call:*"))
    args = ("bob", "acme/app/b", "session.establish")

    start = time.perf_counter()
    for _ in range(rounds):
        registry._cache.clear()
        registry.check(*args, owner="alice")
    cold = rounds / (time.perf_counter() - start)

    registry.check(*args, owner="alice")
    start = time.perf_counter()
    for _ in range(rounds):
        registry.check(*args, owner="alice")
    warm = rounds / (time.perf_counter() - start)
    return {"uncached_per_s": cold, "cached_per_s": warm,
            "cached_speedup": warm / cold}


@pytest.fixture(scope="module")
def results():
    baseline = best_of(run_establishes, False)
    enforced = best_of(run_establishes, True)
    overhead = max(0.0, 1.0 - enforced["per_s"] / baseline["per_s"])
    rpc_open = best_of(run_rpc_calls, False)
    rpc_gated = best_of(run_rpc_calls, True)
    rpc_overhead = max(0.0, 1.0 - rpc_gated["per_s"] / rpc_open["per_s"])
    return {
        "sim/establish": {
            "unowned_per_s": baseline["per_s"],
            "owned_per_s": enforced["per_s"],
            "overhead_frac": overhead,
            "within_bound": 1.0 if overhead <= OVERHEAD_BOUND else 0.0,
            "checks": enforced["checks"],
            "cache_hits": enforced["cache_hits"],
            "cache_misses": enforced["cache_misses"],
        },
        "sim/rpc": {
            "open_per_s": rpc_open["per_s"],
            "gated_per_s": rpc_gated["per_s"],
            "overhead_frac": rpc_overhead,
        },
        "sim/churn": run_churn_soak(),
        "check": check_rates(),
    }


def test_e19_table_and_shape(results, benchmark):
    est, rpc = results["sim/establish"], results["sim/rpc"]
    churn, check = results["sim/churn"], results["check"]
    print_table(
        "E19a: grant-check overhead on the hot paths (wall-clock)",
        ["path", "open /s", "gated /s", "overhead"],
        [["establish", f"{est['unowned_per_s']:.0f}",
          f"{est['owned_per_s']:.0f}", f"{est['overhead_frac']:.1%}"],
         ["rpc.call", f"{rpc['open_per_s']:.0f}",
          f"{rpc['gated_per_s']:.0f}", f"{rpc['overhead_frac']:.1%}"]])
    print_table(
        "E19b: marketplace churn soak (virtual time)",
        ["attempts", "granted", "denied", "est/s", "cache hit"],
        [[churn["attempts"], churn["granted"], churn["denied"],
          f"{churn['establishes_per_s']:.1f}",
          f"{churn['cache_hit_rate']:.3f}"]])
    print(f"  registry.check: cached {check['cached_per_s']:,.0f}/s "
          f"uncached {check['uncached_per_s']:,.0f}/s "
          f"({check['cached_speedup']:.1f}x)")

    # The acceptance bound: cached checks stay within 10% of the
    # unowned establish path.
    assert est["within_bound"] == 1.0
    # The hot path really is cached: a handful of misses, then hits.
    assert est["checks"] > 0
    assert est["cache_hits"] > 50 * est["cache_misses"]
    # Churn enforcement is exact: every outcome matched the grant
    # state, denials actually happened, and nothing leaked through.
    assert churn["granted_frac"] == 1.0
    assert churn["denied_ok"] == 1.0
    assert churn["denied"] > 0
    assert churn["revokes"] > 0
    # The cached check beats re-evaluating the grant walk.
    assert check["cached_speedup"] > 1.0

    benchmark(run_establishes, True, 20)
