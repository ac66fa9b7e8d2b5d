"""The seven workloads. Names are fixed; ``metrics.WORKLOADS`` says why
each exists and README.md gives the sizes.

Counts below are the scale-1.0 sizes: what fits a 10 s timed region on
the 2-core box the benchmark was sized on. The issue's counts that did
not fit (600 session cycles, 400x25 token rounds, 6x5000 UDP bursts)
are scaled down here and listed in README.md.
"""

from __future__ import annotations

import string
from collections import Counter
from contextlib import closing
from statistics import median
from time import perf_counter
from typing import Any

from repro import Dapplet, Initiator, SessionSpec, World
from repro.errors import DeadlockDetected, ReproError
from repro.mailbox import Inbox, Outbox
from repro.messages import Text
from repro.net import ConstantLatency, FaultPlan, GeoLatency, NodeAddress
from repro.net.delivery import RELIABLE, RELIABLE_SKIP, UNRELIABLE
from repro.net.endpoint import Endpoint
from repro.net.latency import WAN_SITES
from repro.obs import Tracer
from repro.rpc import RemoteProxy, export
from repro.store import DurableState, MemoryBackend

from .harness import (Context, Outcome, coarse, mismatches, per_op_us,
                      slices, tail)

HUB = NodeAddress("hub.edu", 1000)
SRC = NodeAddress("src.edu", 1000)

#: Wall-clock ceiling on any single real-UDP wait (a lost packet or a
#: wedged loop fails the run instead of hanging it).
UDP_WAIT = 60.0


class Node(Dapplet):
    kind = "node"


# -- counters -----------------------------------------------------------------


def read_counters(substrate: Any, endpoints: list[Endpoint]) -> Counter:
    """Public stats of one substrate and its endpoints, flattened."""
    counts: Counter = Counter()
    for key, value in substrate.datagrams.stats.snapshot().items():
        counts["net." + key] = value
    for endpoint in endpoints:
        for key, value in endpoint.stats.snapshot().items():
            counts["ep." + key] += value
    armed = getattr(substrate, "armed", None)
    if armed is not None:
        counts["timers.armed"] = armed["repro.net.endpoint"]
        counts["timers.fired"] = substrate.fired["repro.net.endpoint"]
        counts["kernel.events"] = getattr(substrate, "events_scheduled", 0)
        counts["socket.bytes"] = getattr(substrate.datagrams,
                                         "socket_bytes", 0)
    return counts


def world_counters(world: World) -> Counter:
    return read_counters(world.substrate,
                         [d.endpoint for d in world.dapplets()])


def since(after: Counter, before: Counter) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


# -- the three simulated streams ----------------------------------------------


def wire_pair(substrate: Any):
    """One outbox -> one inbox with the E13 ``run_wire`` settings."""
    rx = Endpoint(substrate, substrate.datagrams, HUB, rto_initial=0.1,
                  recv_window=64000)
    tx = Endpoint(substrate, substrate.datagrams, SRC, rto_initial=0.1,
                  cwnd_initial=4096)
    inbox = Inbox(substrate, rx, 0)
    outbox = Outbox(substrate, tx, 0)
    outbox.add(inbox.address)
    return [tx, rx], inbox, outbox


#: Digits, letters, punctuation, space. The double quote and the backslash
#: are escaped on the wire, so bytes per message depend (slightly) on the
#: seed's texts.
PRINTABLE = string.printable[:95]


def _six_byte_texts(ctx: Context, n: int) -> list[str]:
    chars = "".join(ctx.rng.choices(PRINTABLE, k=6 * n))
    return [chars[i:i + 6] for i in range(0, 6 * n, 6)]


def burst(substrate: Any, inbox: Inbox, outbox: Outbox,
          texts: list[str]) -> tuple[float, list[float], int]:
    """Send ``texts`` unpaced, receive them all, run to quiescence.

    Returns wall seconds, every message's wall sojourn in µs (``send()``
    to its ``receive()``; the channel is FIFO, so the k-th received is
    the k-th sent) and the number of wrong, missing or extra messages.
    """
    n = len(texts)
    got: list[str] = []
    sent_at: list[float] = []
    sojourn_us: list[float] = []

    def consumer():
        for k in range(n):
            message = yield inbox.receive()
            sojourn_us.append((perf_counter() - sent_at[k]) * 1e6)
            got.append(message.text)

    proc = substrate.process(consumer())
    start = perf_counter()
    send = outbox.send
    for text in texts:
        sent_at.append(perf_counter())
        send(Text(text))
    substrate.run(proc)
    substrate.run()  # stray ACKs and timers are part of the burst's cost
    return perf_counter() - start, sojourn_us, mismatches(got, texts)


BULK_SMALL, BULK_LARGE = 2000, 20000
BULK_SMALL_PER_CYCLE = 4


def stream_sim_bulk(ctx: Context) -> Outcome:
    substrate = ctx.sim(latency=ConstantLatency(0.005), encoded=True)
    endpoints, inbox, outbox = wire_pair(substrate)
    cycles = ctx.scaled(3)
    plan = ([BULK_SMALL] * BULK_SMALL_PER_CYCLE + [BULK_LARGE]) * cycles
    bursts = [_six_byte_texts(ctx, n) for n in plan]
    burst(substrate, inbox, outbox, _six_byte_texts(ctx, BULK_SMALL))
    before = read_counters(substrate, endpoints)
    ctx.ready()

    failed = 0
    cost = {BULK_SMALL: [], BULK_LARGE: []}
    segments, lat_us = [], []
    for index, texts in enumerate(bursts):
        ctx.op(-1 - index)
        seconds, sojourn_us, wrong = burst(substrate, inbox, outbox, texts)
        failed += wrong
        cost[len(texts)].append(seconds * 1e6 / len(texts))
        if len(texts) == BULK_LARGE:
            segments.append((len(texts), seconds))
            lat_us += sojourn_us
    counts = since(read_counters(substrate, endpoints), before)
    sent = sum(plan)
    return Outcome(
        attempted=sent, failed=failed, completed=sent - failed,
        segments=segments, lat_us=lat_us, wire_bytes=counts["net.bytes_sent"],
        extra={"scale_ratio": median(cost[BULK_LARGE])
               / median(cost[BULK_SMALL])},
        counts=counts,
        notes={"us_per_msg_2000": median(cost[BULK_SMALL]),
               "us_per_msg_20000": median(cost[BULK_LARGE]),
               "bursts": dict(Counter(plan))})


TRACER_MODES = ("none", "metrics_only", "full")
TRACED_BURST = 2000


def stream_sim_traced(ctx: Context) -> Outcome:
    def segment(mode: str, texts: list[str]):
        substrate = ctx.sim(latency=ConstantLatency(0.005))
        if mode != "none":
            Tracer(metrics_only=(mode == "metrics_only")).attach(substrate)
        endpoints, inbox, outbox = wire_pair(substrate)
        seconds, sojourn_us, wrong = burst(substrate, inbox, outbox, texts)
        return seconds, sojourn_us, wrong, read_counters(substrate, endpoints)

    triples = ctx.scaled(20, minimum=2)
    texts = [[_six_byte_texts(ctx, TRACED_BURST) for _ in TRACER_MODES]
             for _ in range(triples)]
    for mode in TRACER_MODES:
        segment(mode, texts[0][0])
    ctx.ready()

    failed = 0
    cost: dict[str, list[float]] = {mode: [] for mode in TRACER_MODES}
    segments, lat_us = [], []
    counts: Counter = Counter()
    for t in range(triples):
        ctx.op(-1 - t)
        # Rotate the order so no mode always runs on a warm (or cold) heap.
        order = TRACER_MODES[t % 3:] + TRACER_MODES[:t % 3]
        for mode, payloads in zip(order, texts[t]):
            seconds, sojourn_us, wrong, seg_counts = segment(mode, payloads)
            failed += wrong
            cost[mode].append(seconds * 1e6 / TRACED_BURST)
            if mode == "full":
                segments.append((TRACED_BURST, seconds))
                lat_us += sojourn_us
                counts.update(seg_counts)
    sent = triples * len(TRACER_MODES) * TRACED_BURST
    none = median(cost["none"])
    return Outcome(
        attempted=sent, failed=failed, completed=triples * TRACED_BURST,
        segments=segments, lat_us=lat_us, wire_bytes=counts["net.bytes_sent"],
        extra={"trace_cost_ratio": median(cost["metrics_only"]) / none},
        counts=dict(counts),
        notes={f"us_per_msg_{mode}": median(cost[mode])
               for mode in TRACER_MODES})


LOSSY_CLASSES = (RELIABLE, RELIABLE_SKIP, UNRELIABLE)
LOSSY_TICK = 0.010      # virtual seconds: 100 msg/s per class
LOSSY_WARM_TICKS = 200
#: Ticks (of three messages) per latency sample: fine enough that every
#: segment of the run holds the 200 samples its own tail needs.
LOSSY_SLICE_TICKS = 10


def stream_sim_lossy(ctx: Context) -> Outcome:
    world = World(substrate=ctx.sim(
        latency=ConstantLatency(0.02), encoded=True,
        faults=FaultPlan(drop_prob=0.05, duplicate_prob=0.01,
                         reorder_jitter=0.01)))
    sender = world.dapplet(Node, "a.edu", "a")
    receiver = world.dapplet(Node, "b.edu", "b")
    pad = "".join(ctx.rng.choices(string.ascii_letters, k=192))
    channels = []
    for cls in LOSSY_CLASSES:
        inbox = receiver.create_inbox(name=f"in-{cls}")
        outbox = sender.create_outbox(delivery=cls)
        outbox.add(inbox.named_address)
        channels.append((cls, inbox, outbox))

    got: dict[str, list[int]] = {cls: [] for cls in LOSSY_CLASSES}
    sent_at: dict[int, float] = {}
    vlat_ms: list[float] = []
    kernel = world.kernel

    def consumer(cls: str, inbox: Inbox):
        seen = got[cls]
        reliable = cls == RELIABLE
        while True:
            message = yield inbox.receive()
            index = int(message.text[:8])
            seen.append(index)
            if reliable:
                vlat_ms.append((kernel.now - sent_at[index]) * 1e3)

    for cls, inbox, _ in channels:
        world.process(consumer(cls, inbox))

    stamps: list[float] = []
    delivered_at: list[int] = []

    def mark():
        stamps.append(perf_counter())
        delivered_at.append(sum(map(len, got.values())))

    def producer(first: int, ticks: int):
        for index in range(first, first + ticks):
            sent_at[index] = kernel.now
            text = f"{index:08d}{pad}"
            for _, _, outbox in channels:
                outbox.send(Text(text))
            if (index - first + 1) % LOSSY_SLICE_TICKS == 0:
                mark()
            yield kernel.timeout(LOSSY_TICK)

    warm = LOSSY_WARM_TICKS
    world.run(until=world.process(producer(0, warm)))
    world.run()
    for seen in got.values():
        seen.clear()
    vlat_ms.clear()
    before = world_counters(world)
    ctx.ready()

    ticks = ctx.scaled(20000, minimum=1000)
    ticks -= ticks % LOSSY_SLICE_TICKS
    ctx.op(-1)
    stamps.clear()
    delivered_at.clear()
    mark()
    world.run(until=world.process(producer(warm, ticks)))
    world.run()  # repair whatever is still in flight
    stamps[-1] = perf_counter()
    delivered_at[-1] = sum(map(len, got.values()))

    failed = 0
    for cls, seen in got.items():
        failed += sum(1 for a, b in zip(seen, seen[1:]) if b <= a)
    failed += ticks - len(set(got[RELIABLE]))
    fine = [(b - a, t1 - t0) for a, b, t0, t1 in
            zip(delivered_at, delivered_at[1:], stamps, stamps[1:])]
    counts = since(world_counters(world), before)
    return Outcome(
        attempted=ticks * len(LOSSY_CLASSES), failed=failed,
        completed=delivered_at[-1], segments=coarse(fine),
        lat_us=per_op_us(fine),
        wire_bytes=counts["net.bytes_sent"], vlat_ms=vlat_ms, counts=counts,
        notes={"delivered": {cls: len(seen) for cls, seen in got.items()},
               "virtual_msgs_per_s_per_class": 1.0 / LOSSY_TICK,
               "fault_fingerprint": "/".join(
                   str(counts[key]) for key in
                   ("net.dropped", "net.duplicated", "net.delivered"))})


# -- the real-UDP pair ---------------------------------------------------------

UDP_BURST = 3000
UDP_PACED_RATE = 500    # msg/s; see README for why not 1000


def stream_udp_sized(ctx: Context) -> Outcome:
    with closing(World(substrate=ctx.aio())) as world:
        return _stream_udp_sized(ctx, world)


def _stream_udp_sized(ctx: Context, world: World) -> Outcome:
    substrate = world.substrate
    sender = world.dapplet(Node, "a.edu", "a")
    receiver = world.dapplet(Node, "b.edu", "b")
    inbox = receiver.create_inbox(name="in")
    outbox = sender.create_outbox()
    outbox.add(inbox.named_address)
    pad = "".join(ctx.rng.choices(string.ascii_letters, k=1016))

    def unpaced(first: int, n: int):
        """Phase A: ``n`` 1 KiB messages unpaced; wall until all arrived."""
        got: list[int] = []

        def consumer():
            for _ in range(n):
                message = yield inbox.receive()
                got.append(int(message.text[:8]))

        proc = world.process(consumer())
        start = perf_counter()
        for index in range(first, first + n):
            outbox.send(Text(f"{index:08d}{pad}"))
        world.run(until=proc, wall_timeout=UDP_WAIT)
        seconds = perf_counter() - start
        world.run(wall_timeout=UDP_WAIT)  # let trailing ACKs settle, untimed
        return seconds, mismatches(got, list(range(first, first + n)))

    unpaced(0, 500)
    before = world_counters(world)
    ctx.ready()

    failed = 0
    segments = []
    bursts = ctx.scaled(6, minimum=2)
    for b in range(bursts):
        ctx.op(-1 - b)
        seconds, wrong = unpaced(b * UDP_BURST, UDP_BURST)
        failed += wrong
        segments.append((UDP_BURST, seconds))

    # Phase B: open loop; every message is timed from when it was due.
    paced = ctx.scaled(2000, minimum=250)
    interval = 1.0 / UDP_PACED_RATE
    lat_us: list[float] = []
    late_us: list[float] = []
    got: list[int] = []
    origin = perf_counter() + 0.02

    def consumer():
        for _ in range(paced):
            message = yield inbox.receive()
            index = int(message.text[:8])
            got.append(index)
            lat_us.append((perf_counter() - (origin + index * interval)) * 1e6)

    def generator():
        index = 0
        while index < paced:
            now = perf_counter()
            while index < paced and origin + index * interval <= now:
                late_us.append((now - (origin + index * interval)) * 1e6)
                outbox.send(Text(f"{index:08d}{pad}"))
                index += 1
            if index < paced:
                wait = origin + index * interval - perf_counter()
                yield substrate.timeout(max(0.0, wait))

    ctx.op(-1 - bursts)
    proc = world.process(consumer())
    world.process(generator())
    world.run(until=proc, wall_timeout=UDP_WAIT)
    failed += mismatches(got, list(range(paced)))
    counts = since(world_counters(world), before)
    sent = bursts * UDP_BURST + paced
    # Taken like lat_p99_us (median over windows): one host stall makes a
    # run of consecutive sends late without the generator falling behind.
    gen_late, _, _ = tail(late_us, windows=len(segments))
    return Outcome(
        attempted=sent, failed=failed, completed=sent - failed,
        segments=segments, lat_us=lat_us, wire_bytes=counts["net.bytes_sent"],
        extra={"bench.gen_late_p99_us": gen_late}, counts=counts,
        notes={"link": "host loopback (127.0.0.1), not a real link",
               "paced_msgs_per_s": UDP_PACED_RATE,
               "paced_interval_us": interval * 1e6,
               "valid": gen_late <= interval * 1e6})


class Accumulator:
    """The exported object of ``rpc_udp_closed``."""

    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total


RPC_SLICE = 200


def rpc_udp_closed(ctx: Context) -> Outcome:
    with closing(World(substrate=ctx.aio())) as world:
        return _rpc_udp_closed(ctx, world)


def _rpc_udp_closed(ctx: Context, world: World) -> Outcome:
    server = world.dapplet(Node, "s.edu", "server")
    client = world.dapplet(Node, "c.edu", "client")
    target = Accumulator()
    proxy = RemoteProxy(client, export(server, target, name="acc").pointer)
    calls = ctx.scaled(20000, minimum=5 * RPC_SLICE)
    calls -= calls % RPC_SLICE
    amounts = [ctx.rng.randrange(1, 100) for _ in range(calls)]

    def caller(amounts: list[int], lat_us: list[float], stamps: list[float],
               wrong: list[int]):
        expected = target.total
        stamps.append(perf_counter())
        for k, amount in enumerate(amounts, 1):
            ctx.op(k)
            start = perf_counter()
            value = yield proxy.call("add", amount)
            lat_us.append((perf_counter() - start) * 1e6)
            expected += amount
            if value != expected:
                wrong.append(k)
            if k % RPC_SLICE == 0:
                stamps.append(perf_counter())

    world.run(until=world.process(caller([1] * 200, [], [], [])),
              wall_timeout=UDP_WAIT)
    before = world_counters(world)
    ctx.ready()

    lat_us: list[float] = []
    stamps: list[float] = []
    wrong: list[int] = []
    error = ""
    try:
        world.run(until=world.process(caller(amounts, lat_us, stamps, wrong)),
                  wall_timeout=UDP_WAIT)
    except ReproError as exc:  # a lost call fails the rest, not the report
        error = repr(exc)
    done = len(lat_us)
    failed = len(wrong) + (calls - done)
    counts = since(world_counters(world), before)
    return Outcome(
        attempted=calls, failed=failed, completed=done - len(wrong),
        segments=coarse(slices(stamps, RPC_SLICE)), lat_us=lat_us,
        wire_bytes=counts["net.bytes_sent"], counts=counts,
        notes={"link": "host loopback (127.0.0.1), not a real link",
               "error": error})


# -- control plane ---------------------------------------------------------------

CHURN_MEMBERS, CHURN_SESSION = 32, 8
CHURN_SETS = 4
CHURN_WARM = 2          # untimed cycles before the first timed one
CHURN_SITES = sorted(WAN_SITES)


class ChurnMember(Dapplet):
    """A member of ``session_churn_sim``: the hub fans one message out
    and collects a completion from every leaf; every member journals
    ``CHURN_SETS`` writes to its ``data`` region."""

    kind = "member"

    def __init__(self, world, address, name, *, done: dict) -> None:
        super().__init__(world, address, name)
        self._done = done

    def on_session_start(self, ctx):
        return self._hub(ctx) if ctx.member == "m0" else self._leaf(ctx)

    @staticmethod
    def _work(ctx, tag: str) -> None:
        region = ctx.region("data")
        for j in range(CHURN_SETS):
            region.set(f"k{j}", f"{tag}:{j}")

    def _leaf(self, ctx):
        message = yield ctx.inbox("in").receive()
        self._work(ctx, message.text)
        ctx.outbox("out").send(Text("done:" + message.text))

    def _hub(self, ctx):
        tag = ctx.params["tag"]
        ctx.outbox("out").send(Text(tag))
        self._work(ctx, tag)
        correct = True
        for _ in range(CHURN_SESSION - 1):
            message = yield ctx.inbox("in").receive()
            correct &= message.text == "done:" + tag
        self._done.pop(tag).succeed(correct)


def _churn_spec(names: list[str], tag: str) -> SessionSpec:
    spec = SessionSpec("churn", params={"tag": tag})
    for j, name in enumerate(names):
        spec.add_member(f"m{j}", directory_name=name, inboxes=("in",),
                        regions={"data": "rw"})
    for j in range(1, len(names)):
        spec.bind("m0", "out", f"m{j}", "in")
        spec.bind(f"m{j}", "out", "m0", "in")
    return spec


def _churn_picks(ctx: Context, cycles: int) -> list[list[int]]:
    """The member indices of each cycle's session.

    Within one seeded permutation of the members the session window steps
    by half a session, so each cycle re-resolves four names the last one
    cached and four it has not seen for a while. A fresh permutation per
    pass keeps one seed's draw of who meets whom (and how far apart they
    sit) from setting the whole run's cost.
    """
    step = CHURN_SESSION // 2
    picks: list[list[int]] = []
    while len(picks) < cycles:
        order = ctx.rng.sample(range(CHURN_MEMBERS), CHURN_MEMBERS)
        picks += [[order[(start + j) % CHURN_MEMBERS]
                   for j in range(CHURN_SESSION)]
                  for start in range(0, CHURN_MEMBERS, step)]
    return picks[:cycles]


def session_churn_sim(ctx: Context) -> Outcome:
    backend = MemoryBackend()
    world = World(substrate=ctx.sim(latency=GeoLatency()), store=backend)
    registry = world.registry
    director_owner = registry.principal("alice", org="acme")
    owners = [registry.principal(f"owner{i}", org=f"org{i}")
              for i in range(4)]
    registry.grant(director_owner, "**", ("session.establish",))
    world.host_directory([f"dir{i}.{site}" for i, site in
                          enumerate(("caltech.edu", "mit.edu", "ethz.ch"))])
    world.host_dappstore([f"store{i}.{site}" for i, site in
                          enumerate(("rice.edu", "utk.edu", "u-tokyo.ac.jp"))])
    done: dict[str, Any] = {}
    members = [world.dapplet(ChurnMember,
                             f"h{i}.{CHURN_SITES[i % len(CHURN_SITES)]}",
                             f"mem{i}", owner=owners[i % len(owners)],
                             done=done)
               for i in range(CHURN_MEMBERS)]
    initiator = world.dapplet(Initiator, "i.caltech.edu", "init",
                              owner=director_owner)
    client = world.store_client_for(initiator)
    kernel = world.kernel
    cycles = ctx.scaled(250, minimum=10)
    picks = _churn_picks(ctx, CHURN_WARM + cycles)
    expected: dict[str, dict] = {}

    def director(first: int, cycles: int, lat_us, vlat_ms, stamps, bad):
        stamps.append(perf_counter())
        for cycle in range(first, first + cycles):
            ctx.op(cycle)
            tag = f"c{cycle}"
            picked = picks[cycle]
            names = [members[i].name for i in picked]
            finished = done[tag] = kernel.event()
            start = perf_counter()
            manifest = yield from client.lookup(
                members[picked[0]].manifest_name)
            began = kernel.now
            session = yield from initiator.establish(_churn_spec(names, tag))
            vlat_ms.append((kernel.now - began) * 1e3)
            correct = yield finished
            yield from session.terminate()
            lat_us.append((perf_counter() - start) * 1e6)
            stamps.append(perf_counter())
            if manifest is None or not correct:
                bad.append(cycle)
            for name in names:
                expected[name] = {"data": {f"k{j}": f"{tag}:{j}"
                                           for j in range(CHURN_SETS)}}

    world.run(until=3.0)  # leases granted, manifests published
    world.run(until=world.process(director(0, CHURN_WARM, [], [], [], [])))
    before = world_counters(world)
    resolver_before = initiator.resolver.stats.snapshot()
    checks_before = registry.stats.allows + registry.stats.denies
    ctx.ready()

    lat_us: list[float] = []
    vlat_ms: list[float] = []
    stamps: list[float] = []
    bad: list[int] = []
    world.run(until=world.process(
        director(CHURN_WARM, cycles, lat_us, vlat_ms, stamps, bad)))

    failed = len(bad)
    for member in members:
        durable = DurableState(backend, name=f"dapplet/{member.name}")
        if durable.recover() != expected.get(member.name, {}):
            failed += 1
    counts = since(world_counters(world), before)
    resolver = initiator.resolver.stats.snapshot()
    counts["resolver.hits"] = resolver["hits"] - resolver_before["hits"]
    counts["resolver.misses"] = (resolver["misses"]
                                 - resolver_before["misses"])
    counts["registry.checks"] = (registry.stats.allows + registry.stats.denies
                                 - checks_before)
    counts["session.members"] = cycles * CHURN_SESSION
    return Outcome(
        attempted=cycles + len(members), failed=failed,
        completed=cycles - len(bad), segments=coarse(slices(stamps, 1)),
        lat_us=lat_us, wire_bytes=counts["net.bytes_sent"], vlat_ms=vlat_ms,
        counts=counts,
        notes={"virtual_seconds": kernel.now,
               "durable_states_checked": len(members)})


RING_SHARDS, RING_COLOURS, RING_AGENTS = 16, 64, 400
#: Tokens per colour. Generous on purpose: a colour that runs dry queues
#: requests, every commit at that shard then re-broadcasts probes for
#: the whole queue, and run time becomes a cliff-edge function of the
#: seed (20 per colour doubles it, 8 multiplies it by 25).
RING_TOKENS = 32
RING_HOLD = 0.05
RING_SLICE = 10         # grants per latency sample


def token_ring_sim(ctx: Context) -> Outcome:
    colours = [f"c{i}" for i in range(RING_COLOURS)]
    world = World(substrate=ctx.sim(latency=ConstantLatency(0.01)))
    service = world.host_token_shards(RING_SHARDS,
                                      dict.fromkeys(colours, RING_TOKENS))
    home = {colour: service.ring.home(colour) for colour in colours}
    rng = ctx.rng
    kernel = world.kernel

    def plan(rounds: int) -> list[dict[str, int]]:
        """Odd rounds one colour, even rounds two on different shards."""
        requests = []
        for r in range(1, rounds + 1):
            first = rng.choice(colours)
            if r % 2:
                requests.append({first: 1})
            else:
                second = rng.choice([c for c in colours
                                     if home[c] != home[first]])
                requests.append({first: 1, second: 1})
        return requests

    agents = [service.attach(world.dapplet(Node, f"s{i}.edu", f"a{i}"))
              for i in range(RING_AGENTS)]
    state = {"grants": 0}
    stamps: list[float] = []
    vlat: dict[int, list[float]] = {1: [], 2: []}
    victims: list[int] = []
    finished: list[int] = []

    def worker(i: int, agent, requests):
        yield kernel.timeout(0.001 * (i % 97))
        for tokens in requests:
            began = kernel.now
            try:
                yield agent.request(tokens)
            except DeadlockDetected:
                victims.append(i)
                continue
            vlat[len(tokens)].append((kernel.now - began) * 1e3)
            state["grants"] += 1
            if state["grants"] % RING_SLICE == 0:
                stamps.append(perf_counter())
            yield kernel.timeout(RING_HOLD)
            agent.release(tokens)
        finished.append(i)

    def run_rounds(rounds: int) -> None:
        for i, agent in enumerate(agents):
            world.process(worker(i, agent, plan(rounds)))
        world.run()

    run_rounds(1)
    before = world_counters(world)
    base = (service.forwards, service.probes_sent, service.grants)
    for samples in vlat.values():
        samples.clear()
    state["grants"] = 0
    finished.clear()
    ctx.ready()

    rounds = ctx.scaled(20, minimum=2)
    ctx.op(-1)
    stamps.clear()
    stamps.append(perf_counter())
    run_rounds(rounds)
    requests = RING_AGENTS * rounds

    failed = len(victims) + (RING_AGENTS - len(finished))
    try:
        service.check_conservation()
    except ReproError:
        failed += 1
    failed += 0 if service.quiescent else 1
    counts = since(world_counters(world), before)
    counts["tokens.forwards"] = service.forwards - base[0]
    counts["tokens.probes"] = service.probes_sent - base[1]
    counts["tokens.twopc"] = len(vlat[2])
    waits = [v - min(samples) for samples in vlat.values() if samples
             for v in samples]
    counts["tokens.queue_wait_vms_p50"] = median(waits) if waits else 0.0
    fine = slices(stamps, RING_SLICE)
    return Outcome(
        attempted=requests, failed=failed,
        completed=service.grants - base[2],
        segments=coarse(fine), lat_us=per_op_us(fine),
        wire_bytes=counts["net.bytes_sent"], vlat_ms=vlat[1] + vlat[2],
        counts=counts,
        notes={"virtual_seconds": kernel.now,
               "deadlock_victims": len(victims)})


RUNNERS = {
    "stream_sim_bulk": stream_sim_bulk,
    "stream_sim_lossy": stream_sim_lossy,
    "stream_sim_traced": stream_sim_traced,
    "stream_udp_sized": stream_udp_sized,
    "rpc_udp_closed": rpc_udp_closed,
    "session_churn_sim": session_churn_sim,
    "token_ring_sim": token_ring_sim,
}
