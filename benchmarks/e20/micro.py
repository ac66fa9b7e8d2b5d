"""Isolated per-layer micro-benchmarks.

Each function times one layer's public calls in a loop of fixed length
and returns ``{metric name: value}``. They do not depend on the workload
or the seed, so the ``--trace 1`` run of every workload reports the same
rows; they exist so that a change to one layer has a number of its own
to move, next to the end-to-end cell it is supposed to move.
"""

from __future__ import annotations

import tempfile
from contextlib import closing
from statistics import median
from time import perf_counter
from typing import Any, Callable

from repro import Dapplet, World
from repro.dapplet.state import PersistentState
from repro.messages import Text
from repro.messages.serialize import dumps, loads
from repro.net import ConstantLatency, NodeAddress
from repro.net.datagram import Datagram
from repro.net.wire import (KIND_ACK, KIND_DATA, KIND_PROBE, KIND_SKIP,
                            decode_frame, encode_frame)
from repro.obs import Tracer
from repro.registry import Registry
from repro.rpc import RemoteProxy, export
from repro.runtime import AsyncioSubstrate, SimSubstrate
from repro.services.tokens import TokenAgent, TokenCoordinator
from repro.store import (FSYNC_ALWAYS, FSYNC_NEVER, DurableState,
                         FileBackend, MemoryBackend)

from .harness import calibrate
from .workloads import UDP_WAIT, Accumulator, Node, burst, wire_pair

A = NodeAddress("caltech.edu", 2000)
B = NodeAddress("sydney.edu.au", 2107)


def _per_call_us(fn: Callable[[], Any], iterations: int) -> float:
    """Best of three loops, µs per call."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (perf_counter() - start) / iterations)
    return best * 1e6


def serialize() -> dict[str, float]:
    out = {}
    for label, size in (("b6", 6), ("b1024", 1024)):
        message = Text("x" * size)
        wire = dumps(message)
        iterations = 20000 if size == 6 else 5000
        out[f"messages.serialize.dumps_us.{label}"] = _per_call_us(
            lambda: dumps(message), iterations)
        out[f"messages.serialize.loads_us.{label}"] = _per_call_us(
            lambda: loads(wire), iterations)
    out["messages.serialize.wire_chars_per_payload_byte"] = \
        len(dumps(Text("x" * 1024))) / 1024
    return out


def _frames() -> dict[str, Datagram]:
    """One frame per kind the transport emits, sized like the workloads'."""
    small = dumps(Text("000000"))
    return {
        "data1": Datagram(A, B, {"kind": KIND_DATA, "to": "in", "ch": "a/o0",
                                 "seq": 1234, "ts": 17.640625},
                          dumps(Text("x" * 1024))),
        "data_batch32": Datagram(
            A, B, {"kind": KIND_DATA, "to": 0, "ch": "a/o0", "seq": 4096,
                   "ts": 99.375, "parts": [0] * 32},
            "", parts_payloads=(small,) * 32),
        "ack_sack": Datagram(
            A, B, {"kind": KIND_ACK, "ch": "a/o0", "cum": 1233,
                   "ets": 17.640625, "rwnd": 61440,
                   "sack": [[1290, 1293], [1295, 1295], [1299, 1304]]}, ""),
        "probe": Datagram(A, B, {"kind": KIND_PROBE, "ch": "a/o0"}, ""),
        "skip": Datagram(A, B, {"kind": KIND_SKIP, "ch": "a/o0",
                                "upto": 1300}, ""),
    }


def wire() -> dict[str, float]:
    out = {}
    for kind, frame in _frames().items():
        data = encode_frame(frame)
        if decode_frame(data) != frame:
            raise AssertionError(f"frame {kind} does not round-trip")
        out[f"net.wire.encode_us.{kind}"] = _per_call_us(
            lambda: encode_frame(frame), 4000)
        out[f"net.wire.decode_us.{kind}"] = _per_call_us(
            lambda: decode_frame(data), 4000)
        out[f"net.wire.frame_bytes.{kind}"] = float(len(data))
    return out


def _sim_burst_us(n: int, *, encoded: bool = False,
                  tracer: Tracer | None = None) -> float:
    substrate = SimSubstrate(seed=1, latency=ConstantLatency(0.005),
                             encoded=encoded)
    if tracer is not None:
        tracer.attach(substrate)
    _, inbox, outbox = wire_pair(substrate)
    texts = [f"{i:06d}" for i in range(n)]
    seconds, _, wrong = burst(substrate, inbox, outbox, texts)
    if wrong:
        raise AssertionError("micro burst delivered wrong messages")
    return seconds * 1e6 / n


def datagram_and_obs(n: int = 1000, reps: int = 3) -> dict[str, float]:
    """Simulated-burst cost four ways: plain, encoded, and plain with each
    tracer mode attached."""
    plain, encoded, cheap, full = [], [], [], []
    events = 0
    for _ in range(reps):
        plain.append(_sim_burst_us(n))
        encoded.append(_sim_burst_us(n, encoded=True))
        cheap.append(_sim_burst_us(n, tracer=Tracer(metrics_only=True)))
        tracer = Tracer()
        full.append(_sim_burst_us(n, tracer=tracer))
        events = len(tracer.events)
    base = median(plain)
    per_msg = events / n
    return {
        "net.datagram.encoded_over_plain_ratio": median(encoded) / base,
        "obs.events_per_msg": per_msg,
        "obs.us_per_event": (median(full) - base) / per_msg,
        "obs.full_ratio": median(full) / base,
        "obs.metrics_only_ratio": median(cheap) / base,
    }


def store(scratch: str) -> dict[str, float]:
    out = {}

    def journaled(backend, fsync: str, sets: int) -> tuple[float, Any]:
        durable = DurableState(backend, name="bench", snapshot_every=0,
                               fsync=fsync)
        region = PersistentState(durable).region("data")
        start = perf_counter()
        for i in range(sets):
            region.set(f"k{i % 64}", f"value-{i}")
        return (perf_counter() - start) * 1e6 / sets, durable

    out["store.set_us.memory"], durable = journaled(
        MemoryBackend(), FSYNC_ALWAYS, 2000)
    out["store.wal_bytes_per_set"] = len(durable.wal_bytes()) / 2000
    fresh = DurableState(durable.backend, name="bench")
    start = perf_counter()
    fresh.recover()
    out["store.recover_us_per_record"] = (perf_counter() - start) * 1e6 / 2000
    start = perf_counter()
    durable.fold()
    out["store.fold_us"] = (perf_counter() - start) * 1e6
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        for label, fsync, sets in (("file", FSYNC_NEVER, 1000),
                                   ("file_fsync", FSYNC_ALWAYS, 60)):
            with closing(FileBackend(f"{root}/{label}")) as backend:
                out[f"store.set_us.{label}"], _ = journaled(backend, fsync,
                                                            sets)
    return out


def registry() -> dict[str, float]:
    reg = Registry()
    reg.grant("bob", "acme/**", ("session.establish",))
    reg.check("bob", "acme/app/b", "session.establish", owner="alice")
    targets = iter(f"acme/app/b{i}" for i in range(10 ** 6))
    return {
        "registry.check_us.cached": _per_call_us(
            lambda: reg.check("bob", "acme/app/b", "session.establish",
                              owner="alice"), 20000),
        # A target never seen before misses the decision cache.
        "registry.check_us.uncached": _per_call_us(
            lambda: reg.check("bob", next(targets), "session.establish",
                              owner="alice"), 20000),
    }


class _Owned(Dapplet):
    kind = "svc"


def catalogs() -> dict[str, float]:
    """Directory and DAppStore: lookup cost and idle background traffic."""
    world = World(seed=1, latency=ConstantLatency(0.01))
    owner = world.registry.principal("owner", org="org")
    directory = world.host_directory(3)
    dappstore = world.host_dappstore(3)
    members = [world.dapplet(_Owned, f"h{i}.edu", f"svc{i}", owner=owner)
               for i in range(32)]
    client = world.dapplet(Node, "client.edu", "client")
    resolver = world.resolver_for(client)
    lookups = world.store_client_for(client)

    sides = {"discovery": {d.address for d in directory},
             "registry.store": {d.address for d in dappstore}}
    seen = dict.fromkeys(sides, 0)

    def tap(_now, datagram) -> None:
        for side, nodes in sides.items():
            if datagram.src in nodes or datagram.dst in nodes:
                seen[side] += 1

    world.run(until=3.0)
    world.network.wire_taps.append(tap)
    world.run(until=8.0)
    world.network.wire_taps.remove(tap)
    out = {f"{side}.background_dgrams_per_vs": n / 5.0
           for side, n in seen.items()}

    def timed(body, rounds: int, key: str):
        def process():
            start = perf_counter()
            for i in range(rounds):
                yield from body(i)
            out[key] = (perf_counter() - start) * 1e6 / rounds
        world.run(until=world.process(process()))

    def cached(_i):
        yield from resolver.resolve("svc0")

    def uncached(i):
        name = f"svc{i % len(members)}"
        resolver.invalidate(name)
        yield from resolver.resolve(name)

    def manifest(i):
        found = yield from lookups.lookup(
            members[i % len(members)].manifest_name)
        if found is None:
            raise AssertionError("published manifest not found")

    timed(uncached, 1, "_warm")
    timed(cached, 2000, "discovery.resolve_us.cached")
    timed(uncached, 150, "discovery.resolve_us.uncached")
    timed(manifest, 150, "registry.store.lookup_us")
    del out["_warm"]
    return out


def tokens(rounds: int = 150) -> dict[str, float]:
    colours = [f"c{i}" for i in range(8)]
    pool = dict.fromkeys(colours, 4)
    out = {}
    for variant in ("coordinator", "shard1", "shard16"):
        world = World(seed=1, latency=ConstantLatency(0.01))
        client = world.dapplet(Node, "client.edu", "client")
        if variant == "coordinator":
            host = world.dapplet(Node, "tok.edu", "tok")
            agent = TokenAgent(client, TokenCoordinator(host, pool).pointer)
        else:
            service = world.host_token_shards(int(variant[5:]), pool)
            agent = service.attach(client)

        def cycle(n: int):
            for i in range(n):
                tokens_ = {colours[i % len(colours)]: 1}
                yield agent.request(tokens_)
                agent.release(tokens_)

        world.run(until=world.process(cycle(len(colours))))
        start = perf_counter()
        world.run(until=world.process(cycle(rounds)))
        out[f"services.tokens.req_us.{variant}"] = \
            (perf_counter() - start) * 1e6 / rounds
        world.run()
    return out


def rpc(calls: int = 400) -> dict[str, float]:
    """RPC round trip minus a bare outbox/inbox ping-pong, both p50, both
    over real loopback UDP."""
    with closing(World(substrate=AsyncioSubstrate(seed=1))) as world:
        server = world.dapplet(Node, "s.edu", "server")
        client = world.dapplet(Node, "c.edu", "client")
        proxy = RemoteProxy(client,
                            export(server, Accumulator(), name="acc").pointer)
        ping_in = server.create_inbox(name="ping")
        pong_in = client.create_inbox(name="pong")
        ping = client.create_outbox()
        ping.add(ping_in.named_address)
        pong = server.create_outbox()
        pong.add(pong_in.named_address)

        def echo():
            while True:
                message = yield ping_in.receive()
                pong.send(message)

        world.process(echo())

        def round_trips(one, samples: list[float]):
            for _ in range(calls):
                start = perf_counter()
                yield from one()
                samples.append((perf_counter() - start) * 1e6)

        def call():
            yield proxy.call("add", 1)

        def bounce():
            ping.send(Text("ping"))
            yield pong_in.receive()

        p50 = {}
        for label, one in (("rpc", call), ("bare", bounce)):
            samples: list[float] = []
            world.run(until=world.process(round_trips(one, samples)),
                      wall_timeout=UDP_WAIT)
            p50[label] = median(samples[calls // 10:])
        return {"rpc.call_overhead_us": p50["rpc"] - p50["bare"]}


def run_all(scratch: str) -> dict[str, float]:
    out = {"bench.calib_ns_per_iter": calibrate()}
    for part in (serialize, wire, datagram_and_obs, registry, catalogs,
                 tokens, rpc):
        out.update(part())
    out.update(store(scratch))
    return out
