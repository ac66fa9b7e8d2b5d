"""Every workload and metric of the E20 ledger, declared once.

``BENCHMARK.json`` at the repository root is the driver-facing copy of
this table (``benchmark_json`` builds it; ``--selftest`` checks that the
two agree and that a run emits exactly the declared names).

Clocks: ``wall`` numbers are CPU/wall time on this machine; ``virtual``
numbers are simulated time and repeat exactly for one seed; ``count``
numbers are event counts or ratios of counts and also repeat exactly on
the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL = "all"

#: name -> why it exists (one line; the long form is in README.md).
WORKLOADS: dict[str, str] = {
    "stream_sim_bulk":
        "smallest message, deepest queue: endpoint timers/sweep and the sim "
        "kernel do the work; the only workload that sees the quadratic",
    "stream_sim_lossy":
        "same transport under 5% loss, dup and jitter at a shallow paced "
        "queue: retransmit, SACK, fast-rtx, SKIP and freshness paths",
    "stream_sim_traced":
        "2000-message bursts with no tracer, Tracer(metrics_only) and "
        "Tracer(): puts obs on the critical path",
    "stream_udp_sized":
        "1 KiB messages over real loopback UDP: serialize, wire codec and "
        "the asyncio substrate dominate; throughput then paced latency",
    "rpc_udp_closed":
        "one RPC outstanding over loopback UDP: pure per-message fixed cost "
        "through rpc, mailbox, endpoint, wire and asyncio, queue depth 1",
    "session_churn_sim":
        "control plane: directory, DAppStore, capability gates, journaled "
        "state; establish-message-set-terminate cycles over rotated members",
    "token_ring_sim":
        "16-shard token ring, 400 agents, single- and two-colour (2PC) "
        "requests: the token managers do most of the work",
}

SIM_WORKLOADS = tuple(w for w in WORKLOADS if "_sim" in w)
UDP_WORKLOADS = tuple(w for w in WORKLOADS if "_udp" in w)


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric of the issue's table.

    ``bound`` (``bound_udp`` on the UDP pair) is what ``compare`` allows
    between two sets of runs of *one seed*. ``contract_bound`` is set on
    the metrics listed under ``end_to_end`` in ``BENCHMARK.json`` — those
    defined, non-zero and not constant on all seven workloads, and steady
    enough on a shared host — and is the one bound the driver applies to
    every workload across *different* seeds, so it follows the noisiest
    cell. The others keep their name, bound and direction here and are
    reported by the ``--trace 1`` run, whose metrics the driver does not
    bound.
    """

    name: str
    unit: str
    clock: str
    better: str
    bound: float
    workloads: tuple[str, ...] | str
    contract_bound: float | None
    definition: str
    #: Bound used on the UDP workloads where it differs.
    bound_udp: float | None = None

    @property
    def contract(self) -> bool:
        return self.contract_bound is not None

    def applies(self, workload: str) -> bool:
        return self.workloads == ALL or workload in self.workloads

    def bound_for(self, workload: str) -> float:
        if self.bound_udp is not None and workload in UDP_WORKLOADS:
            return self.bound_udp
        return self.bound


_LAT3 = ("stream_udp_sized", "rpc_udp_closed", "session_churn_sim")
_VLAT3 = ("stream_sim_lossy", "session_churn_sim", "token_ring_sim")

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "wall", "lower", 0.25, ALL, 0.25,
             "subprocess start to first timed operation (imports, world, "
             "dapplets, directory/ring, warm-up); median of 5 launches"),
    EndToEnd("ops_per_s", "1/s", "wall", "higher", 0.10, ALL, 0.25,
             "correct completed operations per wall second, median over "
             "segments", bound_udp=0.15),
    EndToEnd("lat_p50_us", "us", "wall", "lower", 0.10, ALL, 0.25,
             "wall latency of one operation, median of the windows' "
             "medians; per-operation samples on " + ", ".join(_LAT3)
             + ", message sojourn on the bursts, per-slice cost elsewhere",
             bound_udp=0.15),
    EndToEnd("lat_p99_us", "us", "wall", "lower", 0.25, ALL, None,
             "same samples, median of the windows' p99 (or the highest "
             "percentile with >=25 samples beyond it in a window of fewer "
             "than 1000)"),
    EndToEnd("vlat_p50_ms", "vms", "virtual", "lower", 0.02, _VLAT3, None,
             "virtual-time latency, median"),
    EndToEnd("vlat_p99_ms", "vms", "virtual", "lower", 0.02, _VLAT3, None,
             "virtual-time latency, p99"),
    EndToEnd("failed_frac", "ratio", "count", "lower", 0.0, ALL, None,
             "operations failed, refused, timed out or wrong / attempted"),
    EndToEnd("scale_ratio", "ratio", "wall", "lower", 0.15,
             ("stream_sim_bulk",), None,
             "us/msg on the 20000 bursts / us/msg on the 2000 bursts"),
    EndToEnd("trace_cost_ratio", "ratio", "wall", "lower", 0.10,
             ("stream_sim_traced",), None,
             "us/msg with Tracer(metrics_only=True) / us/msg with no tracer"),
    EndToEnd("wire_bytes_per_op", "B", "count", "lower", 0.02, ALL, 0.05,
             "NetworkStats.bytes_sent / completed operations",
             bound_udp=0.05),
    EndToEnd("peak_rss_mb", "MiB", "wall", "lower", 0.10, ALL, 0.10,
             "ru_maxrss of the workload's subprocess"),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric and the end-to-end cells it should move.

    ``moves`` is a tuple of ``(workload, end-to-end metric)``; harness
    health metrics (``bench.*``) move nothing and say so with ``()``.
    ``source`` names who measures it: ``micro`` (isolated loop, same on
    every workload), ``spans`` (self time from the traced run),
    ``counters`` (public stats and the counting substrate, traced run),
    ``untraced`` (the reference run beside the traced one) or
    ``harness``.
    """

    name: str
    unit: str
    clock: str
    better: str
    source: str
    moves: tuple[tuple[str, str], ...] = field(default=())

    @property
    def layer(self) -> str:
        for prefix in LAYERS:
            if self.name.startswith(prefix + "."):
                return prefix
        return "workload"


#: The repo's modules, longest prefix first where one contains another.
LAYERS = ("messages.serialize", "net.wire", "net.endpoint", "net.datagram",
          "sim.kernel", "runtime.aio", "mailbox", "rpc", "session",
          "discovery", "registry.store", "registry", "store",
          "services.tokens", "obs", "bench")

FRAME_KINDS = ("data1", "data_batch32", "ack_sack", "probe", "skip")

_STREAMS = ("stream_sim_bulk", "stream_sim_lossy", "stream_sim_traced",
            "stream_udp_sized")


def _moves(*pairs: str) -> tuple[tuple[str, str], ...]:
    """``"workload:metric"`` strings to pairs."""
    return tuple(tuple(p.split(":")) for p in pairs)  # type: ignore[misc]


def _per_layer() -> tuple[PerLayer, ...]:
    rows: list[PerLayer] = []

    def add(name, unit, clock, better, source, *moves):
        rows.append(PerLayer(name, unit, clock, better, source,
                             _moves(*moves)))

    udp_tput = "stream_udp_sized:ops_per_s"
    for op in ("dumps", "loads"):
        for size in ("b6", "b1024"):
            add(f"messages.serialize.{op}_us.{size}", "us", "wall", "lower",
                "micro", udp_tput)
    add("messages.serialize.wire_chars_per_payload_byte", "ratio", "count",
        "lower", "micro", "stream_udp_sized:wire_bytes_per_op")
    for kind in FRAME_KINDS:
        add(f"net.wire.encode_us.{kind}", "us", "wall", "lower", "micro",
            udp_tput, "rpc_udp_closed:lat_p50_us")
        add(f"net.wire.decode_us.{kind}", "us", "wall", "lower", "micro",
            udp_tput, "rpc_udp_closed:lat_p50_us")
        add(f"net.wire.frame_bytes.{kind}", "B", "count", "lower", "micro",
            "stream_udp_sized:wire_bytes_per_op")

    bulk = ("stream_sim_bulk:ops_per_s", "stream_sim_bulk:scale_ratio")
    lossy = ("stream_sim_lossy:vlat_p99_ms",
             "stream_sim_lossy:wire_bytes_per_op")
    ep = "net.endpoint."
    add(ep + "self_us_per_msg", "us", "wall", "lower", "spans", *bulk,
        "rpc_udp_closed:lat_p50_us")
    add(ep + "send_call_us", "us", "wall", "lower", "spans", *bulk)
    add(ep + "timers_armed_per_msg", "count", "count", "lower", "counters",
        *bulk)
    add(ep + "timer_fires_per_msg", "count", "count", "lower", "counters",
        *bulk)
    add(ep + "frames_per_msg", "count", "count", "lower", "counters",
        "stream_sim_bulk:wire_bytes_per_op", udp_tput)
    add(ep + "acks_per_msg", "count", "count", "lower", "counters",
        "rpc_udp_closed:lat_p50_us")
    add(ep + "piggyback_frac", "ratio", "count", "higher", "counters",
        "rpc_udp_closed:wire_bytes_per_op")
    add(ep + "batch_fill", "count", "count", "higher", "counters", *bulk)
    add(ep + "window_stalls", "count", "count", "lower", "counters",
        udp_tput)
    add(ep + "retransmit_frac", "ratio", "count", "lower", "counters",
        *lossy)
    add(ep + "fast_rtx_frac", "ratio", "count", "higher", "counters",
        *lossy)
    add(ep + "dup_discard_frac", "ratio", "count", "lower", "counters",
        *lossy)
    add(ep + "skipped_frac", "ratio", "count", "lower", "counters", *lossy)
    add(ep + "stale_drop_frac", "ratio", "count", "lower", "counters",
        *lossy)

    add("net.datagram.send_self_us", "us", "wall", "lower", "spans",
        "stream_sim_bulk:ops_per_s", "stream_sim_lossy:ops_per_s")
    add("net.datagram.encoded_over_plain_ratio", "ratio", "wall", "lower",
        "micro", "stream_sim_bulk:ops_per_s", "stream_sim_lossy:ops_per_s")

    sim_tput = tuple(f"{w}:ops_per_s" for w in SIM_WORKLOADS)
    add("sim.kernel.events_per_op", "count", "count", "lower", "counters",
        *sim_tput)
    add("sim.kernel.step_self_us", "us", "wall", "lower", "spans", *sim_tput)

    aio = "runtime.aio."
    add(aio + "self_us_per_msg", "us", "wall", "lower", "spans", udp_tput,
        "rpc_udp_closed:lat_p50_us")
    add(aio + "datagrams_per_msg", "count", "count", "lower", "counters",
        udp_tput)
    add(aio + "socket_bytes_per_msg", "B", "count", "lower", "counters",
        "stream_udp_sized:wire_bytes_per_op")

    stream_tput = tuple(f"{w}:ops_per_s" for w in _STREAMS)
    add("mailbox.outbox.send_self_us", "us", "wall", "lower", "spans",
        *stream_tput)
    add("mailbox.inbox.deliver_self_us", "us", "wall", "lower", "spans",
        *stream_tput)
    add("mailbox.inbox.wait_us_p50", "us", "wall", "lower", "spans",
        "stream_udp_sized:lat_p50_us", "stream_udp_sized:lat_p99_us")
    add("mailbox.inbox.peak_depth", "count", "count", "lower", "counters",
        "stream_udp_sized:lat_p99_us")

    add("rpc.call_overhead_us", "us", "wall", "lower", "micro",
        "rpc_udp_closed:lat_p50_us", "rpc_udp_closed:ops_per_s")
    add("rpc.dgrams_per_call", "count", "count", "lower", "counters",
        "rpc_udp_closed:lat_p50_us")

    churn = "session_churn_sim:"
    add("session.establish_self_us", "us", "wall", "lower", "spans",
        churn + "ops_per_s", churn + "lat_p50_us")
    add("session.terminate_self_us", "us", "wall", "lower", "spans",
        churn + "ops_per_s", churn + "lat_p50_us")
    add("session.dgrams_per_member", "count", "count", "lower", "counters",
        churn + "vlat_p50_ms", churn + "wire_bytes_per_op")

    add("discovery.resolve_us.cached", "us", "wall", "lower", "micro",
        churn + "ops_per_s")
    add("discovery.resolve_us.uncached", "us", "wall", "lower", "micro",
        churn + "ops_per_s")
    add("discovery.cache_hit_frac", "ratio", "count", "higher", "counters",
        churn + "vlat_p99_ms")
    add("discovery.background_dgrams_per_vs", "1/vs", "count", "lower",
        "micro", churn + "wire_bytes_per_op")

    add("registry.check_us.cached", "us", "wall", "lower", "micro",
        churn + "ops_per_s")
    add("registry.check_us.uncached", "us", "wall", "lower", "micro",
        churn + "ops_per_s")
    add("registry.checks_per_op", "count", "count", "lower", "counters",
        churn + "ops_per_s")
    add("registry.store.lookup_us", "us", "wall", "lower", "micro",
        churn + "ops_per_s")
    add("registry.store.background_dgrams_per_vs", "1/vs", "count", "lower",
        "micro", churn + "wire_bytes_per_op")

    for backend in ("memory", "file", "file_fsync"):
        add(f"store.set_us.{backend}", "us", "wall", "lower", "micro",
            churn + "ops_per_s")
    add("store.wal_bytes_per_set", "B", "count", "lower", "micro",
        churn + "ops_per_s")
    add("store.fold_us", "us", "wall", "lower", "micro", churn + "ops_per_s")
    add("store.recover_us_per_record", "us", "wall", "lower", "micro",
        churn + "ops_per_s")

    ring = "token_ring_sim:"
    tok = "services.tokens."
    for variant in ("coordinator", "shard1", "shard16"):
        add(tok + f"req_us.{variant}", "us", "wall", "lower", "micro",
            ring + "ops_per_s")
    add(tok + "dgrams_per_req", "count", "count", "lower", "counters",
        ring + "ops_per_s", ring + "wire_bytes_per_op")
    add(tok + "forwards_per_req", "count", "count", "lower", "counters",
        ring + "vlat_p50_ms", ring + "ops_per_s")
    add(tok + "twopc_frac", "ratio", "count", "lower", "counters",
        ring + "vlat_p50_ms")
    add(tok + "probes_per_req", "count", "count", "lower", "counters",
        ring + "ops_per_s")
    add(tok + "queue_wait_vms_p50", "vms", "virtual", "lower", "counters",
        ring + "vlat_p50_ms", ring + "vlat_p99_ms")

    traced = "stream_sim_traced:"
    add("obs.events_per_msg", "count", "count", "lower", "micro",
        traced + "trace_cost_ratio", traced + "ops_per_s")
    add("obs.us_per_event", "us", "wall", "lower", "micro",
        traced + "trace_cost_ratio", traced + "ops_per_s")
    add("obs.full_ratio", "ratio", "wall", "lower", "micro",
        traced + "ops_per_s")
    add("obs.metrics_only_ratio", "ratio", "wall", "lower", "micro",
        traced + "trace_cost_ratio")

    add("bench.trace_overhead_ratio", "ratio", "wall", "lower", "harness")
    add("bench.gen_late_p99_us", "us", "wall", "lower", "untraced")
    add("bench.calib_ns_per_iter", "ns", "wall", "lower", "micro")
    add("bench.segment_spread", "ratio", "wall", "lower", "untraced")

    # The issue's end-to-end metrics that the driver's contract cannot
    # carry as end-to-end (not defined on every workload, constant, or a
    # tail, which any contention on the host owns): same names, measured
    # with the benchmark's own tracing off.
    for m in END_TO_END:
        if not m.contract:
            cells = (m.workloads if m.workloads != ALL
                     else tuple(WORKLOADS))
            rows.append(PerLayer(m.name, m.unit, m.clock, m.better,
                                 "untraced",
                                 tuple((w, m.name) for w in cells)))
    return tuple(rows)


PER_LAYER: tuple[PerLayer, ...] = _per_layer()
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}

#: Metrics that repeat exactly for one seed on the simulator.
EXACT_E2E = ("wire_bytes_per_op", "vlat_p50_ms", "vlat_p99_ms")
EXACT_PER_LAYER = ("sim.kernel.events_per_op",
                   "net.endpoint.timers_armed_per_msg")

#: Names a child reports for the parent's arithmetic only.
INTERNAL = ("us_per_op",)

#: Seconds of timed region the scale-1.0 counts are sized for, and the
#: seconds the driver is told to ask for (its runs scale the counts by
#: the ratio of the two).
SIZED_SECONDS = 10
RUN_SECONDS = 14


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json`` (the driver's contract)."""
    return {
        "command": ["python3", "benchmarks/e20/run.py"],
        "paths": ["benchmarks/e20"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in
                      WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.contract_bound}
            for m in END_TO_END if m.contract],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
