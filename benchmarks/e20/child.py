"""The subprocess that runs one workload once.

``python -m benchmarks.e20.child --workload W --seed S --scale X --mode M``
prints one JSON object on its last line. Modes:

``e2e``     plain substrates, no wrappers: the end-to-end metrics.
``setup``   the same set-up, stopped at the first timed operation.
``traced``  span wrappers installed before anything is built, counting
            substrates: the per-layer metrics; writes the span file.
``micro``   the isolated per-layer loops (no workload).

``ready_at`` is ``time.monotonic()`` at the first timed operation; the
parent subtracts the instant it spawned this process (CLOCK_MONOTONIC is
system-wide on Linux) to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from statistics import median

from .harness import Context, Outcome, SetupDone, summarise


def layer_metrics(outcome: Outcome, recorder) -> dict[str, float]:
    """Per-layer metrics of one traced run: counters over the timed region
    divided by completed operations, and self times from the spans."""
    c = outcome.counts
    ops = max(1, outcome.completed)

    def get(key: str) -> float:
        return float(c.get(key, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    acks = get("ep.acks_sent")
    piggy = get("ep.acks_piggybacked")
    delivered = get("ep.delivered") + get("ep.unreliable_delivered")
    on_udp = get("socket.bytes") > 0
    rec = recorder
    aio_self = rec.self_us("runtime.aio:")
    out = {
        "net.endpoint.self_us_per_msg": rec.self_us("net.endpoint:") / ops,
        "net.endpoint.send_call_us": rec.mean_us("net.endpoint:send"),
        "net.endpoint.timers_armed_per_msg": get("timers.armed") / ops,
        "net.endpoint.timer_fires_per_msg": get("timers.fired") / ops,
        "net.endpoint.frames_per_msg": get("net.sent") / ops,
        "net.endpoint.acks_per_msg": acks / ops,
        "net.endpoint.piggyback_frac": ratio(piggy, acks + piggy),
        "net.endpoint.batch_fill": ratio(get("ep.batched_payloads"),
                                         get("ep.batches_sent")),
        "net.endpoint.window_stalls": get("ep.window_stalls"),
        "net.endpoint.retransmit_frac": ratio(get("ep.data_retransmitted"),
                                              get("ep.data_sent")),
        "net.endpoint.fast_rtx_frac": ratio(get("ep.fast_retransmits"),
                                            get("ep.data_retransmitted")),
        "net.endpoint.dup_discard_frac": ratio(
            get("ep.duplicates_discarded"),
            delivered + get("ep.duplicates_discarded")),
        "net.endpoint.skipped_frac": ratio(get("ep.skipped"),
                                           get("ep.data_sent")),
        "net.endpoint.stale_drop_frac": ratio(get("ep.stale_dropped"),
                                              get("ep.unreliable_sent")),
        "net.datagram.send_self_us": rec.self_us_per_span(
            "net.datagram:send"),
        "sim.kernel.events_per_op": get("kernel.events") / ops,
        "sim.kernel.step_self_us": rec.self_us_per_span("sim.kernel:step"),
        "runtime.aio.self_us_per_msg": aio_self / ops,
        "runtime.aio.datagrams_per_msg": get("net.sent") / ops if on_udp
        else 0.0,
        "runtime.aio.socket_bytes_per_msg": get("socket.bytes") / ops,
        "mailbox.outbox.send_self_us": rec.self_us_per_span(
            "mailbox:outbox.send"),
        "mailbox.inbox.deliver_self_us": rec.self_us_per_span(
            "mailbox:inbox.deliver"),
        "mailbox.inbox.wait_us_p50": (median(rec.inbox_wait_ns) / 1e3
                                      if rec.inbox_wait_ns else 0.0),
        "mailbox.inbox.peak_depth": float(rec.inbox_peak_depth),
        "rpc.dgrams_per_call": (get("net.sent") / ops
                                if rec.count("rpc:proxy.call") else 0.0),
        "session.establish_self_us": ratio(
            rec.self_us("session:establish"),
            rec.calls.get("session:establish", 0)),
        "session.terminate_self_us": ratio(
            rec.self_us("session:terminate"),
            rec.calls.get("session:terminate", 0)),
        "session.dgrams_per_member": ratio(get("net.sent"),
                                           get("session.members")),
        "discovery.cache_hit_frac": ratio(
            get("resolver.hits"),
            get("resolver.hits") + get("resolver.misses")),
        "registry.checks_per_op": (get("registry.checks") / ops
                                   if "registry.checks" in c else 0.0),
    }
    if "tokens.forwards" in c:
        out.update({
            "services.tokens.dgrams_per_req": get("net.sent") / ops,
            "services.tokens.forwards_per_req": get("tokens.forwards") / ops,
            "services.tokens.twopc_frac": get("tokens.twopc") / ops,
            "services.tokens.probes_per_req": get("tokens.probes") / ops,
            "services.tokens.queue_wait_vms_p50":
                get("tokens.queue_wait_vms_p50"),
        })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e20.child")
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", required=True,
                        choices=("e2e", "setup", "traced", "micro"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.mode == "micro":
        from . import micro
        result = {"metrics": micro.run_all(str(out_dir))}
        print(json.dumps(result))
        return 0

    recorder = None
    if args.mode == "traced":
        # Before the workloads module binds anything by ``from x import f``.
        from . import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    from .workloads import RUNNERS

    ctx = Context(args.seed, args.scale, recorder=recorder,
                  setup_only=args.mode == "setup")
    started = time.perf_counter()
    try:
        outcome = RUNNERS[args.workload](ctx)
    except SetupDone:
        print(json.dumps({"ready_at": ctx.ready_at}))
        return 0
    wall = time.perf_counter() - started
    metrics = summarise(outcome)
    timed = sum(secs for _, secs in outcome.segments)
    metrics["us_per_op"] = 1e6 / metrics["ops_per_s"]
    notes = dict(outcome.notes, wall_s=wall, segments=len(outcome.segments),
                 timed_s=timed)
    if recorder is not None:
        metrics.update(layer_metrics(outcome, recorder))
        trace = out_dir / f"trace_{args.workload}.jsonl"
        recorder.write_jsonl(trace)
        notes["trace_file"] = str(trace)
        notes["spans_recorded"] = sum(a[0] for a in recorder.totals.values())
        notes["spans_written"] = len(recorder.spans)
        notes["self_time_share"] = recorder.layer_shares()
    print(json.dumps({
        "ready_at": ctx.ready_at, "attempted": outcome.attempted,
        "failed": outcome.failed, "completed": outcome.completed,
        "metrics": metrics, "notes": notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
