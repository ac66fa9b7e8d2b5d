"""What a workload's wire bytes are made of, by message type.

Runs one E20 workload in this process at a given scale and seed, with a
tap on every substrate it builds (``substrate.datagrams.wire_taps``),
and prints bytes and datagrams per operation by what they carry:

* ``<t>`` — the payload bytes of each message of wire type ``t``
  (``lease.gossip``, ``rpc.reply``, ...), envelopes such as
  ``clk.stamped`` included, with RPC invokes split by method
  (``rpc.invoke:renew``); the count is messages per operation;
* ``frame headers`` — the fixed ``HEADER_OVERHEAD`` charged per DATA
  datagram, whatever it batches;
* ``bare ACK`` (and ``PROBE`` / ``SKIP``) — control datagrams with no
  message in them.

The tap counts from the workload's first timed operation (its
``ctx.ready()``), as the workload's own ``wire_bytes_per_op`` does, and
the last line says whether the two totals agree. They do on every
workload but ``stream_sim_traced``, which runs each burst under three
tracer modes and counts the wire of one, so the tap reads three times
its figure::

    python3 benchmarks/wire_mix.py --workload session_churn_sim \
        --seed 1 --seconds 3
    python3 benchmarks/wire_mix.py --workload session_churn_sim --quick

``--seconds`` maps to a scale as in ``benchmarks/e20/run.py``;
``--quick`` is E20's quick scale. ``--json`` prints the table as one
JSON object instead.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e20.cli import QUICK_SCALE  # noqa: E402
from benchmarks.e20.harness import Context  # noqa: E402
from benchmarks.e20.metrics import SIZED_SECONDS  # noqa: E402
from repro.messages import Message  # noqa: E402
from repro.messages.serialize import loads  # noqa: E402
from repro.net.datagram import HEADER_OVERHEAD  # noqa: E402
from repro.rpc.messages import Invoke  # noqa: E402

HEADERS = "frame headers"


class Mix:
    """Bytes and counts per category, from every datagram tapped."""

    def __init__(self) -> None:
        self.bytes: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.bytes.clear()
        self.count.clear()

    def tap(self, now: float, datagram: Any) -> None:
        kind = datagram.header.get("kind")
        if kind != "DATA":
            self._add(f"bare {kind}", datagram.size)
            return
        self._add(HEADERS, HEADER_OVERHEAD)
        payloads = datagram.parts_payloads
        for payload in (payloads if payloads is not None
                        else (datagram.payload,)):
            self._add(self._category(payload), len(payload))

    def _add(self, category: str, size: int) -> None:
        self.bytes[category] += size
        self.count[category] += 1

    def _category(self, payload: str) -> str:
        message = loads(payload)
        while isinstance(getattr(message, "inner", None), Message):
            message = message.inner  # an envelope: clk.stamped, ...
        if isinstance(message, Invoke):
            return f"{message.wire_name}:{message.method}"
        return message.wire_name

    @property
    def total(self) -> int:
        return sum(self.bytes.values())


class TappedContext(Context):
    """E20's run context, tapping the wire of every substrate it makes
    and starting the tally over at the first timed operation."""

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.mix = Mix()

    def sim(self, **kwargs: Any):
        substrate = super().sim(**kwargs)
        substrate.datagrams.wire_taps.append(self.mix.tap)
        return substrate

    def aio(self):
        substrate = super().aio()
        substrate.datagrams.wire_taps.append(self.mix.tap)
        return substrate

    def ready(self) -> None:
        super().ready()
        self.mix.reset()


def measure(workload: str, seed: int, scale: float) -> dict[str, Any]:
    """Run ``workload`` once; returns per-operation rows and totals."""
    from benchmarks.e20.workloads import RUNNERS

    ctx = TappedContext(seed, scale)
    outcome = RUNNERS[workload](ctx)
    ops = max(1, outcome.completed)
    mix = ctx.mix
    rows = {name: {"bytes_per_op": mix.bytes[name] / ops,
                   "count_per_op": mix.count[name] / ops}
            for name in sorted(mix.bytes, key=mix.bytes.get, reverse=True)}
    return {"workload": workload, "seed": seed, "scale": scale,
            "ops": outcome.completed, "rows": rows,
            "tapped_bytes_per_op": mix.total / ops,
            "wire_bytes_per_op": outcome.wire_bytes / ops,
            "matches": mix.total == outcome.wire_bytes}


def render(result: dict[str, Any]) -> str:
    total = result["tapped_bytes_per_op"]
    lines = [f"{result['workload']}  seed {result['seed']}  scale "
             f"{result['scale']:g}  ({result['ops']} ops)",
             f"{'carried':<32}{'B/op':>12}{'count/op':>10}{'share':>8}"]
    for name, row in result["rows"].items():
        share = row["bytes_per_op"] / total if total else 0.0
        lines.append(f"{name:<32}{row['bytes_per_op']:>12.2f}"
                     f"{row['count_per_op']:>10.2f}{share:>8.1%}")
    lines.append(f"{'total':<32}{total:>12.2f}")
    lines.append(f"workload wire_bytes_per_op {result['wire_bytes_per_op']:.2f}"
                 f": {'equal' if result['matches'] else 'DIFFERENT'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wire_mix", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--seconds", type=float)
    size.add_argument("--quick", action="store_true")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    scale = (QUICK_SCALE if args.quick or args.seconds is None
             else args.seconds / SIZED_SECONDS)
    result = measure(args.workload, args.seed, scale)
    print(json.dumps(result) if args.json else render(result))
    return 0 if result["matches"] else 1


if __name__ == "__main__":
    sys.exit(main())
