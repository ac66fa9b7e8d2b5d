"""Structured tracing across the dapplet stack.

A :class:`Tracer` attached to a substrate records one typed
:class:`TraceEvent` per interesting occurrence in any layer — kernel
schedule/fire, datagram send/drop/deliver, DATA/ACK/retransmit at the
endpoint, mailbox enqueue/dequeue/await, session join/leave, token
grant/release — each stamped with the substrate's time (virtual on the
simulator, wall-clock on asyncio) and, where the event belongs to a
dapplet, that dapplet's Lamport clock.

Attachment is a single attribute on the substrate::

    tracer = Tracer()
    world = World(seed=1, tracer=tracer)      # or tracer.attach(substrate)
    ...
    world.run()
    tracer.export_jsonl("trace.jsonl")
    print(tracer.summary()["counters"])

Every instrumentation site in the stack is guarded by a plain ``is not
None`` check on the substrate's ``tracer`` attribute; with no tracer
attached the cost is one attribute load and a branch — no string
formatting, no allocation. With a tracer attached, events outside its
``categories`` filter are rejected before any record is built.

On :class:`~repro.runtime.SimSubstrate` the trace is a deterministic
function of the seed: two runs of the same program with the same seed
produce byte-identical JSONL (see :meth:`to_jsonl`), which makes traces
usable as regression oracles (:mod:`repro.obs.replay`).

This module deliberately imports nothing from the concrete simulator or
network layers, so any layer may import it without re-coupling to a
runtime.
"""

from __future__ import annotations

import io
import json
import pathlib
from typing import Any, Iterable, NamedTuple

from repro.obs.metrics import MetricsRegistry

#: Every event category the stack emits. A ``Tracer(categories=...)``
#: restricted to a subset rejects other categories at the emit boundary.
CATEGORIES = ("kernel", "net", "ep", "mbox", "session", "tokens", "dir",
              "store", "reg")

#: Numeric event fields folded into histograms, field -> metric. ``rtt``
#: and ``wait`` are latencies; ``cwnd`` (carried by the endpoint's
#: window events: cwnd/stall/resume) is a size distribution — its
#: histogram shows which congestion-window bands a run lived in;
#: ``rlat`` is the discovery resolver's lookup latency (cache misses;
#: hits return without a round-trip and are counted, not timed);
#: ``dlat`` is one-way delivery latency of UNRELIABLE frames (send
#: timestamp to delivery); ``slat`` the send-to-abandon wait of a
#: RELIABLE_SKIP packet that hit its skip timeout; ``fsync`` and
#: ``replay`` are the durable store's sync and recovery durations
#: (wall-clock on file backends, exactly 0.0 on the memory backend so
#: simulated traces stay byte-deterministic); ``route`` is the sharded
#: token service's request-to-grant latency at the coordinating shard,
#: including every cross-shard prepare hop; ``clat`` is the registry's
#: capability-check latency (exactly 0.0 on the simulated substrate —
#: virtual time does not advance inside a synchronous check — so
#: audited sim traces stay byte-deterministic).
_HISTOGRAM_FIELDS = {"rtt": "ep.rtt", "wait": "mbox.wait", "cwnd": "ep.cwnd",
                     "rlat": "dir.resolve", "dlat": "ep.dlat",
                     "slat": "ep.skip_wait", "fsync": "store.fsync",
                     "replay": "store.replay", "route": "tok.route",
                     "clat": "reg.check"}
_HISTOGRAMMED = frozenset(_HISTOGRAM_FIELDS)

#: Node objects whose label, counter dict and clock :meth:`Tracer.emit`
#: keeps resolved. Decoded datagrams carry a fresh address object each,
#: so the cache is emptied when it reaches this size rather than grown.
_NODE_CACHE_LIMIT = 1024

#: Slots one retained event takes in :attr:`Tracer._log`:
#: ``t, cat, name, node, clk, fields`` (the ordinal is the position).
_EVENT_SLOTS = 6


class TraceEvent(NamedTuple):
    """One traced occurrence.

    ``seq`` is its ordinal in the trace; ``t`` is substrate time;
    ``cat``/``name`` type the event; ``node`` is the owning node address
    (as a string) when the event belongs to one; ``clk`` the owning
    dapplet's Lamport time at emission (``None`` when no clock is
    registered for the node); ``fields`` the event-specific payload.
    """

    seq: int
    t: float
    cat: str
    name: str
    node: str | None
    clk: int | None
    fields: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        # The ordinal serializes as "i": several protocol events carry a
        # "seq" field (the channel sequence number) which must keep the
        # flat key without clobbering the envelope.
        record: dict[str, Any] = {"i": self.seq, "t": self.t,
                                  "cat": self.cat, "ev": self.name}
        if self.node is not None:
            record["node"] = self.node
        if self.clk is not None:
            record["clk"] = self.clk
        if self.fields:
            record.update(self.fields)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceEvent #{self.seq} t={self.t:.6f} "
                f"{self.cat}/{self.name} {self.fields}>")


class Tracer:
    """Records typed events and aggregates metrics for one run.

    Parameters
    ----------
    categories:
        Restrict recording to these categories (default: all of
        :data:`CATEGORIES`). The ``kernel`` category is by far the
        noisiest; corpus traces typically exclude it.
    metrics_only:
        Keep counters and histograms but retain no event objects —
        the cheap mode for reading protocol metrics off a run.
    max_events:
        Hard cap on retained events; later events still count in the
        metrics but are dropped from the trace (``dropped_events``
        records how many). ``None`` means unbounded.
    """

    def __init__(self, *, categories: Iterable[str] | None = None,
                 metrics_only: bool = False,
                 max_events: int | None = None) -> None:
        if categories is not None:
            categories = frozenset(categories)
            unknown = categories - frozenset(CATEGORIES)
            if unknown:
                raise ValueError(f"unknown trace categories: {sorted(unknown)}")
        self.categories: frozenset[str] | None = categories
        self.metrics_only = metrics_only
        self.max_events = max_events
        #: The retained trace, flat. An event adds its slots here rather
        #: than an object of its own, so keeping a trace allocates
        #: nothing per event for the cyclic garbage collector to count
        #: but the event's ``fields`` dict; :attr:`events` builds the
        #: :class:`TraceEvent` records on demand.
        self._log: list[Any] = []
        self.dropped_events = 0
        self.metrics = MetricsRegistry()
        self._substrate: Any = None
        self._clocks: dict[Any, Any] = {}
        #: ``id(node) -> (node, label, per-node counters, clock)``; the
        #: entry holds ``node`` so no other object can take its id.
        self._nodes: dict[int, tuple[Any, str, dict[str, int], Any]] = {}

    # -- wiring ----------------------------------------------------------

    def attach(self, substrate: Any) -> "Tracer":
        """Attach to a substrate: become its ``tracer`` and read its clock."""
        substrate.tracer = self
        self._substrate = substrate
        return self

    def detach(self, substrate: Any) -> None:
        """Stop tracing ``substrate`` (recorded events are kept); later
        events are stamped as by an unattached tracer."""
        if getattr(substrate, "tracer", None) is self:
            substrate.tracer = None
        if self._substrate is substrate:
            self._substrate = None

    def register_clock(self, node: Any, clock: Any) -> None:
        """Stamp events for ``node`` with ``clock.time`` (a Lamport clock).

        :meth:`repro.world.World.attach_tracer` registers every
        dapplet's clock automatically; hand-wired stacks call this
        directly.
        """
        self._clocks[node] = clock
        self._nodes.clear()

    def enabled(self, cat: str) -> bool:
        return self.categories is None or cat in self.categories

    # -- recording -------------------------------------------------------

    def emit(self, cat: str, name: str, *, node: Any = None,
             t: float | None = None, **fields: Any) -> None:
        """Record one event. Call sites guard with ``tracer is not None``.

        Costs O(1 + the event's own fields): ``node``'s label, counter
        dict and clock are resolved once per node object, and only the
        event's own fields are looked up in :data:`_HISTOGRAM_FIELDS`.
        """
        if self.categories is not None and cat not in self.categories:
            return
        if t is None:
            substrate = self._substrate
            t = substrate.now if substrate is not None else 0.0
        metrics = self.metrics
        key = f"{cat}.{name}"
        counters = metrics.counters
        try:
            counters[key] += 1
        except KeyError:
            counters[key] = 1
        clk = None
        if node is not None:
            entry = self._nodes.get(id(node))
            if entry is None:
                entry = self._resolve(node)
            _, node, by_node, clock = entry
            try:
                by_node[key] += 1
            except KeyError:
                by_node[key] = 1
            if clock is not None:
                clk = clock.time
        channel = fields.get("ch")
        if channel is not None:
            by_channel = metrics.per_channel.get(channel)
            if by_channel is None:
                by_channel = metrics.per_channel[channel] = {}
            try:
                by_channel[key] += 1
            except KeyError:
                by_channel[key] = 1
        if not _HISTOGRAMMED.isdisjoint(fields):
            for field, value in fields.items():
                metric = _HISTOGRAM_FIELDS.get(field)
                if metric is not None and value is not None:
                    metrics.observe(metric, value)
        if self.metrics_only:
            return
        log = self._log
        if (self.max_events is not None
                and len(log) >= self.max_events * _EVENT_SLOTS):
            self.dropped_events += 1
            return
        log += (t, cat, name, node, clk, fields)

    def _resolve(self, node: Any) -> tuple[Any, str, dict[str, int], Any]:
        """Cache ``node``'s label, per-node counter dict and clock."""
        if len(self._nodes) >= _NODE_CACHE_LIMIT:
            self._nodes.clear()
        label = str(node)
        by_node = self.metrics.per_node.get(label)
        if by_node is None:
            by_node = self.metrics.per_node[label] = {}
        entry = self._nodes[id(node)] = (node, label, by_node,
                                         self._clocks.get(node))
        return entry

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, in emission order — a new list built
        from the log on every access."""
        log = self._log
        return [TraceEvent(i // _EVENT_SLOTS, *log[i:i + _EVENT_SLOTS])
                for i in range(0, len(log), _EVENT_SLOTS)]

    def __len__(self) -> int:
        return len(self._log) // _EVENT_SLOTS

    def select(self, cat: str | None = None,
               name: str | None = None) -> list[TraceEvent]:
        """The recorded events matching ``cat`` and/or ``name``."""
        return [ev for ev in self.events
                if (cat is None or ev.cat == cat)
                and (name is None or ev.name == name)]

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """The trace as JSONL: one sorted-key JSON object per line.

        Key order, separators and float formatting are all fixed, so on
        the deterministic substrate two runs with the same seed yield
        byte-identical output.
        """
        out = io.StringIO()
        for event in self.events:
            out.write(json.dumps(event.to_dict(), sort_keys=True,
                                 separators=(",", ":")))
            out.write("\n")
        return out.getvalue()

    def export_jsonl(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Write :meth:`to_jsonl` to ``path`` and return it."""
        path = pathlib.Path(path)
        path.write_text(self.to_jsonl())
        return path

    def summary(self) -> dict:
        """Counters + per-node/per-channel breakdowns + histograms."""
        result = self.metrics.summary()
        result["events"] = (len(self) if not self.metrics_only
                            else sum(self.metrics.counters.values()))
        result["dropped_events"] = self.dropped_events
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer events={len(self)} "
                f"counters={len(self.metrics.counters)}>")
