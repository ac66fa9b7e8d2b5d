"""Spans recorded from outside ``src/``: wrappers around each layer's
entry points, installed by the traced subprocess before it builds a world.

A span is ``(id, parent, op, name, start_ns, end_ns)``. ``name`` is
``<layer>:<function>`` with the layer names of :data:`metrics.LAYERS`;
``op`` is whatever the workload last passed to ``Context.op`` (the
operation index where one operation is outstanding, the segment index
where many are in flight). Spans nest on one stack — the program is
single-threaded — so a layer's self time is its span's duration minus
the durations of the spans opened inside it, computed as spans close.
Aggregates cover every span; the raw list is capped so the file written
at exit stays small.

Process bodies are generators: the kernel resumes them in slices. Each
slice is one span named after the module the body is defined in, which
is what attributes a token manager's or a session manager's server loop
to its own layer instead of to ``sim.kernel:step``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import deque
from typing import Any, Callable

from .metrics import LAYERS

RAW_SPAN_CAP = 100_000

_now = time.perf_counter_ns


class Recorder:
    """In-memory span store with online per-name aggregates."""

    def __init__(self, cap: int = RAW_SPAN_CAP) -> None:
        self.cap = cap
        self.op = -1
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        #: name -> [spans, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        #: name -> calls, for generator functions (a call has many slices)
        self.calls: dict[str, int] = {}
        self.inbox_wait_ns: list[int] = []
        self.inbox_peak_depth = 0
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up); call
        with no span open."""
        self.spans.clear()
        self.totals.clear()
        self.calls.clear()
        self.inbox_wait_ns.clear()
        self.inbox_peak_depth = 0

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.op, _now(), 0])

    def close(self) -> None:
        end = _now()
        ident, name, op, start, inner = self._stack.pop()
        duration = end - start
        stack = self._stack
        parent = 0
        if stack:
            top = stack[-1]
            top[4] += duration
            parent = top[0]
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - inner
        if len(self.spans) < self.cap:
            self.spans.append((ident, parent, op, name, start, end))

    # -- reading -----------------------------------------------------------

    def self_us(self, prefix: str) -> float:
        """Total self time (µs) of spans whose name starts with ``prefix``."""
        return sum(agg[2] for name, agg in self.totals.items()
                   if name.startswith(prefix)) / 1e3

    def count(self, name: str) -> int:
        agg = self.totals.get(name)
        return agg[0] if agg else 0

    def mean_us(self, name: str) -> float:
        """Mean inclusive duration (µs) of one span called ``name``."""
        agg = self.totals.get(name)
        return agg[1] / agg[0] / 1e3 if agg and agg[0] else 0.0

    def self_us_per_span(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg[2] / agg[0] / 1e3 if agg and agg[0] else 0.0

    def layer_shares(self) -> dict[str, float]:
        """Each layer's share of all recorded self time."""
        by_layer: dict[str, int] = {}
        for name, agg in self.totals.items():
            layer = name.split(":", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0) + agg[2]
        total = sum(by_layer.values()) or 1
        return {layer: ns / total for layer, ns in
                sorted(by_layer.items(), key=lambda kv: -kv[1])}

    def write_jsonl(self, path: Any) -> None:
        with open(path, "w") as out:
            for ident, parent, op, name, start, end in self.spans:
                out.write(json.dumps(
                    {"id": ident, "parent": parent, "op": op, "name": name,
                     "start_ns": start, "end_ns": end},
                    separators=(",", ":")))
                out.write("\n")


def layer_of(module: str) -> str:
    """The ledger layer a ``repro.*`` (or harness) module belongs to."""
    if not module.startswith("repro."):
        return "bench"
    path = module[len("repro."):]
    if path.startswith("messages"):
        return "messages.serialize"
    if path.startswith("sim"):
        return "sim.kernel"
    if path.startswith("mailbox"):
        return "mailbox"
    for layer in LAYERS:
        if path == layer or path.startswith(layer + "."):
            return layer
    return path.rsplit(".", 1)[0] if "." in path else path


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        open_(name)
        try:
            return fn(*args, **kwargs)
        finally:
            close()

    return traced


def _wrap_generator(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Span every resumed slice of the generator ``fn`` returns."""
    open_, close = rec.open, rec.close
    calls = rec.calls

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        gen = fn(*args, **kwargs)
        send, throw = gen.send, gen.throw
        value: Any = None
        error: BaseException | None = None
        while True:
            open_(name)
            try:
                if error is None:
                    yielded = send(value)
                else:
                    yielded = throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                close()
            error = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the inner body
                error = exc

    return traced


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``from x import f`` copy of ``original`` at the wrapper."""
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith(
                "repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(rec: Recorder, module: Any, attr: str,
                    name: str) -> None:
    original = getattr(module, attr)
    wrapper = _wrap(rec, name, original)
    setattr(module, attr, wrapper)
    _rebind(original, wrapper)


def _patch_method(rec: Recorder, cls: type, attr: str, name: str) -> None:
    original = cls.__dict__[attr]
    wrap = (_wrap_generator if inspect.isgeneratorfunction(original)
            else _wrap)
    setattr(cls, attr, wrap(rec, name, original))


def install(rec: Recorder) -> None:
    """Wrap the entry points of every layer. Call once, before any world
    is built, in a process that exists only for the traced run."""
    from repro.discovery.resolver import Resolver
    from repro.mailbox.inbox import Inbox
    from repro.mailbox.outbox import Outbox
    from repro.messages import serialize
    from repro.net import wire
    from repro.net.datagram import DatagramNetwork
    from repro.net.endpoint import Endpoint
    from repro.obs.tracer import Tracer
    from repro.registry.registry import Registry
    from repro.registry.store import StoreClient
    from repro.rpc.proxy import RemoteProxy
    from repro.runtime.aio import AsyncioSubstrate, UdpDatagramService
    from repro.services.tokens.manager import TokenAgent
    from repro.session.initiator import Initiator
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process
    from repro.store.durable import DurableState

    _patch_function(rec, serialize, "dumps", "messages.serialize:dumps")
    _patch_function(rec, serialize, "loads", "messages.serialize:loads")
    _patch_function(rec, wire, "encode_frame", "net.wire:encode_frame")
    _patch_function(rec, wire, "decode_frame", "net.wire:decode_frame")

    methods = (
        (Outbox, "send", "mailbox:outbox.send"),
        (Inbox, "receive", "mailbox:inbox.receive"),
        (Endpoint, "send", "net.endpoint:send"),
        (Endpoint, "inbox_drained", "net.endpoint:inbox_drained"),
        (DatagramNetwork, "send", "net.datagram:send"),
        (UdpDatagramService, "send", "runtime.aio:send"),
        (UdpDatagramService, "_on_readable", "runtime.aio:on_readable"),
        (AsyncioSubstrate, "_process_event", "runtime.aio:event"),
        (Kernel, "step", "sim.kernel:step"),
        (Initiator, "establish", "session:establish"),
        (Initiator, "_terminate", "session:terminate"),
        (Resolver, "resolve", "discovery:resolve"),
        (StoreClient, "lookup", "registry.store:lookup"),
        (Registry, "check", "registry:check"),
        (DurableState, "journal", "store:journal"),
        (DurableState, "fold", "store:fold"),
        (DurableState, "recover", "store:recover"),
        (TokenAgent, "request", "services.tokens:agent.request"),
        (TokenAgent, "release", "services.tokens:agent.release"),
        (RemoteProxy, "call", "rpc:proxy.call"),
        (Tracer, "emit", "obs:emit"),
    )
    for cls, attr, name in methods:
        _patch_method(rec, cls, attr, name)

    _patch_registration(rec, DatagramNetwork)
    _patch_registration(rec, UdpDatagramService)
    _patch_register_inbox(rec, Endpoint)
    _patch_call_later(rec, Kernel)
    _patch_call_later(rec, AsyncioSubstrate)
    _patch_process(rec, Process)
    _patch_inbox_wait(rec, Inbox)


def _patch_registration(rec: Recorder, service: type) -> None:
    """Span the handler an endpoint passes to ``register``."""
    original = service.register

    @functools.wraps(original)
    def register(self, address, handler):
        return original(self, address,
                        _wrap(rec, "net.endpoint:on_datagram", handler))

    service.register = register


def _patch_register_inbox(rec: Recorder, endpoint: type) -> None:
    """Span the delivery function an inbox registers with its endpoint."""
    original = endpoint.register_inbox

    @functools.wraps(original)
    def register_inbox(self, ref, deliver, name=None, backlog=None):
        return original(self, ref, _wrap(rec, "mailbox:inbox.deliver",
                                         deliver),
                        name=name, backlog=backlog)

    endpoint.register_inbox = register_inbox


def _patch_call_later(rec: Recorder, scheduler: type) -> None:
    """Span each timer callback, named after the module that armed it."""
    original = scheduler.call_later
    names: dict[str, str] = {}

    @functools.wraps(original)
    def call_later(self, delay, fn):
        module = getattr(fn, "__module__", "") or ""
        name = names.get(module)
        if name is None:
            layer = layer_of(module)
            what = "deliver" if layer == "net.datagram" else "timer"
            name = names[module] = f"{layer}:{what}"
        return original(self, delay, _wrap(rec, name, fn))

    scheduler.call_later = call_later


def _patch_process(rec: Recorder, process: type) -> None:
    """Span each resumed slice of every process body."""
    original = process._resume
    names: dict[str, str] = {}
    open_, close = rec.open, rec.close

    @functools.wraps(original)
    def _resume(self, event):
        code = getattr(self.body, "gi_code", None)
        filename = code.co_filename if code is not None else ""
        name = names.get(filename)
        if name is None:
            module = _module_of_file(filename) or ""
            name = names[filename] = f"{layer_of(module)}:process"
        open_(name)
        try:
            return original(self, event)
        finally:
            close()

    process._resume = _resume


def _module_of_file(filename: str) -> str | None:
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            return module.__name__
    return None


def _patch_inbox_wait(rec: Recorder, inbox: type) -> None:
    """Time each message from entering an inbox's queue to leaving it."""
    deliver_local = inbox.deliver_local
    on_dequeue = inbox._on_dequeue

    @functools.wraps(deliver_local)
    def timed_deliver(self, message):
        before = len(self)
        deliver_local(self, message)
        depth = len(self)
        if depth > before:
            stamps = self.__dict__.get("_e20_stamps")
            if stamps is None:
                stamps = self.__dict__["_e20_stamps"] = deque()
            stamps.append(_now())
            if depth > rec.inbox_peak_depth:
                rec.inbox_peak_depth = depth

    @functools.wraps(on_dequeue)
    def timed_dequeue(self, message):
        stamps = self.__dict__.get("_e20_stamps")
        if stamps:
            rec.inbox_wait_ns.append(_now() - stamps.popleft())
        on_dequeue(self, message)

    inbox.deliver_local = timed_deliver
    inbox._on_dequeue = timed_dequeue
