"""The discrete-event kernel: virtual clock plus event queue.

One :class:`Kernel` instance hosts an entire simulated world — every
node, dapplet, network link and service of a run. Time is a float (we
interpret it as seconds throughout the package). Events scheduled for the
same instant are processed in scheduling order, which together with
seeded randomness (:mod:`repro.sim.rng`) makes whole-system runs
bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

from repro.errors import ProcessCrashed, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessBody
from repro.sim.rng import RandomStreams

# Bound once at import: the event queue push/pop run for every single
# event of every run, where even the ``heapq.`` attribute lookup shows
# up in profiles.
_heappush = heapq.heappush
_heappop = heapq.heappop


class SchedulerCore:
    """What the two schedulers share: everything but the clock.

    Named random streams, the tracer and monitor hooks, the process
    registry, the event constructors, and :meth:`_fire` — what processing
    one event means. :class:`Kernel` adds a virtual clock and a heap;
    :class:`repro.runtime.AsyncioSubstrate` adds the wall clock and an
    asyncio loop. Each supplies ``now``, ``_enqueue`` and ``run``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = RandomStreams(seed)
        self._processes: set[Process] = set()
        #: Monitors notified of every processed event (used by tests).
        self.trace_hooks: list[Callable[[float, Event], None]] = []
        #: Optional :class:`repro.obs.Tracer`; every layer's emit sites
        #: are guarded by ``tracer is not None`` so the unattached fast
        #: path costs one attribute load and a branch.
        self.tracer = None

    # -- event constructors ---------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, body: ProcessBody, name: str | None = None) -> Process:
        """Start a generator coroutine as a process."""
        return Process(self, body, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` seconds (fire-and-forget)."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # -- plumbing used by Event/Process ----------------------------------

    def _register_process(self, process: Process) -> None:
        self._processes.add(process)

    def _unregister_process(self, process: Process) -> None:
        self._processes.discard(process)

    @property
    def active_process_count(self) -> int:
        """Number of processes that have not yet finished."""
        return len(self._processes)

    def _fire(self, event: Event) -> None:
        """Process one triggered event: run its callbacks, then the
        monitors. An unhandled failed event aborts the run with
        :class:`~repro.errors.ProcessCrashed`."""
        tr = self.tracer
        if tr is not None:
            tr.emit("kernel", "fire", kind=type(event).__name__)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event.ok and not event.defused:
            exc = event.value
            if isinstance(exc, ProcessCrashed):
                raise exc
            crash = ProcessCrashed(
                f"unhandled failure at t={self.now:.6f}: {exc!r}")
            raise crash from exc
        for hook in self.trace_hooks:
            hook(self.now, event)


class Kernel(SchedulerCore):
    """Virtual-time event loop.

    Parameters
    ----------
    seed:
        Root seed for :attr:`rng`, the tree of named random streams. Two
        kernels with the same seed and the same program produce identical
        traces.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, event: Event, delay: float) -> None:
        self._sequence += 1
        _heappush(self._queue, (self.now + delay, self._sequence, event))
        tr = self.tracer
        if tr is not None:
            tr.emit("kernel", "schedule", at=self.now + delay,
                    kind=type(event).__name__)

    # -- the loop --------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event. Raises ``IndexError`` if idle."""
        at, _seq, event = _heappop(self._queue)
        self.now = at
        self._fire(event)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain (quiescence);
        * a number — run until virtual time reaches it;
        * an :class:`Event` — run until that event is processed, then
          return its value (raising its exception if it failed). Passing
          a :class:`Process` therefore runs until the process finishes
          and returns its result.
        """
        if until is None:
            step, queue = self.step, self._queue
            while queue:
                step()
            return None

        if isinstance(until, Event):
            target = until
            finished: list[Event] = []
            def _capture(ev: Event) -> None:
                # The caller handles this event's outcome (re-raised
                # below), so a failure here is not "unhandled".
                ev.defused = True
                finished.append(ev)

            if target.processed:
                finished.append(target)
            else:
                target.callbacks.append(_capture)
            step, queue = self.step, self._queue
            while not finished and queue:
                step()
            if not finished:
                raise SimulationError(
                    f"simulation ran out of events at t={self.now:.6f} before "
                    f"{target!r} fired; {self.active_process_count} process(es) "
                    "still blocked (possible deadlock)")
            if target.ok:
                return target.value
            target.defused = True
            raise target.value

        deadline = float(until)
        if deadline < self.now:
            raise ValueError(f"until={deadline} is in the past (now={self.now})")
        step, queue = self.step, self._queue
        while queue and queue[0][0] <= deadline:
            step()
        self.now = deadline
        return None

    @property
    def idle(self) -> bool:
        """True when no events are pending."""
        return not self._queue

    def peek(self) -> float:
        """Virtual time of the next pending event (``inf`` when idle)."""
        return self._queue[0][0] if self._queue else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Kernel t={self.now:.6f} pending={len(self._queue)} "
                f"processes={len(self._processes)}>")
