"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs: the
paper's dapplets are Java threads talking over the Internet; here they
are generator coroutines driven by a virtual-time event loop, which
exercises the same blocking/ordering code paths while keeping every run
reproducible from a seed (see DESIGN.md §2 for the substitution
argument).

The programming model is SimPy-like:

* A *process* is a generator function that ``yield``\\ s :class:`Event`
  objects; the kernel resumes the generator when the event fires, sending
  the event's value in (or throwing its exception).
* :meth:`Kernel.timeout` produces an event that fires after a virtual
  delay; :meth:`Kernel.event` produces a manually-triggered event.
* Blocking queues are built from these events by their owners: the
  paper's inbox (:class:`repro.mailbox.Inbox`) holds its own queue and
  its own waiting receives.

Determinism: events scheduled for the same instant fire in scheduling
order, and all randomness flows through :class:`RandomStreams`, a tree of
named seeded generators.
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Kernel",
    "Process",
    "RandomStreams",
    "Timeout",
]
