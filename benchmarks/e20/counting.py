"""Counting substrates: the library's substrates plus event counters.

Used only by the traced run; the untraced run measures the plain classes.
Timers are attributed to the module whose code armed them (the
``__module__`` of the callback handed to ``call_later``), which is how
``net.endpoint.timers_armed_per_msg`` is told apart from the simulated
network's own delivery events.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.runtime import AsyncioSubstrate, SimSubstrate
from repro.runtime.aio import UdpDatagramService


class _TimerCounts:
    """``call_later`` bookkeeping shared by both substrates."""

    def _init_counts(self) -> None:
        #: module -> timers armed / timer callbacks run.
        self.armed: Counter[str] = Counter()
        self.fired: Counter[str] = Counter()

    def _counted(self, fn: Callable[[], None]) -> Callable[[], None]:
        module = getattr(fn, "__module__", "") or ""
        self.armed[module] += 1
        fired = self.fired

        def counted() -> None:
            fired[module] += 1
            fn()

        # Keeps the span recorder naming the timer after its real owner.
        counted.__module__ = module
        return counted


class CountingSimSubstrate(_TimerCounts, SimSubstrate):
    """:class:`SimSubstrate` that counts timers and scheduled events."""

    def __init__(self, *args, **kwargs) -> None:
        self._init_counts()
        super().__init__(*args, **kwargs)

    def call_later(self, delay: float, fn: Callable[[], None]):
        return super().call_later(delay, self._counted(fn))

    @property
    def events_scheduled(self) -> int:
        """Every event ever put on the kernel's queue (exact)."""
        return self._sequence


class _CountingUdpService(UdpDatagramService):
    """Counts the bytes actually handed to ``sendto``."""

    socket_bytes = 0

    def _sendto(self, src, data, route) -> None:
        self.socket_bytes += len(data)
        super()._sendto(src, data, route)


class CountingAsyncioSubstrate(_TimerCounts, AsyncioSubstrate):
    """:class:`AsyncioSubstrate` that counts timers and socket bytes."""

    def __init__(self, *args, bind_host: str = "127.0.0.1",
                 faults=None, **kwargs) -> None:
        self._init_counts()
        super().__init__(*args, bind_host=bind_host, faults=faults, **kwargs)
        # Nothing has registered yet, so swapping the service is safe.
        self.datagrams = _CountingUdpService(self, bind_host=bind_host,
                                             faults=faults)

    def call_later(self, delay: float, fn: Callable[[], None]):
        return super().call_later(delay, self._counted(fn))
