"""The simulated substrate: virtual-time kernel + simulated network.

:class:`SimSubstrate` bundles the discrete-event
:class:`~repro.sim.Kernel` with a
:class:`~repro.net.datagram.DatagramNetwork` into one
:class:`~repro.runtime.substrate.Substrate`. It *is* a kernel (by
inheritance), so behaviour is byte-for-byte identical to constructing
the two pieces by hand — same event ordering, same named random streams,
same traces — and every pre-substrate test passes unchanged.
"""

from __future__ import annotations

from repro.net.datagram import DatagramNetwork
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.sim.kernel import Kernel


class SimSubstrate(Kernel):
    """Deterministic virtual-time substrate (the default).

    Parameters
    ----------
    seed:
        Root seed for all randomness in the run.
    latency / faults:
        The simulated network's latency model and fault plan (see
        :mod:`repro.net`).
    encoded:
        Opt-in: round-trip every datagram through the binary wire codec
        at the send/deliver boundary, exactly as the real UDP substrate
        does — proves sim/asyncio byte-parity (see
        :class:`~repro.net.datagram.DatagramNetwork`). Default off: the
        simulator hands `Datagram` objects around in memory.
    """

    def __init__(self, seed: int = 0, *,
                 latency: LatencyModel | None = None,
                 faults: FaultPlan | None = None,
                 encoded: bool = False) -> None:
        super().__init__(seed=seed)
        #: The datagram half of the substrate.
        self.datagrams = DatagramNetwork(self, latency=latency, faults=faults,
                                         encoded=encoded)

    def close(self) -> None:
        """Nothing to release: the simulator holds no external resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimSubstrate t={self.now:.6f} pending={len(self._queue)} "
                f"processes={len(self._processes)}>")
