"""Simulated wide-area network substrate.

The paper's implementation runs over UDP on the real Internet; this
package provides the synthetic equivalent (see DESIGN.md §2): an
unreliable datagram service with configurable latency models and fault
injection (:mod:`repro.net.datagram`), and on top of it the ordering
layer the paper describes — per-channel FIFO, exactly-once delivery via
sequence numbers, acknowledgements and retransmission: the protocol as
sans-I/O stream machines (:mod:`repro.net.stream`), hosted per node by
:mod:`repro.net.endpoint`, with per-channel delivery classes
(:mod:`repro.net.delivery`).
"""

from repro.net.address import InboxAddress, NodeAddress
from repro.net.datagram import Datagram, DatagramNetwork, NetworkStats
from repro.net.delivery import (
    DELIVERY_CLASSES,
    RELIABLE,
    RELIABLE_SKIP,
    UNRELIABLE,
)
from repro.net.faults import FaultPlan
from repro.net.latency import (
    ConstantLatency,
    GeoLatency,
    LatencyModel,
    LogNormalLatency,
    PerLinkLatency,
    UniformLatency,
    WAN_SITES,
)
from repro.net.endpoint import DeliveryReceipt, Endpoint, EndpointStats

__all__ = [
    "ConstantLatency",
    "DELIVERY_CLASSES",
    "Datagram",
    "DatagramNetwork",
    "DeliveryReceipt",
    "Endpoint",
    "EndpointStats",
    "FaultPlan",
    "GeoLatency",
    "InboxAddress",
    "LatencyModel",
    "LogNormalLatency",
    "NetworkStats",
    "NodeAddress",
    "PerLinkLatency",
    "RELIABLE",
    "RELIABLE_SKIP",
    "UNRELIABLE",
    "UniformLatency",
    "WAN_SITES",
]
