"""Delivery classes: the per-channel reliability policies of the stack.

The paper's sessions multiplex very different traffic over one socket —
reliable inventory/token events next to soft-realtime updates where a
stale message is worthless. Instead of an endpoint-wide boolean, every
outbox (or session binding) picks one of three delivery classes for its
channels, H-UDP style:

``RELIABLE``
    Today's full path: per-channel FIFO exactly-once with SACK,
    retransmission, congestion + flow control. A receipt resolves
    ``delivered`` once the cumulative ACK covers the packet.

``UNRELIABLE``
    Fire-and-forget: no retransmit state, no reorder buffer, no rwnd
    accounting. Frames are sequence-stamped per channel so receivers
    drop duplicates and stale frames (older than the latest delivered).

``RELIABLE_SKIP``
    Retransmit like RELIABLE until a per-channel skip timeout, then the
    sender abandons the packet and tells the receiver to advance past
    the hole instead of stalling FIFO delivery. The receipt resolves
    ``skipped`` rather than failing the whole channel.

This module is dependency-free on purpose: the wire codec, the
transport, the mailbox layer and the session specs all import the class
names from here without dragging in each other.
"""

from __future__ import annotations

RELIABLE = "reliable"
UNRELIABLE = "unreliable"
RELIABLE_SKIP = "reliable_skip"

#: Every valid delivery class, in wire-bit order (RELIABLE encodes as 0).
DELIVERY_CLASSES = (RELIABLE, UNRELIABLE, RELIABLE_SKIP)


def validate_delivery(delivery: str, *, what: str = "delivery class") -> str:
    """Return ``delivery`` unchanged or raise ``ValueError`` listing
    the valid classes."""
    if delivery not in DELIVERY_CLASSES:
        raise ValueError(
            f"unknown {what} {delivery!r}; expected one of "
            f"{', '.join(DELIVERY_CLASSES)}")
    return delivery
