"""Channel bookkeeping.

A channel is directed from exactly one outbox to exactly one inbox
(paper §3.2). The transport layer keys its per-channel FIFO streams by
:func:`channel_key`, so the ordering guarantee is exactly the paper's:
per channel, not per node pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.address import InboxAddress, NodeAddress
from repro.net.delivery import RELIABLE


def channel_key(src_node: NodeAddress, outbox_ref: int,
                dst: InboxAddress) -> str:
    """Stable unique identifier of the (outbox -> inbox) channel."""
    return f"{src_node}#o{outbox_ref}->{dst}"


@dataclass
class Channel:
    """One directed FIFO channel and its counters."""

    key: str
    src_node: NodeAddress
    outbox_ref: int
    destination: InboxAddress
    created_at: float
    #: Delivery class of every copy on this channel (see
    #: :mod:`repro.net.delivery`): its outbox's.
    delivery: str = RELIABLE
    copies_sent: int = 0
    bytes_sent: int = 0
