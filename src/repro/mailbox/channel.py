"""Channel bookkeeping.

A channel is directed from exactly one outbox to exactly one inbox
(paper §3.2). The transport layer keys its per-channel FIFO streams by
:func:`channel_key`, so the ordering guarantee is exactly the paper's:
per channel, not per node pair.
"""

from __future__ import annotations

from repro.net.address import InboxAddress, NodeAddress


def channel_key(src_node: NodeAddress, outbox_ref: int,
                dst: InboxAddress) -> str:
    """Stable unique identifier of the (outbox -> inbox) channel."""
    return f"{src_node}#o{outbox_ref}->{dst}"


class Channel:
    """One directed FIFO channel's key and counters. Its source node,
    outbox, destination and delivery class are its outbox's."""

    __slots__ = ("key", "copies_sent", "bytes_sent")

    def __init__(self, key: str) -> None:
        self.key = key
        self.copies_sent = 0
        self.bytes_sent = 0
