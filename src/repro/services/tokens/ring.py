"""The consistent-hash ring that places colours and agents on managers.

Pure placement arithmetic — no dapplet, no messages — shared by every
:class:`~repro.services.tokens.shard.TokenShard` of one deployment and
by anything that needs to predict where a key lives.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping
from zlib import crc32

from repro.errors import TokenError

#: Virtual nodes per shard on the ring — enough to spread a handful of
#: shards evenly without making the ring big.
VNODES = 16


class ShardRing:
    """A consistent-hash ring over shard names.

    Both colours and agent names are placed with crc32 (the same spread
    function the discovery subsystem uses), each shard contributing
    :data:`VNODES` points. ``home(key)`` is the owner of the first ring
    point at or after the key's hash — stable under shard addition or
    removal for all keys not on the moved arcs.
    """

    def __init__(self, names: Iterable[str]) -> None:
        self.names = tuple(sorted(set(names)))
        if not self.names:
            raise TokenError("a shard ring needs at least one shard")
        points = []
        for name in self.names:
            for v in range(VNODES):
                points.append((crc32(f"{name}#{v}".encode()), name))
        points.sort()
        self._points = points

    def home(self, key: str) -> str:
        """The shard name owning ``key`` (a colour or an agent name)."""
        h = crc32(str(key).encode())
        i = bisect_left(self._points, (h, ""))
        return self._points[i % len(self._points)][1]

    def split(self, tokens: Mapping[str, object]) -> list[tuple[str, dict]]:
        """Group a token list by home shard, in ring-name order.

        The order is the protocol's global acquisition order: every
        coordinator prepares groups in this sequence, so reservations
        alone can never form a wait cycle.
        """
        groups: dict[str, dict] = {}
        for color in sorted(tokens):
            groups.setdefault(self.home(color), {})[color] = tokens[color]
        return sorted(groups.items())

    def __len__(self) -> int:
        return len(self.names)
