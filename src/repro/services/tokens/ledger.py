"""The token ledger: conservation as one plain data structure.

"Tokens are objects that are neither created nor destroyed." A
:class:`Ledger` is the whole of one manager's accounting — no dapplet,
no kernel, no messages. Every token of a colour it owns sits in exactly
one of three places:

``pool``
    free, grantable;
``reserved``
    promised to an in-flight grant (``gid -> (agent, principal,
    counts)``), not yet visible to the agent;
``holders``
    held by an agent (``agent -> {colour: n}``).

Two invariants hold after every call, and :meth:`Ledger.check` asserts
both:

* **conservation** — ``pool + reserved + held == totals`` per colour;
* **usage** — ``usage[p]`` (what quota gates read) is exactly the
  tokens reserved under principal ``p`` plus the tokens held by agents
  last seen acting for ``p``.

Every mutation either completes or raises
:class:`~repro.errors.TokenError` having changed nothing (the operation
table is in ``docs/TOKENS.md``).
Beside it, an equally pure :class:`WaitQueue` applies the grant policy.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import TokenError

#: Sentinel count meaning "all tokens of this colour".
ALL = "all"

#: The grant policies a :class:`WaitQueue` applies.
POLICIES = ("fifo", "timestamp")


def priority(entry) -> tuple:
    """Queue order under ``"timestamp"`` and deadlock-victim priority:
    the youngest (largest) waiter loses."""
    return (entry.timestamp, entry.agent, entry.gid)


class Ledger:
    """pool / reserved / held accounting for a fixed set of colours."""

    def __init__(self, totals: Mapping[str, int], *, name: str = "") -> None:
        #: Label used in error messages (the owning manager's ring name).
        self.name = name
        self.totals = _counts(totals, "initial count")
        self.pool = dict(self.totals)
        self.reserved: dict[str, tuple[str, str, dict[str, int]]] = {}
        self.holders: dict[str, dict[str, int]] = {}
        #: agent -> principal it last reserved under ("" = unowned).
        self.principal_of: dict[str, str] = {}
        #: principal -> {colour: reserved + held}; "" is never tracked.
        self.usage: dict[str, dict[str, int]] = {}

    # -- reading -----------------------------------------------------------

    def resolve(self, colors: Mapping[str, object]) -> dict[str, int]:
        """Concrete counts for a request (``"all"`` = the colour's total)."""
        return _counts(colors, "count", self.totals)

    def can_reserve(self, colors: Mapping[str, object]) -> bool:
        """Does the pool cover ``colors`` right now? (Never, for a
        colour this ledger does not own.)"""
        return self._covers(self.resolve(colors))

    def _covers(self, need: Mapping[str, int]) -> bool:
        return all(self.pool.get(c, -1) >= n for c, n in need.items())

    def scarce_holders(self, agent: str,
                       colors: Mapping[str, object]) -> list[str]:
        """Who ``agent`` waits for: agents holding or reserving any
        colour of ``colors`` the pool is short of (never ``agent``)."""
        scarce = [c for c, n in self.resolve(colors).items()
                  if self.pool.get(c, 0) < n]
        found: set[str] = set()
        for color in scarce:
            found.update(a for a, held in self.holders.items()
                         if held.get(color, 0) > 0)
            found.update(a for a, _, counts in self.reserved.values()
                         if counts.get(color, 0) > 0)
        found.discard(agent)
        return sorted(found)

    def live(self) -> dict[str, int]:
        """Per-colour pool + reserved + held."""
        live = dict(self.pool)
        for _, _, counts in self.reserved.values():
            _add(live, counts)
        for held in self.holders.values():
            _add(live, held)
        return live

    def check(self) -> None:
        """Assert both invariants (see the module docstring)."""
        label = f"shard {self.name!r}: " if self.name else ""
        live = self.live()
        if any(n < 0 for counts in (self.pool, *self.holders.values())
               for n in counts.values()):
            raise TokenError(f"{label}negative count in pool or holdings")
        for color, total in self.totals.items():
            if live.get(color, 0) != total:
                raise TokenError(
                    f"{label}conservation violated for colour {color!r}: "
                    f"live={live.get(color, 0)} total={total}")
        for color in live:
            if color not in self.totals:
                raise TokenError(f"{label}holds foreign colour {color!r}")
        charged: dict[str, dict[str, int]] = {}
        for _, principal, counts in self.reserved.values():
            _add(charged.setdefault(principal, {}), counts, prune=True)
        for agent, held in self.holders.items():
            _add(charged.setdefault(self.principal_of.get(agent, ""), {}),
                 held, prune=True)
        charged = {p: u for p, u in charged.items() if p and u}
        if charged != self.usage:
            raise TokenError(
                f"{label}usage {self.usage} != reserved + held {charged}")

    # -- mutating ----------------------------------------------------------

    def reserve(self, gid: str, agent: str, principal: str,
                colors: Mapping[str, object]) -> dict[str, int]:
        """Move ``colors`` from the pool to a reservation; the counts."""
        need = self.resolve(colors)
        if gid in self.reserved:
            raise TokenError(f"grant {gid!r} is already reserved")
        if not self._covers(need):
            raise TokenError(f"pool cannot cover {need} for grant {gid!r}")
        _add(self.pool, need, -1)
        self.reserved[gid] = (agent, principal, need)
        self._charge(principal, need, +1)
        # What the agent already holds follows it to its principal.
        known = self.principal_of.get(agent, "")
        if principal and principal != known:
            held = self.holders.get(agent, {})
            self._charge(known, held, -1)
            self._charge(principal, held, +1)
            self.principal_of[agent] = principal
        return need

    def commit(self, gid: str) -> dict[str, int] | None:
        """Turn a reservation into a holding; None if ``gid`` is gone."""
        reservation = self.reserved.pop(gid, None)
        if reservation is None:
            return None
        agent, principal, counts = reservation
        _add(self.holders.setdefault(agent, {}), counts, prune=True)
        owner = self.principal_of.get(agent, "")
        if owner != principal:  # the agent changed hands mid-grant
            self._charge(principal, counts, -1)
            self._charge(owner, counts, +1)
        return counts

    def abort(self, gid: str) -> dict[str, int] | None:
        """Refund a reservation to the pool; None if ``gid`` is gone."""
        reservation = self.reserved.pop(gid, None)
        if reservation is None:
            return None
        _, principal, counts = reservation
        _add(self.pool, counts)
        self._charge(principal, counts, -1)
        return counts

    def release(self, agent: str, colors: Mapping[str, object]) -> dict[str, int]:
        """Return held tokens to the pool (``"all"`` = all held)."""
        counts = self._debit(agent, colors, "released")
        _add(self.pool, counts)
        return counts

    def transfer(self, src: str, dst: str,
                 colors: Mapping[str, object]) -> dict[str, int]:
        """Move held tokens between agents; the counts actually moved
        (``"all"`` of nothing moves nothing)."""
        moved = self._debit(src, colors, "transferred")
        if moved:
            _add(self.holders.setdefault(dst, {}), moved, prune=True)
            self._charge(self.principal_of.get(dst, ""), moved, +1)
        return moved

    def _debit(self, agent: str, colors: Mapping[str, object],
               verb: str) -> dict[str, int]:
        """Take ``colors`` out of ``agent``'s holding, or raise."""
        held = self.holders.get(agent, {})
        counts = _counts(colors, "count", held)
        for color, n in counts.items():
            if n > held.get(color, 0):
                # Agents validate locally; a mismatch is a protocol bug.
                where = f" at shard {self.name!r}" if self.name else ""
                raise TokenError(
                    f"agent {agent!r} {verb} {n} {color!r} tokens{where} "
                    f"but holds {held.get(color, 0)}")
        counts = {c: n for c, n in counts.items() if n}
        _add(held, counts, -1, prune=True)
        self._charge(self.principal_of.get(agent, ""), counts, -1)
        return counts

    def _charge(self, principal: str, counts: Mapping[str, int],
                sign: int) -> None:
        if not principal:
            return
        usage = self.usage.setdefault(principal, {})
        _add(usage, counts, sign, prune=True)
        if not usage:
            del self.usage[principal]


class WaitQueue:
    """A manager's blocked prepares (anything with ``gid``, ``agent``,
    ``timestamp`` and ``colors``), in arrival order, and its grant
    policy. ``"fifo"`` (default) grants every waiter the pool covers, so
    a stream of small requests can starve a large one; ``"timestamp"``
    grants strictly in :func:`priority` order, the paper's §4.2 rule
    (the earlier timestamp wins, ties go to the lower id; experiment E11
    measures the difference). Iterating yields a copy, so the caller
    may change the queue as it walks."""

    def __init__(self, policy: str = "fifo") -> None:
        if policy not in POLICIES:
            raise TokenError(f"policy must be one of {POLICIES}")
        self.policy = policy
        self._waiting: dict[str, object] = {}   # gid -> entry

    def __len__(self) -> int:
        return len(self._waiting)

    def __iter__(self) -> Iterator:
        return iter(list(self._waiting.values()))

    def add(self, entry) -> None:
        self._waiting[entry.gid] = entry

    def discard(self, gid: str) -> None:
        self._waiting.pop(gid, None)

    def of(self, agent: str) -> list:
        return [e for e in self._waiting.values() if e.agent == agent]

    def drain(self, ledger: Ledger) -> Iterator:
        """The one grant pass: in policy order, take out and yield each
        waiter ``ledger``'s pool covers at its turn (the caller reserves
        it before the next is tested); ``"timestamp"`` stops at the
        first one it does not. A waiter that leaves meanwhile is passed
        over."""
        turns = (sorted(self._waiting.values(), key=priority)
                 if self.policy == "timestamp" else list(self._waiting.values()))
        for entry in turns:
            if entry.gid not in self._waiting:
                continue
            if ledger.can_reserve(entry.colors):
                del self._waiting[entry.gid]
                yield entry
            elif self.policy == "timestamp":
                return


def _counts(colors: Mapping[str, object], what: str,
            all_of: Mapping[str, int] | None = None) -> dict[str, int]:
    """``colors`` as concrete ints >= 0 (``"all"`` looked up in
    ``all_of``), or :class:`TokenError`."""
    out = {}
    for color, n in colors.items():
        if n == ALL and all_of is not None:
            n = all_of.get(color, 0)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise TokenError(
                f"{what} for colour {color!r} must be an int >= 0, got {n!r}")
        out[color] = n
    return out


def _add(into: dict[str, int], counts: Mapping[str, int], sign: int = 1,
         *, prune: bool = False) -> None:
    """``into[c] += sign * n``; ``prune`` drops colours that reach zero."""
    for color, n in counts.items():
        left = into.get(color, 0) + sign * n
        if left or not prune:
            into[color] = left
        else:
            into.pop(color, None)
