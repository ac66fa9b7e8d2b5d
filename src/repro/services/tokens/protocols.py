"""Resource-control protocols built from tokens.

The paper gives two examples (§4.1):

* "suppose we want at most one process to modify an object at any point
  in the computation. We associate a single token with that object and
  only the process holding the token can modify the object" —
  :class:`TokenMutex`.
* "tokens can be used to implement a simple read/write control protocol
  that allows multiple concurrent reads of an object, but at most one
  concurrent write, and no reads concurrent with a write ... A dapplet
  writes the object only if it has **all** tokens associated with the
  object, and a dapplet reads the object only if it has **at least
  one** token" — :class:`ReadersWriterLock`.

Both are thin, faithful wrappers over :class:`TokenAgent`; use them from
a process with ``yield``::

    yield mutex.acquire()
    ...critical section...
    mutex.release()

The wrappers never look past the agent, so they run unchanged against
a one-manager :class:`~repro.services.tokens.TokenCoordinator` or
a sharded ring (attach the agent via
:meth:`~repro.services.tokens.shard.ShardedTokenService.attach`); the
``ALL`` write request is resolved against the colour's totals at its
home shard either way.
"""

from __future__ import annotations

from repro.errors import TokenError
from repro.services.tokens.manager import ALL, TokenAgent
from repro.sim.events import Event


class TokenMutex:
    """Mutual exclusion on one colour holding a single token.

    Create the colour with total count 1 at the coordinator.
    """

    def __init__(self, agent: TokenAgent, color: str) -> None:
        self.agent = agent
        self.color = color
        self.held = False

    def acquire(self) -> Event:
        """Blocks until the token is granted."""
        event = self.agent.request({self.color: 1})
        event.callbacks.append(self._mark_held)
        return event

    def _mark_held(self, event: Event) -> None:
        if event.ok:
            self.held = True

    def release(self) -> None:
        if not self.held:
            raise TokenError(
                f"mutex on {self.color!r} released without being held")
        self.held = False
        self.agent.release({self.color: 1})


class ReadersWriterLock:
    """The paper's all-tokens-to-write protocol on one colour.

    The colour's total count bounds the number of concurrent readers
    (each reader holds one token; a writer holds them all).
    """

    def __init__(self, agent: TokenAgent, color: str) -> None:
        self.agent = agent
        self.color = color
        self.read_held = 0
        self.write_held = False

    # -- readers -----------------------------------------------------------

    def acquire_read(self) -> Event:
        """Blocks until one token (a read share) is granted."""
        event = self.agent.request({self.color: 1})
        event.callbacks.append(self._mark_read)
        return event

    def _mark_read(self, event: Event) -> None:
        if event.ok:
            self.read_held += 1

    def release_read(self) -> None:
        if self.read_held <= 0:
            raise TokenError(
                f"read lock on {self.color!r} released without being held")
        self.read_held -= 1
        self.agent.release({self.color: 1})

    # -- the writer -----------------------------------------------------------

    def acquire_write(self) -> Event:
        """Blocks until *all* tokens of the colour are granted."""
        event = self.agent.request({self.color: ALL})
        event.callbacks.append(self._mark_write)
        return event

    def _mark_write(self, event: Event) -> None:
        if event.ok:
            self.write_held = True

    def release_write(self) -> None:
        if not self.write_held:
            raise TokenError(
                f"write lock on {self.color!r} released without being held")
        self.write_held = False
        self.agent.release({self.color: ALL})
