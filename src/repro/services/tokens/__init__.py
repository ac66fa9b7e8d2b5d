"""Tokens and capabilities (§4.1 of the paper).

"We treat each resource as a token. Tokens are objects that are neither
created nor destroyed: a fixed number of them are communicated and
shared among the processes of a system. Tokens have colors; tokens of
one color cannot be transmuted into tokens of another color."

A :class:`TokenCoordinator` servlet hosts the token pool (it is the
network of managers at its smallest: a ring of one :class:`TokenShard`);
:class:`TokenAgent` is the per-dapplet manager with the paper's
operations — ``request(tokenList)`` (blocking; raises
:class:`~repro.errors.DeadlockDetected` if the managers detect a
deadlock), ``release(tokenList)`` (raises on releasing tokens not held),
and ``totalTokens()``. :mod:`repro.services.tokens.protocols` builds the
paper's two worked examples on top: single-token mutual exclusion and
the all-tokens-to-write readers/writer protocol.

At scale the same manager class is deployed N times:
:mod:`repro.services.tokens.shard` is the paper's "network of token
managers" — a consistent-hash ring (:class:`ShardRing`) of
:class:`TokenShard` managers with atomic cross-shard grants and
probe-based distributed deadlock detection, each keeping its accounting
in one :class:`~repro.services.tokens.ledger.Ledger`, behind the exact
same facet, which agents call through :mod:`repro.rpc` (see
``docs/TOKENS.md``).
"""

from repro.services.tokens.manager import ALL, TokenAgent
from repro.services.tokens.protocols import ReadersWriterLock, TokenMutex
from repro.services.tokens.ring import ShardRing
from repro.services.tokens.shard import (
    SHARD_INBOX,
    ShardedTokenService,
    TokenCoordinator,
    TokenShard,
    TokenShardHost,
    resolve_shard,
)

__all__ = [
    "ALL",
    "ReadersWriterLock",
    "SHARD_INBOX",
    "ShardRing",
    "ShardedTokenService",
    "TokenAgent",
    "TokenCoordinator",
    "TokenMutex",
    "TokenShard",
    "TokenShardHost",
    "resolve_shard",
]
