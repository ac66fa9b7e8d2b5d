"""Global pointers and remote procedure calls.

The paper (§3.2, "Communication Layer Features"): "Associate an inbox
*b* with an object *p*. Messages in *b* are directions to invoke
appropriate methods on *p*. Associate a thread with *b* and *p*: the
thread receives a message from *b* and then invokes the method specified
in the message on *p*. Thus the address of the inbox serves as a global
pointer to an object associated with the inbox, and messages serve the
role of asynchronous RPCs. Synchronous RPCs are implemented as pairwise
asynchronous RPCs."

:func:`export` publishes an object exactly that way and returns its
global pointer (an inbox address); :class:`RemoteProxy` invokes methods
through a pointer, one-way (:meth:`~RemoteProxy.invoke`) or
request/reply (:meth:`~RemoteProxy.call`).

The reply half of a pair belongs to the calling dapplet: however many
proxies it holds, it has one reply inbox and one dispatcher, so an
exporter keeps one reply channel per calling dapplet — its stream
state is O(calling dapplets), not O(proxies).
"""

from repro.rpc.remote import RemoteObject, export
from repro.rpc.proxy import RemoteProxy

__all__ = ["RemoteObject", "RemoteProxy", "export"]
