"""Dapplets: the paper's process model.

"We coin the phrase *dapplet* to distinguish a process used in a
collaborative distributed application ... A dapplet is a process: it
operates in a single address space ... and it communicates with other
processes through ports. Associated with each dapplet is an Internet
address (i.e. IP address and port id)."

:class:`Dapplet` is the base class applications subclass;
:class:`~repro.dapplet.acl.AccessControlList` and
:class:`~repro.dapplet.state.PersistentState` support the paper's
session-admission and persistent-state requirements.
"""

from repro.dapplet.acl import AccessControlList
from repro.dapplet.dapplet import Dapplet
from repro.dapplet.state import PersistentState, Region, RegionView

__all__ = [
    "AccessControlList",
    "Dapplet",
    "PersistentState",
    "Region",
    "RegionView",
]
