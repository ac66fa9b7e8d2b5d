"""Synchronization constructs (§4.3 of the paper).

"We have implemented and verified other kinds of synchronization
constructs — barriers, single-assignment variables, channels and
semaphores — for threads within a dapplet. We are extending these
designs to allow synchronizations between threads in different dapplets
in different address spaces."

:mod:`repro.services.sync.local` provides the intra-dapplet constructs
(threads within a dapplet are kernel processes);
:mod:`repro.services.sync.distributed` provides the extension the paper
announces: the same four constructs across dapplets — hosted on one
dapplet behind a global pointer, reached from the others by RPC.
"""

from repro.services.sync.local import (
    Barrier,
    BoundedChannel,
    Semaphore,
    SingleAssignment,
)
from repro.services.sync.distributed import (
    DistributedBarrier,
    DistributedChannel,
    DistributedSemaphore,
    DistributedSingleAssignment,
    SyncHost,
)

__all__ = [
    "Barrier",
    "BoundedChannel",
    "DistributedBarrier",
    "DistributedChannel",
    "DistributedSemaphore",
    "DistributedSingleAssignment",
    "Semaphore",
    "SingleAssignment",
    "SyncHost",
]
