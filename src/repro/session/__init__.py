"""Sessions: temporary networks of dapplets.

The paper (§1): "Dapplets are composed together to form distributed
*sessions*. A session is a temporary network of dapplets that carries
out a task ... Sessions need not be static: after initiation, they may
grow and shrink as required by the dapplets."

The pieces:

* :class:`SessionSpec` — the initiator's description of the network to
  build: members, each member's session ports and state regions, and
  the outbox→inbox bindings (Figure 1's arrowed lines).
* :class:`Initiator` — a dapplet that executes the two-phase link-up
  of Figure 2 (prepare, then commit), with abort on rejection, and owns
  the session afterwards (grow, shrink, terminate). Every step is an RPC
  call (:mod:`repro.rpc`) on the members' session facets; the link-up
  has no message type of its own.
* :class:`SessionManager` — the servlet every dapplet runs; exports the
  session facet on its ``_session`` inbox, checks the access-control
  list, capability grants and session interference, builds ports, and
  hands the application a :class:`SessionContext`.
* :mod:`repro.session.interference` — the region-conflict relation and
  an execution monitor asserting the paper's mutual-exclusion
  requirement.
"""

from repro.session.initiator import Initiator
from repro.session.interference import InterferenceMonitor, regions_conflict
from repro.session.manager import SessionManager
from repro.session.session import Session, SessionContext
from repro.session.spec import Binding, MemberSpec, SessionSpec

__all__ = [
    "Binding",
    "Initiator",
    "InterferenceMonitor",
    "MemberSpec",
    "Session",
    "SessionContext",
    "SessionManager",
    "SessionSpec",
    "regions_conflict",
]
