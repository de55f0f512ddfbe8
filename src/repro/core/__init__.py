"""The paper's contribution: RCV distributed mutual exclusion.

Package layout (one module per concept in §3–4 of the paper):

* :mod:`~repro.core.tuples` — request tuples ``<NodeID, TS>``;
* :mod:`~repro.core.state` — the per-node System Information (SI):
  ``Next``, ``NONL`` (Node Ordered Node List), ``NSIT`` (Node System
  Information Table of per-node ``MNL`` request lists), plus the
  completion watermark (docs/protocol.md, "Completion watermark");
* :mod:`~repro.core.messages` — the three message types RM / EM / IM;
* :mod:`~repro.core.exchange` — the Exchange procedure (§4.3);
* :mod:`~repro.core.order` — the Order procedure and the Relative
  Consensus Voting rule (§4.2), in ``strict`` and literal ``paper``
  variants;
* :mod:`~repro.core.forwarding` — request-forwarding policies (the
  paper's random choice plus the future-work alternatives);
* :mod:`~repro.core.node` — the MPM (Message Processing Model)
  algorithm (§4.1) as a :class:`~repro.mutex.base.MutexNode`;
* :mod:`~repro.core.reference` — the historical full-snapshot
  implementation, preserved as the executable specification and
  benchmark baseline for the incremental hot path (docs/protocol.md).
"""

from repro.core.config import RCVConfig
from repro.core.errors import ProtocolInvariantError
from repro.core.messages import EnterMessage, InformMessage, RequestMessage
from repro.core.node import RCVNode
from repro.core.order import OrderOutcome, run_order
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple

__all__ = [
    "EnterMessage",
    "InformMessage",
    "OrderOutcome",
    "ProtocolInvariantError",
    "RCVConfig",
    "RCVNode",
    "ReqTuple",
    "RequestMessage",
    "SystemInfo",
    "run_order",
]
