"""Configuration of the RCV algorithm's tunable points."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RCVConfig"]

_RULES = ("strict", "paper")
_INCONSISTENCY = ("raise", "count")


@dataclass(frozen=True)
class RCVConfig:
    """Knobs for :class:`~repro.core.node.RCVNode`.

    Parameters
    ----------
    rule:
        The RCV commit test (see :mod:`repro.core.order`):
        ``"strict"`` (default) requires TP1 to beat *every* competitor
        — including a hypothetical unseen one — after granting them
        all unknown votes; ``"paper"`` is the literal §4.2 test
        against the runner-up TP2 only.
    forwarding:
        Name of the forwarding policy for RMs
        (:mod:`repro.core.forwarding`): ``"random"`` is the paper's
        choice; ``"sequential"``, ``"least_informed"``,
        ``"most_informed"`` are the future-work ablations.
    exchange_on_im:
        Whether an Inform Message's snapshot is merged into the
        receiver's SI.  §4.1 lines 25–32 do not call Exchange on IM;
        merging is harmless (the snapshot is already paid for) and
        speeds dissemination, so it defaults on; the ablation bench
        flips it.
    allow_revisit:
        Lemma 3 guarantees ordering within N−1 forwards.  If an RM
        nonetheless drains its unvisited list, ``True`` parks it at
        the current node for re-evaluation on the next state change
        (docs/protocol.md, "Parking an exhausted RM"); ``False``
        raises immediately, which is the
        assertion mode used in tests of Lemma 3.
    on_inconsistency:
        What to do when merging detects NONLs that rank tuples
        differently (a Lemma 7 violation): ``"raise"`` (default) or
        ``"count"`` (record and repair by trusting the longer list —
        used only by the paper-rule ablation).
    rm_timeout:
        Optional request-recovery extension (the fault tolerance the
        paper defers, EXPERIMENTS.md F3): if a request is still
        ungranted after this many time units, its home relaunches the
        RM with a fresh unvisited list and the *same* request tuple,
        recovering from an RM swallowed by a crashed node.  Duplicate
        RM instances are harmless: commits are idempotent (a tuple
        orders once per NONL), duplicate notifications are absorbed
        by the stale-EM guard and idempotent IM handling, and the
        relaunch carries no new timestamp so the vote is unchanged.
        ``None`` (default) disables recovery — the paper's model.
    exclude_nodes:
        Nodes all participants agree to treat as crashed (an external
        failure detector's output).  Excluded nodes are never
        forwarded to, their NSIT rows neither vote nor count as
        unknown votes, and the commit threshold closes over the
        remaining membership.  Complements ``rm_timeout``: the timeout
        recovers *lost RMs*, exclusion recovers *lost votes* — with a
        crashed node merely timed-out but not excluded, a split vote
        can still never reach the relative-majority threshold
        (EXPERIMENTS.md F3).  Must be identical at every node, or the
        thresholds diverge (it is part of the shared configuration,
        like N itself).
    """

    rule: str = "strict"
    forwarding: str = "random"
    exchange_on_im: bool = True
    allow_revisit: bool = True
    on_inconsistency: str = "raise"
    rm_timeout: float | None = None
    exclude_nodes: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise ValueError(f"rule must be one of {_RULES}, got {self.rule!r}")
        if self.on_inconsistency not in _INCONSISTENCY:
            raise ValueError(
                f"on_inconsistency must be one of {_INCONSISTENCY}, "
                f"got {self.on_inconsistency!r}"
            )
        if self.rm_timeout is not None and self.rm_timeout <= 0:
            raise ValueError("rm_timeout must be positive or None")
        object.__setattr__(
            self, "exclude_nodes", frozenset(self.exclude_nodes)
        )
        if any(not isinstance(j, int) or j < 0 for j in self.exclude_nodes):
            raise ValueError("exclude_nodes must contain node ids")
        # Forwarding names are validated by the policy registry at
        # node construction (keeps the registry the single source of
        # truth).
