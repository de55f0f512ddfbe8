"""Tests for the Order procedure and the RCV commit rules (§4.2)."""

import pytest

from repro.core.order import can_commit, rank_candidates, run_order
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple


def T(node, ts=1):
    return ReqTuple(node, ts)


def si_with_fronts(n, fronts):
    """Build an SI whose row i has front ``fronts[i]`` (None = empty)."""
    si = SystemInfo(n)
    for i, f in enumerate(fronts):
        if f is not None:
            si.rows[i].mnl = [f]
    return si


# ----------------------------------------------------------------------
# ranking
# ----------------------------------------------------------------------
def test_rank_by_votes_then_id():
    si = si_with_fronts(5, [T(3), T(3), T(1), T(1), T(2)])
    ranked = rank_candidates(si)
    # 3 and 1 tie at 2 votes: smaller id first.
    assert [tp.node for tp, _ in ranked] == [1, 3, 2]
    assert [s for _, s in ranked] == [2, 2, 1]


# ----------------------------------------------------------------------
# paper rule (§4.2 line 13)
# ----------------------------------------------------------------------
def test_paper_commit_strict_lead():
    # S1=3, S2=1, unknown=1 -> lead 2 > 1: commit.
    si = si_with_fronts(5, [T(2), T(2), T(2), T(7), None])
    assert can_commit(rank_candidates(si), 5, si.empty_row_count(), "paper")


def test_paper_commit_tie_broken_by_id():
    # S1=2 (node 1), S2=1 (node 7), unknown=1 -> lead == unknown, id 1 < 7.
    si = si_with_fronts(4, [T(1), T(1), T(7), None])
    assert can_commit(rank_candidates(si), 4, si.empty_row_count(), "paper")
    # Same votes but leader has the larger id: no commit.
    si2 = si_with_fronts(4, [T(7), T(7), T(1), None])
    ranked2 = rank_candidates(si2)
    assert ranked2[0][0].node == 7
    assert not can_commit(ranked2, 4, si2.empty_row_count(), "paper")


def test_paper_single_candidate_majority():
    # Lone candidate with N/2 votes exactly (N even): the line-12
    # sentinel means only node 0 wins the tie.
    si = si_with_fronts(4, [T(0), T(0), None, None])
    assert can_commit(rank_candidates(si), 4, si.empty_row_count(), "paper")
    si2 = si_with_fronts(4, [T(3), T(3), None, None])
    assert not can_commit(rank_candidates(si2), 4, si2.empty_row_count(), "paper")
    # Strict majority commits regardless of id.
    si3 = si_with_fronts(4, [T(3), T(3), T(3), None])
    assert can_commit(rank_candidates(si3), 4, si3.empty_row_count(), "paper")


def test_paper_and_strict_agree_on_multiway_race():
    """docs/protocol.md, "Strict commit rule": the TP2-only paper test is *equivalent* to the
    all-competitors strict test, because equal-vote candidates rank by
    id (so TP2 is the worst-case tie) and lower-vote candidates are
    strictly dominated.  This pins a representative multiway case; the
    exhaustive check is the hypothesis property test."""
    fronts = [T(5), T(5), T(5), T(5), T(7), T(7), T(3), T(3), None, None]
    si = si_with_fronts(10, fronts)
    ranked = rank_candidates(si)
    assert ranked[0][0].node == 5
    # TP2 is node 3 (equal votes as 7, smaller id); lead 2 == unknown
    # but 5 > 3, so *both* rules refuse.
    assert ranked[1][0].node == 3
    assert not can_commit(ranked, 10, si.empty_row_count(), "paper")
    assert not can_commit(ranked, 10, si.empty_row_count(), "strict")


def test_strict_commits_when_unbeatable():
    # S1=5, others at most 1+2 unknown=3 < 5: strict commits.
    fronts = [T(5)] * 5 + [T(7), None, None]
    si = si_with_fronts(8, fronts)
    assert can_commit(rank_candidates(si), 8, si.empty_row_count(), "strict")


def test_strict_unseen_competitor_blocks():
    # Lone candidate, votes == unknown: a yet-unseen tuple could tie;
    # only node 0 survives the worst-case id tie-break.
    si = si_with_fronts(6, [T(0), T(0), T(0), None, None, None])
    assert can_commit(rank_candidates(si), 6, si.empty_row_count(), "strict")
    si2 = si_with_fronts(6, [T(2), T(2), T(2), None, None, None])
    assert not can_commit(rank_candidates(si2), 6, si2.empty_row_count(), "strict")


def test_unknown_rule_rejected():
    si = si_with_fronts(2, [T(0), None])
    with pytest.raises(ValueError):
        can_commit(rank_candidates(si), 2, 1, "bogus")


# ----------------------------------------------------------------------
# run_order
# ----------------------------------------------------------------------
def test_run_order_commits_cascade():
    """Removing a committed front promotes the next tuple, letting
    several nodes be ordered in one invocation — the paper's headline
    difference from one-at-a-time algorithms."""
    si = SystemInfo(3)
    for i in range(3):
        si.rows[i].mnl = [T(0), T(1), T(2)]
    outcome = run_order(si, T(2), rule="strict")
    assert outcome.be_ordered
    assert si.nonl == [T(0), T(1), T(2)]
    assert outcome.newly_ordered == [T(0), T(1), T(2)]
    assert not outcome.highest_priority  # two predecessors ahead


def test_run_order_stops_at_home():
    """Paper line 17: the loop ends once the home tuple commits."""
    si = SystemInfo(3)
    for i in range(3):
        si.rows[i].mnl = [T(1), T(0), T(2)]
    outcome = run_order(si, T(0), rule="strict")
    assert outcome.be_ordered
    assert si.nonl == [T(1), T(0)]  # 2 not committed: loop stopped
    assert si.rows[0].mnl == [T(2)]


def test_run_order_highest_priority_when_top():
    si = SystemInfo(3)
    for i in range(3):
        si.rows[i].mnl = [T(1)]
    outcome = run_order(si, T(1), rule="strict")
    assert outcome.be_ordered and outcome.highest_priority
    assert si.nonl == [T(1)]


def test_run_order_already_ordered_path():
    """Paper lines 3–7: home already in the NONL."""
    si = SystemInfo(3)
    si.nonl = [T(2), T(1)]
    si.rows[0].mnl = [T(1)]  # leftover reference to clean up
    outcome = run_order(si, T(1), rule="strict")
    assert outcome.be_ordered and not outcome.highest_priority
    assert outcome.newly_ordered == []
    assert si.rows[0].mnl == []  # line 6: deleted from NSIT


def test_run_order_insufficient_information():
    si = si_with_fronts(6, [T(3), T(3), None, None, None, None])
    outcome = run_order(si, T(3), rule="strict")
    assert not outcome.be_ordered
    assert si.nonl == []


def test_run_order_without_home_orders_everything_possible():
    si = SystemInfo(2)
    si.rows[0].mnl = [T(0), T(1)]
    si.rows[1].mnl = [T(0), T(1)]
    outcome = run_order(si, None, rule="strict")
    assert outcome.newly_ordered == [T(0), T(1)]
    assert not outcome.be_ordered
