"""Property-based tests for the RCV commit rule (Order procedure).

The central result pinned here: the paper's TP2-only commit test and
the conservative all-competitors test are *equivalent* over every
reachable vote configuration (docs/protocol.md, "Strict commit rule").
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.order import can_commit, rank_candidates, run_order
from repro.core.state import SystemInfo
from repro.core.tuples import ReqTuple


@st.composite
def vote_configurations(draw):
    """An SI with arbitrary fronts: each row empty or voting for one
    of up to N competing requests (one request per node, as the
    protocol guarantees)."""
    n = draw(st.integers(min_value=1, max_value=12))
    competitors = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0,
            max_size=n,
            unique=True,
        )
    )
    si = SystemInfo(n)
    if competitors:
        for i in range(n):
            choice = draw(
                st.one_of(st.none(), st.sampled_from(competitors))
            )
            if choice is not None:
                si.rows[i].mnl = [ReqTuple(choice, 1)]
    return si


@settings(max_examples=300, deadline=None)
@given(si=vote_configurations())
def test_paper_rule_equivalent_to_strict(si):
    ranked = rank_candidates(si)
    if not ranked:
        return
    unknown = si.empty_row_count()
    assert can_commit(ranked, si.n, unknown, "paper") == can_commit(
        ranked, si.n, unknown, "strict"
    )


@settings(max_examples=300, deadline=None)
@given(si=vote_configurations())
def test_commit_is_stable_under_unknown_votes(si):
    """Soundness of the threshold: if the leader commits, no
    assignment of the unknown votes to existing competitors can
    produce a strictly better-ranked tuple."""
    ranked = rank_candidates(si)
    if not ranked:
        return
    unknown = si.empty_row_count()
    if not can_commit(ranked, si.n, unknown, "strict"):
        return
    tp1, s1 = ranked[0]
    for tp, s in ranked[1:]:
        boosted = s + unknown  # adversary gives this tuple everything
        assert (boosted, -tp.node) < (s1, -tp1.node) or (
            boosted == s1 and tp1.node < tp.node
        )


@settings(max_examples=200, deadline=None)
@given(si=vote_configurations())
def test_run_order_commits_leaders_in_rank_order(si):
    before_votes = si.tally_votes()
    outcome = run_order(si, None, rule="strict")
    # Each committed tuple had the top rank at its commit instant;
    # verify the first one against the initial ranking.
    if outcome.newly_ordered:
        first = outcome.newly_ordered[0]
        best = max(before_votes.items(), key=lambda kv: (kv[1], -kv[0].node))
        assert first == best[0]
    # Committed tuples no longer appear in any MNL.
    for t in outcome.newly_ordered:
        assert all(t not in row.mnl for row in si.rows)
        assert t in si.nonl


@settings(max_examples=200, deadline=None)
@given(si=vote_configurations())
def test_order_terminates_and_is_idempotent(si):
    run_order(si, None, rule="strict")
    nonl_after = list(si.nonl)
    run_order(si, None, rule="strict")
    assert si.nonl == nonl_after  # nothing more to commit
