"""Tests for RM forwarding policies (paper future work; docs/protocol.md,
"Forwarding policies")."""

import random

import pytest

from repro.core import RCVConfig
from repro.core.forwarding import (
    POLICIES,
    LeastInformedPolicy,
    MostInformedPolicy,
    RandomPolicy,
    SequentialPolicy,
    make_policy,
)
from repro.core.state import SystemInfo
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario


def si_with_row_ts(ts_by_node):
    si = SystemInfo(len(ts_by_node))
    for i, ts in enumerate(ts_by_node):
        si.row_ts[i] = ts
    return si


def test_registry_contains_all_policies():
    assert set(POLICIES) == {
        "random",
        "sequential",
        "least_informed",
        "most_informed",
    }


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown forwarding policy"):
        make_policy("teleport")


def test_sequential_picks_smallest():
    si = si_with_row_ts([0, 0, 0, 0])
    assert SequentialPolicy().choose(frozenset({3, 1, 2}), si, random.Random(0)) == 1


def test_random_draws_only_from_unvisited_and_is_seeded():
    si = si_with_row_ts([0] * 6)
    unvisited = frozenset({1, 3, 5})
    picks = {
        RandomPolicy().choose(unvisited, si, random.Random(s)) for s in range(40)
    }
    assert picks <= unvisited
    assert len(picks) > 1  # actually random
    # deterministic per rng state
    assert RandomPolicy().choose(unvisited, si, random.Random(7)) == RandomPolicy().choose(
        unvisited, si, random.Random(7)
    )


def test_least_informed_prefers_stalest_row():
    si = si_with_row_ts([9, 4, 7, 1])
    assert LeastInformedPolicy().choose(frozenset({1, 2, 3}), si, random.Random(0)) == 3


def test_most_informed_prefers_freshest_row():
    si = si_with_row_ts([9, 4, 7, 1])
    assert MostInformedPolicy().choose(frozenset({1, 2, 3}), si, random.Random(0)) == 2


def test_ties_break_by_node_id():
    si = si_with_row_ts([0, 5, 5, 5])
    assert LeastInformedPolicy().choose(frozenset({3, 2, 1}), si, random.Random(0)) == 1
    assert MostInformedPolicy().choose(frozenset({3, 2, 1}), si, random.Random(0)) == 1


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_is_safe_and_live(policy):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=10,
            arrivals=BurstArrivals(requests_per_node=2),
            seed=3,
            algo_kwargs={"config": RCVConfig(forwarding=policy)},
        )
    )
    assert result.completed_count == 20
    assert result.extra["nonl_inconsistencies"] == 0


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_under_poisson(policy):
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=8,
            arrivals=PoissonArrivals(rate=1 / 10.0),
            seed=1,
            issue_deadline=2_000,
            drain_deadline=8_000,
            algo_kwargs={"config": RCVConfig(forwarding=policy)},
        )
    )
    assert result.all_completed()


def test_exchange_on_im_ablation_still_correct():
    for flag in (True, False):
        result = run_scenario(
            Scenario(
                algorithm="rcv",
                n_nodes=10,
                arrivals=BurstArrivals(requests_per_node=2),
                seed=5,
                algo_kwargs={"config": RCVConfig(exchange_on_im=flag)},
            )
        )
        assert result.completed_count == 20
