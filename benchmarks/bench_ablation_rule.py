"""A-RULE — RCV commit-rule ablation (docs/protocol.md, "Strict commit rule").

The literal paper rule (runner-up only + sentinel) and the
conservative all-competitors rule are proven equivalent by the
property tests; this bench confirms the equivalence dynamically at
experiment scale — identical message counts and grant schedules —
and doubles as a regression guard should either implementation
drift.  Also ablated: merging IM snapshots into the receiver's SI
(the paper's lines 25–32 skip Exchange on IM; we default it on).
"""

from benchmarks.conftest import report
from repro.core import RCVConfig
from repro.experiments import render_rows
from repro.metrics import summarize
from repro.workload import BurstArrivals, PoissonArrivals, Scenario, run_scenario


def _runs(cfg, seeds=range(4)):
    return [
        run_scenario(
            Scenario(
                algorithm="rcv",
                n_nodes=24,
                arrivals=BurstArrivals(requests_per_node=2),
                seed=seed,
                algo_kwargs={"config": cfg},
            )
        )
        for seed in seeds
    ]


def _measure():
    rows = []
    variants = [
        ("paper rule", RCVConfig(rule="paper")),
        ("strict rule", RCVConfig(rule="strict")),
        ("no IM exchange", RCVConfig(exchange_on_im=False)),
    ]
    results = {}
    for label, cfg in variants:
        runs = _runs(cfg)
        results[label] = runs
        rows.append(
            {
                "variant": label,
                "NME": str(summarize(r.nme for r in runs)),
                "RT": str(summarize(r.mean_response_time for r in runs)),
                "messages": sum(r.messages_total for r in runs),
            }
        )
    return rows, results


def test_rule_ablation(benchmark):
    rows, results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report(render_rows(rows, title="RCV rule / IM-exchange ablation (N=24)"))
    # paper == strict exactly, per the equivalence result
    paper = results["paper rule"]
    strict = results["strict rule"]
    assert [r.messages_total for r in paper] == [
        r.messages_total for r in strict
    ]
    for a, b in zip(paper, strict):
        assert [(x.node_id, x.grant_time) for x in a.records] == [
            (x.node_id, x.grant_time) for x in b.records
        ]
