"""Self-checks of the benchmark's tracing, on small inputs (about a second).

Run either way, from the root of a checkout::

    python3 perfbench/selfcheck.py
    python3 -m pytest perfbench/selfcheck.py -q

For a simulation cell, a fault sweep and a verification run they
check that the traced run's self times plus its unattributed time sum
to the traced wall, that tracing leaves the output bit for bit
unchanged, and that every wrapper is removed afterwards.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _traced_matches_untraced(run_round, state, kind, expect_spans):
    plain = run_round(state)
    tr = tracer.Tracer()
    with tr.install():
        t0 = time.perf_counter()
        traced = run_round(state)
        wall = time.perf_counter() - t0
    assert tr.removed_cleanly()
    assert checks.round_digest(traced, kind) == checks.round_digest(plain, kind)
    layers = tracer.layer_metrics(tr, wall)
    total = layers["trace.attributed_s"] + layers["trace.unattributed_s"]
    assert abs(total - wall) <= 1e-6 * wall
    assert layers["trace.unattributed_s"] >= 0.0
    names = {span[1] for span in tr.spans}
    assert set(expect_spans) <= names, set(expect_spans) - names
    return tr, layers


def test_engine_cells_trace():
    from repro.experiments.parallel import CellSpec

    spec = CellSpec(algorithm="rcv", n_nodes=12, seed=3, workload=("burst", 2))
    tr, layers = _traced_matches_untraced(
        workloads._engine_round,
        workloads.EngineCells([spec], ["cell"]),
        "sim",
        [tracer.SIM_RUN, tracer.NET_SEND, tracer.NODE_MSG, tracer.EXCHANGE,
         tracer.ORDER, tracer.SNAPSHOT, tracer.ENGINE_BUILD, tracer.ENGINE_FINALIZE],
    )
    assert layers["net.fast_path_ratio"] == 1.0
    assert tr.events > 0
    assert tr.bytes_per_kind()["RM"] > 0


def test_fault_sweep_trace():
    from repro.experiments.parallel import CellSpec

    specs, names = [], []
    for algorithm in workloads.SWEEP_ALGORITHMS:
        for point, faults, retx in workloads._fault_points(8):
            specs.append(
                CellSpec(
                    algorithm=algorithm,
                    n_nodes=8,
                    seed=1,
                    workload=("burst", 2),
                    faults=faults,
                    retx=retx,
                )
            )
            names.append(f"{algorithm}/{point}")
    state = workloads.Sweep(specs, names)
    tr, layers = _traced_matches_untraced(
        workloads._sweep_round,
        state,
        "sim",
        [tracer.RUN_CELLS, tracer.BASELINE_MSG, tracer.NODE_MSG, tracer.NET_SEND],
    )
    assert state.cache.hits == len(specs) and state.cache.misses == len(specs)
    # Faulty channels take the general path, so not every send is fast.
    assert layers["net.fast_path_ratio"] < 1.0


def test_verify_trace():
    from repro.verify import check

    def run_round(_):
        return [workloads.Cell("check", 0.0, check("rcv", 2))]

    _traced_matches_untraced(
        run_round,
        None,
        "verify",
        [tracer.EXECUTE, tracer.CLONE, tracer.FINGERPRINT, tracer.EXCHANGE],
    )


def test_self_times_reject_escaping_child():
    spans = [(0, "a", 0.0, 1.0, -1, None), (1, "b", 0.5, 1.5, 0, None)]
    try:
        tracer.self_times(spans)
    except ValueError:
        return
    raise AssertionError("a child outside its parent was accepted")


def test_self_times_subtract_children():
    spans = [
        (1, "child", 0.2, 0.5, 0, None),
        (0, "parent", 0.0, 1.0, -1, None),
        (2, "top", 2.0, 3.0, -1, None),
    ]
    self_t, top = tracer.self_times(spans)
    assert abs(self_t[0] - 0.7) < 1e-12 and abs(top - 2.0) < 1e-12


def test_percentile_tail():
    p50, tail, pct = tracer.percentile_tail([float(i) for i in range(36)])
    assert (p50, tail) == (17.5, 25.0) and abs(pct - 100 * 26 / 36) < 1e-9
    assert tracer.percentile_tail([3.0, 1.0, 2.0]) == (2.0, 3.0, 100.0)
    # 22 samples: the percentile would be the median itself.
    assert tracer.percentile_tail([float(i) for i in range(22)])[1:] == (21.0, 100.0)
    assert tracer.percentile_tail([float(i) for i in range(23)])[1] == 12.0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
