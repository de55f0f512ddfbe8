"""The benchmark's four workloads, built from a seed.

Every workload runs in this process on one thread through the public
entry points (``Engine``, ``experiments.parallel.run_cells``,
``repro.verify.check``).  A workload is measured in *rounds*; a round
runs one or more *cells* and returns their host times and outputs:

* a simulation cell is one ``Engine`` run and yields a ``RunResult``;
* a verification cell is one ``check("rcv", 3)`` call and yields a
  ``CheckResult``.

Defaults everywhere: ConstantDelay(5), Tc = 10 (simulated units).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: ("retx", rto, backoff, max_retries) under every fault point
RETX = ("retx", 5.0, 1.0, 100)
SWEEP_N = 50
SWEEP_ALGORITHMS = ("rcv", "ricart_agrawala", "maekawa")
SWEEP_SEEDS_PER_POINT = 2
#: the Poisson workload: N nodes with this mean think time and issue
#: deadline (simulated units)
POISSON_N = 100
POISSON_MEAN = 2000.0
POISSON_DEADLINE = 8000.0

#: ``check("rcv", 3)`` under the CI gate config (non-FIFO, BFS, sleep
#: sets) explores exactly this state space.
VERIFY_STATES = 11_334
VERIFY_TRANSITIONS = 14_093


def _fault_points(n: int) -> Tuple[Tuple[str, Tuple, Tuple], ...]:
    """(name, faults, retx) for each point of the fault sweep."""
    half, rest = tuple(range(n // 2)), tuple(range(n // 2, n))
    last = n - 1
    return (
        ("clean-bare", (), ()),
        ("clean-retx", (), RETX),
        ("drop5", (("drop", 0.05),), RETX),
        ("dup5-reorder25", (("dup", 0.05), ("reorder", 25.0)), RETX),
        ("partition-50-150", (("partition", ((50.0, 150.0, half, rest),)),), RETX),
        (
            "crash-recover",
            (("crash", ((last, 20.0),)), ("recover", ((last, 200.0),))),
            RETX,
        ),
    )


@dataclass
class Cell:
    """One cell of a round: its id, host seconds and output."""

    cell_id: str
    seconds: float
    output: object
    #: False for a cell a resumed campaign loaded from the cache
    fresh: bool = True
    #: kernel events executed, where the round can see its Engine
    events: Optional[int] = None


@dataclass
class Workload:
    name: str
    #: "sim" (RunResult outputs) or "verify" (CheckResult outputs)
    kind: str
    #: seed -> the state a round needs (specs, cache factory, model opts)
    setup: Callable[[int], object]
    #: state -> cells of one round
    run_round: Callable[[object], List[Cell]]
    #: state -> {cell id: CellSpec} of the RCV cells whose output must
    #: match ``core.reference.full_snapshot_mode`` bit for bit
    rcv_cells: Callable[[object], Dict[str, object]] = field(default=lambda s: {})


# ----------------------------------------------------------------------
# simulation workloads run straight through the Engine
# ----------------------------------------------------------------------
@dataclass
class EngineCells:
    """RCV cells each round runs through ``Engine``, one after another."""

    specs: list
    names: List[str]


def _engine_setup(make_specs):
    def setup(seed: int) -> EngineCells:
        from repro.engine import Engine

        state = make_specs(seed)
        # The first Engine: what a user pays before the first event.
        Engine(state.specs[0].build_scenario())
        return state

    return setup


def _engine_round(state: EngineCells) -> List[Cell]:
    from repro.engine import Engine

    cells = []
    for name, spec in zip(state.names, state.specs):
        t0 = time.perf_counter()
        engine = Engine(spec.build_scenario())
        result = engine.run(require_completion=False)
        seconds = time.perf_counter() - t0
        cells.append(Cell(name, seconds, result, events=engine.sim.events_run))
    return cells


def _engine_rcv_cells(state: EngineCells) -> Dict[str, object]:
    return dict(zip(state.names, state.specs))


def _burst_cells(seed: int) -> EngineCells:
    from repro.experiments.parallel import CellSpec

    spec = CellSpec(algorithm="rcv", n_nodes=200, seed=seed, workload=("burst", 1))
    return EngineCells([spec], [f"rcv/burst/s{seed}"])


def _poisson_cells(seed: int) -> EngineCells:
    from repro.experiments.parallel import CellSpec

    spec = CellSpec(
        algorithm="rcv",
        n_nodes=POISSON_N,
        seed=seed,
        workload=("poisson", POISSON_MEAN, POISSON_DEADLINE),
    )
    return EngineCells([spec], [f"rcv/poisson/s{seed}"])


# ----------------------------------------------------------------------
# fault sweep through the campaign layer
# ----------------------------------------------------------------------
@dataclass
class Sweep:
    specs: list
    names: List[str]
    #: the cache of the latest round (its hit/miss counters)
    cache: object = None


def _sweep_specs(seed: int) -> Sweep:
    from repro.experiments.parallel import CellSpec

    specs, names = [], []
    for algorithm in SWEEP_ALGORITHMS:
        for point, faults, retx in _fault_points(SWEEP_N):
            for k in range(SWEEP_SEEDS_PER_POINT):
                cell_seed = seed * SWEEP_SEEDS_PER_POINT + k
                specs.append(
                    CellSpec(
                        algorithm=algorithm,
                        n_nodes=SWEEP_N,
                        seed=cell_seed,
                        workload=("burst", 2),
                        faults=faults,
                        retx=retx,
                    )
                )
                names.append(f"{algorithm}/{point}/s{cell_seed}")
    return Sweep(specs, names)


def _sweep_cache():
    from repro.experiments.backends import MemoryBackend
    from repro.experiments.cache import CellCache

    return CellCache(backend=MemoryBackend())


def _sweep_setup(seed: int) -> Sweep:
    sweep = _sweep_specs(seed)
    _sweep_cache()
    return sweep


class _CellClock:
    """A ``run_cells`` progress sink that timestamps each fresh cell.

    With ``chunk_size=1`` every fresh cell is committed (cached, then
    stepped) on its own, so the gaps between steps are per-cell host
    seconds including the cache write.
    """

    def __init__(self) -> None:
        self.last = time.perf_counter()
        self.fresh: List[float] = []

    def step(self, count: int = 1, *, fresh: bool = True) -> None:
        now = time.perf_counter()
        if fresh:
            self.fresh.append(now - self.last)
        self.last = now


def _sweep_round(state: Sweep) -> List[Cell]:
    from repro.experiments import parallel

    cache = _sweep_cache()
    clock = _CellClock()
    results = parallel.run_cells(
        state.specs, max_workers=1, cache=cache, chunk_size=1, progress=clock
    )
    if len(clock.fresh) != len(state.specs):
        raise RuntimeError(
            f"sweep timed {len(clock.fresh)} fresh cells, expected "
            f"{len(state.specs)}"
        )
    cells = [
        Cell(name, seconds, result)
        for name, seconds, result in zip(state.names, clock.fresh, results)
    ]
    # A resumed campaign: the same grid again, every cell a cache hit.
    t0 = time.perf_counter()
    resumed = parallel.run_cells(state.specs, max_workers=1, cache=cache)
    resume_seconds = time.perf_counter() - t0
    cells += [
        Cell(name + "/resumed", resume_seconds / len(resumed), result, fresh=False)
        for name, result in zip(state.names, resumed)
    ]
    state.cache = cache
    return cells


def _sweep_rcv_cells(state: Sweep) -> Dict[str, object]:
    return {
        name: spec
        for name, spec in zip(state.names, state.specs)
        if spec.algorithm == "rcv"
    }


# ----------------------------------------------------------------------
# exhaustive verification
# ----------------------------------------------------------------------
def _verify_setup(seed: int) -> Dict:
    # The search is exhaustive: the seed selects nothing.
    from repro.verify.models import make_model

    make_model("rcv", 3)
    return {}


def _verify_round(state: Dict) -> List[Cell]:
    from repro.verify import check

    t0 = time.perf_counter()
    result = check("rcv", 3)
    return [Cell("check", time.perf_counter() - t0, result)]


#: the workloads by name; why each was chosen is in BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "burst-n200",
            "sim",
            _engine_setup(_burst_cells),
            _engine_round,
            _engine_rcv_cells,
        ),
        Workload(
            "poisson-n100",
            "sim",
            _engine_setup(_poisson_cells),
            _engine_round,
            _engine_rcv_cells,
        ),
        Workload(
            "fault-sweep-n50",
            "sim",
            _sweep_setup,
            _sweep_round,
            _sweep_rcv_cells,
        ),
        Workload(
            "verify-rcv-n3",
            "verify",
            _verify_setup,
            _verify_round,
        ),
    )
}


def verify_expected(result) -> Optional[str]:
    """None when a check reproduced the pinned exploration, else why not."""
    got = (result.states, result.transitions, result.complete, len(result.violations))
    want = (VERIFY_STATES, VERIFY_TRANSITIONS, True, 0)
    if got != want:
        return f"verify (states, transitions, complete, violations) = {got}, want {want}"
    return None
