"""repro — Relative Consensus Voting distributed mutual exclusion.

A complete reproduction of Cao, Zhou, Chen & Wu, *"An Efficient
Distributed Mutual Exclusion Algorithm Based on Relative Consensus
Voting"* (IPDPS 2004): the RCV algorithm, the simulation testbed its
evaluation runs on, seven baseline algorithms, the paper's
experiments (Figures 4–7), and a real-time asyncio runtime.

Quick start (simulation)::

    from repro import Scenario, BurstArrivals, run_scenario

    result = run_scenario(
        Scenario(algorithm="rcv", n_nodes=10, arrivals=BurstArrivals())
    )
    print(result.nme, result.mean_response_time)

Quick start (real asyncio lock)::

    from repro.runtime import LocalCluster

    async with LocalCluster(5, algorithm="rcv") as cluster:
        async with cluster.lock(node_id=2):
            ...  # critical section

See ARCHITECTURE.md for the architecture, docs/protocol.md for the
protocol as implemented, and EXPERIMENTS.md for the paper-vs-measured
record.
"""

from repro.core import RCVConfig, RCVNode
from repro.engine import Engine
from repro.metrics import (
    MetricsCollector,
    MutualExclusionViolation,
    RunResult,
    SafetyMonitor,
)
from repro.mutex import Env, Hooks, MutexNode, NodeState, SimEnv
from repro.net import (
    ConstantDelay,
    ExponentialDelay,
    FifoChannel,
    JitteredDelay,
    MatrixDelay,
    Network,
    RawChannel,
    Topology,
    UniformDelay,
)
from repro.registry import algorithm_names, get_algorithm, register_algorithm
from repro.sim import RngRegistry, Simulator
from repro.workload import (
    BurstArrivals,
    PoissonArrivals,
    Scenario,
    TraceArrivals,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "BurstArrivals",
    "ConstantDelay",
    "Engine",
    "Env",
    "ExponentialDelay",
    "FifoChannel",
    "Hooks",
    "JitteredDelay",
    "MatrixDelay",
    "MetricsCollector",
    "MutexNode",
    "MutualExclusionViolation",
    "Network",
    "NodeState",
    "PoissonArrivals",
    "RCVConfig",
    "RCVNode",
    "RawChannel",
    "RngRegistry",
    "RunResult",
    "SafetyMonitor",
    "Scenario",
    "SimEnv",
    "Simulator",
    "Topology",
    "TraceArrivals",
    "UniformDelay",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "run_scenario",
    "__version__",
]
