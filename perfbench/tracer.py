"""Spans at each layer's public functions, recorded from outside.

:class:`Tracer` patches the layer entry points the same way
``core.reference.full_snapshot_mode`` patches
``repro.core.node.exchange``/``run_order``: before the Engine is built,
and restored afterwards.  Each call records a span — id, name, start,
end, parent span, cell id — in memory; :meth:`Tracer.write` writes
them out when the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover.

Besides spans the wrappers take a few counts where the work happens:
``schedule_fast`` calls made inside ``Network.send`` (the fast path),
``run_order`` outcomes, kernel events per ``Simulator.run``, and a
deterministic sample of sent messages whose pickled size is measured
after the traced region (pickling is the encoding ``runtime/tcp.py``
uses; doing it inside the spans would triple the N=200 cell).
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

#: sample every k-th message of each kind for its pickled size
BYTES_SAMPLE_EVERY = 16

# span names (the layer is the part before the last dot)
SIM_RUN = "sim.run"
NET_SEND = "net.send"
NODE_MSG = "core.node.on_message"
BASELINE_MSG = "baselines.on_message"
EXCHANGE = "core.exchange"
ORDER = "core.order"
SNAPSHOT = "core.state.snapshot"
PRUNE = "core.state.prune_done"
TALLY = "core.state.tally_votes"
ENGINE_BUILD = "engine.build"
ENGINE_FINALIZE = "engine.finalize"
RUN_CELLS = "experiments.run_cells"
EXECUTE = "verify.execute"
CLONE = "verify.clone"
FINGERPRINT = "verify.fingerprint"


class Tracer:
    """Installs the span wrappers; one instance per traced region."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id or -1, cell id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: the current cell: 0 before the first Engine, then counted
        #: up by each Engine construction
        self.cell = 0
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []
        self.fast_sends = 0
        self.ordered = 0
        self.events = 0
        self._kind_seen: Dict[str, int] = defaultdict(int)
        self._samples: List[Tuple[int, int, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.cell))
            if after is not None:
                after(args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        from repro.core import node as node_mod
        from repro.core.node import RCVNode
        from repro.core.state import SystemInfo
        from repro.engine.engine import Engine
        from repro.experiments import parallel
        from repro.net.network import Network
        from repro.registry import algorithm_names, get_algorithm
        from repro.sim.kernel import Simulator
        from repro.verify.world import World

        self._wrap(Simulator, "run", SIM_RUN, after=self._after_sim_run)
        self._wrap(Network, "send", NET_SEND, before=self._sample_send)
        self._count_fast_path(Simulator)
        self._wrap(RCVNode, "on_message", NODE_MSG)
        # on_message of every registered algorithm class (RCV and the
        # baselines), wrapped where each class defines it
        classes = [get_algorithm(name) for name in algorithm_names()]
        owners = {
            next(k for k in cls.__mro__ if "on_message" in k.__dict__)
            for cls in classes
            if isinstance(cls, type)
        }
        for owner in sorted(owners - {RCVNode}, key=lambda k: k.__qualname__):
            self._wrap(owner, "on_message", BASELINE_MSG)
        self._wrap(node_mod, "exchange", EXCHANGE)
        self._wrap(node_mod, "run_order", ORDER, after=self._after_order)
        self._wrap(SystemInfo, "snapshot", SNAPSHOT)
        self._wrap(SystemInfo, "prune_done", PRUNE)
        self._wrap(SystemInfo, "tally_votes", TALLY)
        self._wrap(Engine, "__init__", ENGINE_BUILD, before=self._next_cell)
        self._wrap(Engine, "_finalize", ENGINE_FINALIZE)
        self._wrap(parallel, "run_cells", RUN_CELLS)
        self._wrap(World, "execute", EXECUTE)
        self._wrap(World, "clone", CLONE)
        self._wrap(World, "fingerprint", FINGERPRINT)
        return self

    def _count_fast_path(self, simulator_cls) -> None:
        original = simulator_cls.__dict__["schedule_fast"]
        stack = self._stack

        @functools.wraps(original)
        def schedule_fast(*args, **kwargs):
            if stack and stack[-1][1] == NET_SEND:
                self.fast_sends += 1
            return original(*args, **kwargs)

        self._saved.append((simulator_cls, "schedule_fast", original))
        simulator_cls.schedule_fast = schedule_fast

    def _next_cell(self, args) -> None:
        self.cell += 1

    def _after_sim_run(self, args, result) -> None:
        self.events += args[0].events_run

    def _after_order(self, args, outcome) -> None:
        if outcome.be_ordered:
            self.ordered += 1

    def _sample_send(self, args) -> None:
        _, src, dst, message = args
        seen = self._kind_seen[message.kind]
        self._kind_seen[message.kind] = seen + 1
        if seen % BYTES_SAMPLE_EVERY == 0:
            self._samples.append((src, dst, message))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def removed_cleanly(self) -> bool:
        """True when every patched attribute is its original again."""
        for owner, attr, original in self._saved:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                return False
        return True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def bytes_per_kind(self) -> Dict[str, float]:
        """Mean pickled size of the sampled messages, by kind, plus
        ``"all"`` over every sample.  Runs outside any span."""
        sizes: Dict[str, List[int]] = defaultdict(list)
        for src, dst, message in self._samples:
            size = len(pickle.dumps((src, dst, message), protocol=pickle.HIGHEST_PROTOCOL))
            sizes[message.kind].append(size)
            sizes["all"].append(size)
        return {kind: sum(v) / len(v) for kind, v in sizes.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, cell in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, cell]) + "\n")


# ----------------------------------------------------------------------
def self_times(spans) -> Tuple[Dict[int, float], float]:
    """Per-span self time and the summed duration of top-level spans.

    Raises ValueError if a child span is not inside its parent's
    interval (the accounting would then double count).
    """
    by_id = {s[0]: s for s in spans}
    self_t = {s[0]: s[3] - s[2] for s in spans}
    top = 0.0
    for sid, _, start, end, parent, _ in spans:
        if parent == -1:
            top += end - start
            continue
        p = by_id[parent]
        if start < p[2] or end > p[3]:
            raise ValueError(f"span {sid} is not nested in its parent {parent}")
        self_t[parent] -= end - start
    return self_t, top


def percentile_tail(values: List[float]) -> Tuple[float, float, float]:
    """(median, tail, tail percentile).

    The tail is the highest percentile with at least ten samples above
    it.  With fewer than 23 samples that percentile is not above the
    median, so the slowest sample stands in (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    if n - 11 <= mid:
        return median, ordered[-1], 100.0
    return median, ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer span metrics of one traced region of ``wall`` seconds.

    Raises ValueError unless the spans nest, the top-level spans fit in
    the wall, and self times plus unattributed time equal the wall.
    """
    self_t, top = self_times(tracer.spans)
    by_name: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    exchange_us: List[float] = []
    for sid, name, start, end, _, _ in tracer.spans:
        by_name[name] += self_t[sid]
        calls[name] += 1
        if name == EXCHANGE:
            exchange_us.append((end - start) * 1e6)
    unattributed = wall - top
    attributed = sum(by_name.values())
    if unattributed < 0 or abs(attributed + unattributed - wall) > 1e-6 * max(wall, 1.0):
        raise ValueError(
            f"self times {attributed} + unattributed {unattributed} != wall {wall}"
        )
    p50, tail, _ = percentile_tail(exchange_us) if exchange_us else (0.0, 0.0, 0.0)
    sends = calls[NET_SEND]
    orders = calls[ORDER]
    return {
        "sim.self_s": by_name[SIM_RUN],
        "net.sends": sends,
        "net.send_s": by_name[NET_SEND],
        "net.fast_path_ratio": tracer.fast_sends / sends if sends else 0.0,
        "core.exchange.calls": calls[EXCHANGE],
        "core.exchange.self_s": by_name[EXCHANGE],
        "core.exchange.call_p50_us": p50,
        "core.exchange.call_tail_us": tail,
        "core.state.snapshot_s": by_name[SNAPSHOT],
        "core.state.prune_s": by_name[PRUNE],
        "core.state.tally_s": by_name[TALLY],
        "core.order.calls": orders,
        "core.order.self_s": by_name[ORDER],
        "core.order.ordered_ratio": tracer.ordered / orders if orders else 0.0,
        "core.node.messages": calls[NODE_MSG],
        "core.node.self_s": by_name[NODE_MSG],
        "baselines.messages": calls[BASELINE_MSG],
        "baselines.self_s": by_name[BASELINE_MSG],
        "engine.build_s": by_name[ENGINE_BUILD],
        "engine.finalize_s": by_name[ENGINE_FINALIZE],
        "experiments.overhead_s": by_name[RUN_CELLS],
        "verify.execute_s": by_name[EXECUTE],
        "verify.clone_s": by_name[CLONE],
        "verify.fingerprint_s": by_name[FINGERPRINT],
        "trace.unattributed_s": unattributed,
        "trace.attributed_s": attributed,
    }
