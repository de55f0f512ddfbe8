"""Multiprocess experiment execution.

The figure sweeps are embarrassingly parallel over (algorithm,
x-value, seed) cells — each cell is one independent deterministic
simulation.  ``run_cells`` fans cells out over a process pool
(processes, not threads: the simulator is pure Python and CPU-bound,
so the GIL rules threads out — the standard HPC-Python trade-off).

Cells are described by picklable :class:`CellSpec` values rather than
:class:`~repro.workload.scenario.Scenario` objects (scenarios carry
callables); the worker reconstructs the scenario, runs it through the
unified :class:`repro.engine.Engine`, and ships back the
:class:`~repro.metrics.records.RunResult`.  Sequential and pooled
execution share that single construction path, so they are
bit-for-bit identical per (cell, seed).

A :class:`CellSpec` covers the full scenario matrix the sequential
sweeps can express — every :class:`~repro.net.delay.DelayModel`
(constant / uniform / exponential / jittered), burst size, cs-time
distribution, and ``algo_kwargs`` — and
:meth:`CellSpec.from_scenario` converts a scenario back into a spec,
raising :class:`UnrepresentableScenarioError` rather than silently
running a different experiment.

``run_cells`` optionally reads and writes a
:class:`~repro.experiments.cache.CellCache` (content-addressed by
:meth:`CellSpec.cache_key`), runs in cache-committed chunks so an
interrupted campaign resumes recomputing only missing cells, reports
progress/ETA, and accepts a ``shard=(index, count)`` filter so a
campaign can be split across independent processes or hosts that
share a cache directory.  See docs/campaigns.md.

``python -m repro.cli fig4 --parallel`` and ``python -m repro.cli
campaign`` use this path; the sequential path remains the default so
results stay reproducible on machines without fork semantics.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.metrics.records import RunResult

__all__ = [
    "CellSpec",
    "UnrepresentableScenarioError",
    "ProgressReporter",
    "RESULTS_EPOCH",
    "build_cs_time",
    "build_delay_model",
    "default_owner",
    "delay_model_spec",
    "normalize_cs_time_spec",
    "normalize_delay_spec",
    "normalize_fault_spec",
    "normalize_retx_spec",
    "run_cells",
    "parallel_burst_sweep",
    "parallel_lambda_sweep",
]


#: Simulation-behavior epoch, mixed into every cell cache key.  The
#: cache identifies a cell by its *spec*, not by the code that ran it;
#: a code change that alters simulation results (which the determinism
#: test suite makes loud) MUST bump this, or stale cells from the old
#: behavior would be served as if freshly computed.  Schema changes
#: are covered separately by :data:`repro.metrics.io.FORMAT_VERSION`.
RESULTS_EPOCH = 2


class UnrepresentableScenarioError(ValueError):
    """A scenario uses a component :class:`CellSpec` cannot encode.

    Raised by :meth:`CellSpec.from_scenario` (and the spec codecs) so
    a campaign never silently substitutes a different delay model,
    arrival process, or cs-time distribution for the one requested —
    the failure mode that previously downgraded every stochastic
    delay model to ``ConstantDelay``.
    """


# ----------------------------------------------------------------------
# spec <-> model codecs
# ----------------------------------------------------------------------
#: delay spec shapes accepted by :func:`build_delay_model`
_DELAY_KINDS = {
    "constant": 2,  # ("constant", delay)
    "uniform": 3,  # ("uniform", low, high)
    "exponential": 3,  # ("exponential", mean, minimum)
    "jittered": 3,  # ("jittered", base, jitter)
}

_CS_KINDS = {
    "constant": 2,  # ("constant", value)
    "uniform": 3,  # ("uniform", low, high)
    "exponential": 3,  # ("exponential", mean, minimum)
}


def _normalize_spec(spec, kinds, what: str) -> Tuple:
    """Validate a spec tuple; a bare number means constant."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return ("constant", float(spec))
    spec = tuple(spec)
    if not spec or spec[0] not in kinds:
        raise UnrepresentableScenarioError(
            f"unknown {what} spec kind {spec[:1]!r} "
            f"(expected one of {sorted(kinds)})"
        )
    if len(spec) != kinds[spec[0]]:
        raise UnrepresentableScenarioError(
            f"{what} spec {spec!r}: expected {kinds[spec[0]]} elements"
        )
    return (spec[0],) + tuple(float(v) for v in spec[1:])


def normalize_delay_spec(spec) -> Tuple:
    """Canonical delay spec tuple, or :class:`UnrepresentableScenarioError`."""
    return _normalize_spec(spec, _DELAY_KINDS, "delay")


def normalize_cs_time_spec(spec) -> Tuple:
    """Canonical cs-time spec tuple, or :class:`UnrepresentableScenarioError`."""
    return _normalize_spec(spec, _CS_KINDS, "cs_time")


def normalize_fault_spec(faults, n_nodes: Optional[int] = None) -> Tuple:
    """Canonical fault-spec tuple, or :class:`UnrepresentableScenarioError`.

    The grammar itself lives with the fabric
    (:func:`repro.net.faults.normalize_faults`); this wrapper maps its
    :class:`ValueError` onto the campaign layer's typed guard so an
    unknown fault kind — like an unknown delay or cs-time kind — can
    never silently run a different experiment.  With ``n_nodes``,
    partition groups and crash targets are range-checked too.
    """
    from repro.net.faults import normalize_faults

    try:
        return normalize_faults(faults, n_nodes=n_nodes)
    except UnrepresentableScenarioError:
        raise
    except ValueError as exc:
        raise UnrepresentableScenarioError(str(exc)) from None


def normalize_retx_spec(retx) -> Tuple:
    """Canonical retx spec tuple, or :class:`UnrepresentableScenarioError`.

    Like :func:`normalize_fault_spec`, the grammar lives with the
    transport (:func:`repro.net.retx.normalize_retx`); this wrapper
    maps its :class:`ValueError` — which names the bad field — onto
    the campaign layer's typed guard.
    """
    from repro.net.retx import normalize_retx

    try:
        return normalize_retx(retx)
    except UnrepresentableScenarioError:
        raise
    except ValueError as exc:
        raise UnrepresentableScenarioError(str(exc)) from None


def build_delay_model(spec):
    """Construct the :class:`~repro.net.delay.DelayModel` a spec names."""
    from repro.net.delay import (
        ConstantDelay,
        ExponentialDelay,
        JitteredDelay,
        UniformDelay,
    )

    kind, *params = _normalize_spec(spec, _DELAY_KINDS, "delay")
    if kind == "constant":
        return ConstantDelay(params[0])
    if kind == "uniform":
        return UniformDelay(params[0], params[1])
    if kind == "exponential":
        return ExponentialDelay(params[0], minimum=params[1])
    return JitteredDelay(params[0], params[1])


def delay_model_spec(model) -> Tuple:
    """Encode a delay model instance as a picklable spec tuple.

    The inverse of :func:`build_delay_model`; raises
    :class:`UnrepresentableScenarioError` for models carrying state a
    spec cannot capture (e.g. :class:`~repro.net.delay.MatrixDelay`
    or a jittered per-pair base).
    """
    from repro.net.delay import (
        ConstantDelay,
        ExponentialDelay,
        JitteredDelay,
        UniformDelay,
    )

    if model is None:
        return ("constant", 5.0)  # the Scenario/Network default Tn
    if type(model) is ConstantDelay:
        return ("constant", model.delay)
    if type(model) is UniformDelay:
        return ("uniform", model.low, model.high)
    if type(model) is ExponentialDelay:
        return ("exponential", model.mean_delay, model.minimum)
    if type(model) is JitteredDelay and not callable(model._base):
        return ("jittered", float(model._base), model.jitter)
    raise UnrepresentableScenarioError(
        f"delay model {model!r} cannot be encoded as a CellSpec "
        "(per-pair matrices and custom models are not picklable specs)"
    )


def build_cs_time(spec) -> Callable:
    """Construct the tagged cs-time callable a spec names."""
    from repro.workload.scenario import (
        constant_cs_time,
        exponential_cs_time,
        uniform_cs_time,
    )

    kind, *params = _normalize_spec(spec, _CS_KINDS, "cs_time")
    if kind == "constant":
        return constant_cs_time(params[0])
    if kind == "uniform":
        return uniform_cs_time(params[0], params[1])
    return exponential_cs_time(params[0], minimum=params[1])


def _cs_time_spec(fn) -> Tuple:
    """Read the spec tag the scenario cs-time factories attach."""
    spec = getattr(fn, "spec", None)
    if spec is None:
        raise UnrepresentableScenarioError(
            f"cs_time callable {fn!r} carries no spec tag; use the "
            "factories in repro.workload.scenario "
            "(constant/uniform/exponential_cs_time)"
        )
    return _normalize_spec(spec, _CS_KINDS, "cs_time")


def _workload_spec(arrivals, issue_deadline) -> Tuple:
    from repro.workload.arrivals import BurstArrivals, PoissonArrivals

    if type(arrivals) is BurstArrivals:
        if arrivals.start != 0.0:
            raise UnrepresentableScenarioError(
                "burst workloads with a delayed start are not encodable"
            )
        return ("burst", arrivals.requests_per_node)
    if type(arrivals) is PoissonArrivals:
        if issue_deadline is None:
            raise UnrepresentableScenarioError(
                "poisson scenarios need an issue_deadline (horizon)"
            )
        mean = arrivals.mean_interarrival
        # The spec stores the mean and build_scenario re-inverts it;
        # double float inversion is not exact for every rate, so a
        # rate whose mean does not invert back exactly would rebuild
        # an imperceptibly different process whose expovariate draws
        # diverge in the last ulp — breaking bit-for-bit parity.
        if 1.0 / mean != arrivals.rate:
            raise UnrepresentableScenarioError(
                f"poisson rate {arrivals.rate!r} has no exact "
                "mean-interarrival encoding; construct the process via "
                "PoissonArrivals.from_mean_interarrival"
            )
        return ("poisson", mean, float(issue_deadline))
    raise UnrepresentableScenarioError(
        f"arrival process {arrivals!r} cannot be encoded as a CellSpec"
    )


# ----------------------------------------------------------------------
# cell specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell, fully picklable.

    ``workload`` is ``("burst", requests_per_node)`` or
    ``("poisson", mean_interarrival, horizon)``.  ``cs_time`` and
    ``delay`` accept either a bare number (constant — the historical
    form) or a spec tuple naming the distribution:
    ``("constant", v)`` / ``("uniform", lo, hi)`` /
    ``("exponential", mean, minimum)`` and, for delays only,
    ``("jittered", base, jitter)``.  ``algo_kwargs`` must itself be
    picklable and hashable (dict items tuple; RCVConfig is a frozen
    dataclass — fine).

    ``faults`` is an adversarial-network spec per the grammar in
    :mod:`repro.net.faults` — a tuple of fault tuples such as
    ``(("drop", 0.02), ("reorder", 10.0))``; ``()`` is the clean
    fabric.  The normalized faults participate in :meth:`cache_key`,
    so a faulty cell and its clean twin can never alias in any cache
    backend.

    ``retx`` is the reliable-delivery spec ``("retx", rto, backoff,
    max_retries)`` per :func:`repro.net.retx.normalize_retx` (``()``
    disables it).  Like ``faults``, it participates in
    :meth:`cache_key`, so a retx cell can never alias its no-retx
    twin.
    """

    algorithm: str
    n_nodes: int
    seed: int
    workload: Tuple
    cs_time: Union[float, Tuple] = 10.0
    delay: Union[float, Tuple] = 5.0
    algo_kwargs: tuple = field(default=())  # dict items, hashable form
    faults: Tuple = ()
    retx: Tuple = ()

    # ------------------------------------------------------------------
    def normalized(self) -> "CellSpec":
        """Canonical form: bare numbers become constant-spec tuples,
        workload params become floats/ints, algo_kwargs sorted.  Two
        specs describing the same cell normalize identically, so they
        share one :meth:`cache_key`."""
        kind = self.workload[0]
        if kind == "burst":
            workload = ("burst", int(self.workload[1]))
        elif kind == "poisson":
            workload = (
                "poisson",
                float(self.workload[1]),
                float(self.workload[2]),
            )
        else:
            raise ValueError(f"unknown workload kind {kind!r}")
        return replace(
            self,
            workload=workload,
            cs_time=_normalize_spec(self.cs_time, _CS_KINDS, "cs_time"),
            delay=_normalize_spec(self.delay, _DELAY_KINDS, "delay"),
            algo_kwargs=tuple(sorted(self.algo_kwargs)),
            faults=normalize_fault_spec(self.faults, self.n_nodes),
            retx=normalize_retx_spec(self.retx),
        )

    def cache_key(self) -> str:
        """Content address of this cell (sha256 over the result-format
        version, :data:`RESULTS_EPOCH` and every normalized field
        value, in declaration order).

        The canon is derived from :func:`dataclasses.fields`, so a
        field added later joins the key with no list to edit.  Stable
        across processes and sessions: every field is a number,
        string, or tuple/frozen-dataclass thereof, whose reprs are
        deterministic (no ``PYTHONHASHSEED`` dependence).  Bumping
        :data:`repro.metrics.io.FORMAT_VERSION` (archive schema) or
        :data:`RESULTS_EPOCH` (simulation behavior) invalidates every
        cached cell, by construction.
        """
        import hashlib

        from repro.metrics.io import FORMAT_VERSION

        spec = self.normalized()
        canon = repr(
            (
                FORMAT_VERSION,
                RESULTS_EPOCH,
                *(getattr(spec, f.name) for f in fields(spec)),
            )
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def build_scenario(self):
        from repro.workload.arrivals import BurstArrivals, PoissonArrivals
        from repro.workload.scenario import Scenario

        kind = self.workload[0]
        if kind == "burst":
            arrivals = BurstArrivals(requests_per_node=int(self.workload[1]))
            issue_deadline = None
            drain_deadline = None
        elif kind == "poisson":
            mean, horizon = float(self.workload[1]), float(self.workload[2])
            arrivals = PoissonArrivals.from_mean_interarrival(mean)
            issue_deadline = horizon
            drain_deadline = horizon * 3
        else:
            raise ValueError(f"unknown workload kind {kind!r}")
        return Scenario(
            algorithm=self.algorithm,
            n_nodes=self.n_nodes,
            arrivals=arrivals,
            seed=self.seed,
            cs_time=build_cs_time(self.cs_time),
            delay_model=build_delay_model(self.delay),
            issue_deadline=issue_deadline,
            drain_deadline=drain_deadline,
            algo_kwargs=dict(self.algo_kwargs),
            faults=normalize_fault_spec(self.faults, self.n_nodes),
            retx=normalize_retx_spec(self.retx),
        )

    @classmethod
    def from_scenario(cls, scenario) -> "CellSpec":
        """Encode a scenario as a spec, or raise
        :class:`UnrepresentableScenarioError`.

        Round-trip contract: ``CellSpec.from_scenario(s)
        .build_scenario()`` produces a scenario that runs bit-for-bit
        identically to ``s`` (the parity tests pin this for every
        delay model and workload kind).
        """
        from repro.workload.scenario import Scenario as _Scenario

        if scenario.channel is not None:
            raise UnrepresentableScenarioError(
                "non-default channel disciplines are not encodable"
            )
        if scenario.max_events != _Scenario.max_events:
            raise UnrepresentableScenarioError(
                f"non-default max_events ({scenario.max_events}) is not "
                "encodable"
            )
        workload = _workload_spec(scenario.arrivals, scenario.issue_deadline)
        # build_scenario derives the deadlines from the workload alone
        # (burst: none; poisson: horizon and 3x horizon); any other
        # combination would silently rebuild a different experiment.
        if workload[0] == "burst":
            if scenario.issue_deadline is not None:
                raise UnrepresentableScenarioError(
                    "burst scenarios with an issue_deadline are not encodable"
                )
            if scenario.drain_deadline is not None:
                raise UnrepresentableScenarioError(
                    "burst scenarios with a drain_deadline are not encodable"
                )
        elif scenario.drain_deadline != scenario.issue_deadline * 3:
            raise UnrepresentableScenarioError(
                f"poisson drain_deadline {scenario.drain_deadline!r} is not "
                "the 3x-horizon convention build_scenario reproduces"
            )
        return cls(
            algorithm=scenario.algorithm,
            n_nodes=scenario.n_nodes,
            seed=scenario.seed,
            workload=workload,
            cs_time=_cs_time_spec(scenario.cs_time),
            delay=delay_model_spec(scenario.delay_model),
            algo_kwargs=tuple(sorted(scenario.algo_kwargs.items())),
            faults=scenario.faults,
            retx=scenario.retx,
        ).normalized()


def _run_cell(spec: CellSpec) -> RunResult:
    # One construction path for every pipeline: the unified engine.
    from repro.engine import run_scenario

    return run_scenario(spec.build_scenario())


def _run_cell_guarded(spec: CellSpec) -> Tuple[str, object]:
    """``("ok", result)`` or ``("error", traceback_text)``.

    The work-stealing scheduler's worker function: a cell that raises
    must be *attributed* (which cell, what error) so the campaign can
    retry and eventually quarantine it — an exception propagating out
    of a pool batch loses both.
    """
    import traceback

    try:
        return ("ok", _run_cell(spec))
    except Exception:
        return ("error", traceback.format_exc())


# ----------------------------------------------------------------------
# progress / ETA
# ----------------------------------------------------------------------
class ProgressReporter:
    """Throttled ``done/total (pct) elapsed ETA`` lines on a stream.

    Campaigns at N=200 spend seconds per cell; the reporter prints at
    most once per ``min_interval`` seconds (and always on the final
    cell) so progress is visible without drowning the terminal.

    The ETA extrapolates from **fresh** cells only (``step(...,
    fresh=False)`` marks cache-resumed cells): cached cells load at
    t≈0, and dividing total elapsed by a ``done`` count that includes
    them used to make a resumed campaign report a wildly optimistic
    ETA for the remainder, which is all fresh work.
    """

    def __init__(
        self,
        total: int,
        *,
        stream=None,
        min_interval: float = 1.0,
        clock=time.perf_counter,
    ):
        self.total = total
        self.done = 0
        #: cells actually simulated this run (ETA basis); cached loads
        #: are excluded
        self.fresh_done = 0
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._clock = clock
        self._start = clock()
        self._last_print = 0.0

    def step(self, count: int = 1, *, fresh: bool = True) -> None:
        self.done += count
        if fresh:
            self.fresh_done += count
        now = self._clock()
        if (
            now - self._last_print < self._min_interval
            and self.done < self.total
        ):
            return
        self._last_print = now
        elapsed = now - self._start
        if self.fresh_done and self.done < self.total:
            eta = elapsed / self.fresh_done * (self.total - self.done)
            eta_text = f" ETA {eta:,.0f}s"
        else:
            eta_text = ""
        pct = 100.0 * self.done / self.total if self.total else 100.0
        print(
            f"[campaign] {self.done}/{self.total} cells "
            f"({pct:.0f}%) in {elapsed:,.1f}s{eta_text}",
            file=self._stream,
            flush=True,
        )


def _chunks(seq: List[int], size: int):
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def default_owner() -> str:
    """Identity a work-stealing worker leases cells under."""
    import socket

    return f"{socket.gethostname()}:{os.getpid()}"


def run_cells(
    specs: Sequence[CellSpec],
    *,
    max_workers: Optional[int] = None,
    cache=None,
    chunk_size: Optional[int] = None,
    shard: Optional[Tuple[int, int]] = None,
    progress=None,
    steal: bool = False,
    owner: Optional[str] = None,
    lease_ttl: float = 60.0,
    poll_interval: float = 0.05,
    steal_timeout: Optional[float] = None,
    max_failures: int = 3,
) -> List[Optional[RunResult]]:
    """Run all cells, in parallel when more than one worker is useful.

    Results come back in spec order regardless of completion order, so
    parallel and sequential execution produce identical outputs (each
    cell is internally deterministic from its seed).

    ``cache`` (a :class:`~repro.experiments.cache.CellCache`, over any
    backend) makes the run resumable: cached cells are loaded instead
    of re-run, and fresh results are committed chunk by chunk, so an
    interrupted campaign loses at most the in-flight chunk.

    **Static sharding** — ``shard=(i, k)`` computes only cells whose
    index satisfies ``index % k == i`` (cells outside the shard still
    resolve from the cache when present, else stay ``None``); shards
    sharing a cache partition a campaign across processes or hosts.
    Only cells this worker may compute touch the cache hit/miss
    counters; out-of-shard cells are probed without counting.

    **Work stealing** — ``steal=True`` (requires ``cache``) replaces
    the static partition with lease-based claiming through the shared
    backend: each worker claims up to ``chunk_size`` pending cells at
    a time (``cache.claim(key, owner, lease_ttl)``), computes and
    commits them, and releases the leases.  Cells leased by a live
    peer are deferred and re-polled every ``poll_interval`` seconds —
    either the peer commits the cell (it is adopted from the cache)
    or its lease expires (a crashed peer) and the cell is re-claimed
    and recomputed here.  ``shard`` degrades to a *priority seed*:
    this worker claims its own shard's cells first, then steals the
    rest.  Leases on claimed-but-uncomputed cells are **renewed**
    while the worker chews through a chunk, so ``lease_ttl`` needs to
    cover one *cell*, not one chunk; a too-short ttl only duplicates
    deterministic work, never corrupts results.  ``steal_timeout``
    bounds how long the worker will go *without making progress*
    while foreign leases block it (None: wait as long as it takes).

    **Retry / quarantine** (stealing runs) — a cell whose computation
    *crashes* is not re-raised into the campaign: the failure (with
    traceback) is recorded in the shared backend, the lease released,
    and the cell retried — by this worker or any peer — until the
    campaign-wide failure count reaches ``max_failures``, at which
    point the cell is **quarantined**: backends refuse to lease it
    again, stealers skip it, and its slot in the result list stays
    ``None`` (``Campaign.run`` surfaces the case file in the summary;
    docs/operations.md covers triage).  Without quarantine, a
    deterministically-crashing cell would ping-pong between workers
    forever, each crash handing the lease to the next victim.  A
    stealing run therefore always terminates, and is complete
    whenever no cell exhausted its failure budget.

    ``progress`` is a :class:`ProgressReporter` (or ``True`` for a
    default one); steps fire per completed cell — cached/adopted
    cells step with ``fresh=False`` so the ETA tracks fresh
    throughput.
    """
    specs = list(specs)
    if shard is not None:
        index, count = shard
        if not (0 <= index < count):
            raise ValueError(f"shard index {index} not in [0, {count})")
    if steal:
        if cache is None:
            raise ValueError("steal=True requires a cache (shared backend)")
        if max_failures < 1:
            raise ValueError(
                f"max_failures must be >= 1, got {max_failures}"
            )
        owner = owner or default_owner()

    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[int] = []
    resolved = 0
    for i, spec in enumerate(specs):
        # A stealing worker may end up computing any cell; a static
        # shard only its own.  The hit/miss counters must describe
        # this worker's work, so out-of-shard cells resolve through
        # peek(), and under steal a pending cell is NOT a miss yet —
        # a peer may compute it; the miss is counted at claim time,
        # when this worker commits to doing the work itself.
        mine = steal or shard is None or i % shard[1] == shard[0]
        if cache is not None:
            if steal:
                cached = cache.adopt(spec)
            else:
                cached = cache.get(spec) if mine else cache.peek(spec)
            if cached is not None:
                results[i] = cached
                resolved += 1
                continue
        if mine:
            pending.append(i)
    if steal and shard is not None:
        # Compatibility: the static partition becomes a claim-priority
        # seed — own-shard cells first, the rest stolen afterwards.
        pending.sort(key=lambda i: (i % shard[1] != shard[0], i))

    if progress is True:
        # Size the reporter to the cells THIS run handles — under a
        # static shard that is far fewer than len(specs), and a total
        # of len(specs) would inflate the ETA by the shard count and
        # never reach 100%.
        progress = ProgressReporter(resolved + len(pending))
    if progress and resolved:
        progress.step(resolved, fresh=False)

    if not pending:
        return results

    if max_workers is None:
        max_workers = min(len(pending), os.cpu_count() or 1)
    if chunk_size is None:
        # Chunks bound the work lost to an interrupt while keeping
        # every worker busy between cache commits.  Without a cache
        # (or a progress reporter, which only steps at commit time)
        # there is nothing to commit, so the chunk barrier would only
        # idle pool workers at each boundary — run one batch.
        if cache is None and not progress:
            chunk_size = len(pending)
        else:
            chunk_size = max(1, 2 * max_workers)

    def _commit(indices, chunk_results):
        for i, result in zip(indices, chunk_results):
            results[i] = result
            if cache is not None:
                cache.put(specs[i], result)
            if progress:
                progress.step()

    def _run_claimed(run_map, claimed):
        """Compute one claimed chunk; returns indices to retry later.

        Results stream back cell by cell (``run_map`` is lazy), so
        commits land — and still-pending leases get renewed — while
        the rest of the chunk computes.  A crashed cell is attributed
        (``_run_cell_guarded``), logged to the shared backend, and
        retried or quarantined instead of aborting the worker.
        """
        retry: List[int] = []
        uncommitted = set(claimed)
        last_renew = time.monotonic()
        try:
            for i, (status, payload) in zip(
                claimed, run_map(_run_cell_guarded, claimed)
            ):
                if status == "ok":
                    _commit([i], [payload])
                else:
                    count = cache.record_failure(specs[i], owner, payload)
                    if count >= max_failures:
                        # The campaign-wide budget is spent: poison
                        # the cell so no stealer ever claims it again.
                        cache.quarantine(specs[i])
                        if progress:
                            progress.step(fresh=False)
                    else:
                        retry.append(i)
                cache.release(specs[i], owner)
                uncommitted.discard(i)
                now = time.monotonic()
                if uncommitted and now - last_renew > lease_ttl / 3.0:
                    # Heartbeat: this worker is alive and still owns
                    # the rest of the chunk — without it, a chunk
                    # longer than lease_ttl looks like a crash and
                    # peers duplicate the work.
                    for j in uncommitted:
                        cache.renew(specs[j], owner, lease_ttl)
                    last_renew = now
        finally:
            # On an exception mid-chunk (pool breakage, backend gone),
            # free the unfinished leases immediately so peers take the
            # cells over now instead of after lease_ttl.
            for i in uncommitted:
                cache.release(specs[i], owner)
        return retry

    def _steal_loop(run_map):
        # Stall clock: time since this worker last made progress
        # (claimed, adopted, or committed) — NOT since the loop
        # started, so long healthy runs never trip steal_timeout.
        last_progress = time.monotonic()
        backoff = poll_interval
        work = list(pending)
        missed: set = set()
        while work:
            claimed: List[int] = []
            deferred: List[int] = []
            adopted = 0
            for i in work:
                cached = cache.adopt(specs[i])
                if cached is not None:
                    # A peer committed it since our last look.
                    results[i] = cached
                    adopted += 1
                    if progress:
                        progress.step(fresh=False)
                    continue
                if len(claimed) < chunk_size:
                    if cache.claim(specs[i], owner, lease_ttl):
                        # Now it's this worker's cell to compute: the
                        # miss is real (and matches a later write).
                        # Once per cell — a crashed-then-retried cell
                        # is still one miss, not one per attempt.
                        if i not in missed:
                            cache.misses += 1
                            missed.add(i)
                        claimed.append(i)
                        continue
                    if cache.is_quarantined(specs[i]):
                        # Poisoned by repeated crashes (here or on a
                        # peer): drop it — the slot stays None and
                        # the campaign summary carries the case file.
                        if progress:
                            progress.step(fresh=False)
                        continue
                deferred.append(i)
            retry: List[int] = []
            if claimed:
                retry = _run_claimed(run_map, claimed)
            if claimed or adopted:
                last_progress = time.monotonic()
                backoff = poll_interval
            elif deferred:
                # Everything left is leased by live peers: wait for
                # them to commit or for their leases to expire,
                # backing off so a blocked worker does not hammer the
                # shared backend with fruitless probe/claim rounds.
                if (
                    steal_timeout is not None
                    and time.monotonic() - last_progress > steal_timeout
                ):
                    raise RuntimeError(
                        f"work-stealing run stalled: {len(deferred)} "
                        f"cells held by other workers for over "
                        f"{steal_timeout}s without progress"
                    )
                time.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
            work = deferred + retry

    def _execute(run_map):
        if steal:
            _steal_loop(run_map)
        else:
            for batch in _chunks(pending, chunk_size):
                _commit(batch, list(run_map(_run_cell, batch)))

    if max_workers <= 1 or len(pending) <= 1:
        _execute(lambda fn, batch: map(fn, (specs[i] for i in batch)))
        return results

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        # pool.map yields in submission order as results complete, so
        # the steal loop commits/renews incrementally mid-chunk.
        _execute(
            lambda fn, batch: pool.map(
                fn, [specs[i] for i in batch], chunksize=1
            )
        )
    return results


# ----------------------------------------------------------------------
# parallel variants of the figure sweeps
# ----------------------------------------------------------------------
def parallel_burst_sweep(
    n_values: Sequence[int],
    algorithms: Sequence[str],
    seeds: Sequence[int],
    *,
    requests_per_node: int = 1,
    cs_time: Union[float, Tuple] = 10.0,
    delay: Union[float, Tuple] = 5.0,
    algo_kwargs: tuple = (),
    faults: Tuple = (),
    retx: Tuple = (),
    max_workers: Optional[int] = None,
    cache=None,
) -> Dict[str, Dict[int, List[RunResult]]]:
    """Drop-in replacement for
    :func:`repro.experiments.figures.burst_sweep`.

    Takes the same workload parameters as the sequential sweep —
    ``requests_per_node``, ``cs_time``, ``delay_model`` (as a spec) —
    so the parallel twin of *any* sequential burst sweep exists
    (previously the burst size was hardcoded to 1, diverging from the
    ``requests_per_node=3`` runs in :mod:`repro.experiments.figures`).
    """
    specs = [
        CellSpec(
            algorithm=a,
            n_nodes=n,
            seed=s,
            workload=("burst", int(requests_per_node)),
            cs_time=cs_time,
            delay=delay,
            algo_kwargs=algo_kwargs,
            faults=faults,
            retx=retx,
        )
        for a in algorithms
        for n in n_values
        for s in seeds
    ]
    results = run_cells(specs, max_workers=max_workers, cache=cache)
    out: Dict[str, Dict[int, List[RunResult]]] = {
        a: {n: [] for n in n_values} for a in algorithms
    }
    for spec, result in zip(specs, results):
        out[spec.algorithm][spec.n_nodes].append(result)
    return out


def parallel_lambda_sweep(
    inv_lambdas: Sequence[float],
    algorithms: Sequence[str],
    n_nodes: int,
    seeds: Sequence[int],
    horizon: float,
    *,
    cs_time: Union[float, Tuple] = 10.0,
    delay: Union[float, Tuple] = 5.0,
    algo_kwargs: tuple = (),
    faults: Tuple = (),
    retx: Tuple = (),
    max_workers: Optional[int] = None,
    cache=None,
) -> Dict[str, Dict[float, List[RunResult]]]:
    """Drop-in replacement for
    :func:`repro.experiments.figures.lambda_sweep`."""
    specs = [
        CellSpec(
            algorithm=a,
            n_nodes=n_nodes,
            seed=s,
            workload=("poisson", float(v), horizon),
            cs_time=cs_time,
            delay=delay,
            algo_kwargs=algo_kwargs,
            faults=faults,
            retx=retx,
        )
        for a in algorithms
        for v in inv_lambdas
        for s in seeds
    ]
    results = run_cells(specs, max_workers=max_workers, cache=cache)
    out: Dict[str, Dict[float, List[RunResult]]] = {
        a: {float(v): [] for v in inv_lambdas} for a in algorithms
    }
    for spec, result in zip(specs, results):
        out[spec.algorithm][float(spec.workload[1])].append(result)
    return out
