"""The repository benchmark: one named workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload burst-n200 --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
from untraced rounds, repeated until ``--seconds`` have passed.
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics (see ``tracer.py``).  Both arm the correctness gate
(``checks.py``): a mismatch exits 1 without printing a result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, and a run record
(provenance, exact counters, all metrics) is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: fresh processes timed for setup_s (the median is reported)
SETUP_PROBES = 5


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    (checking ``.git`` keeps git from reporting an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _provenance(seed: int, src: str) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_sha256": src,
        "seed": seed,
    }


def _setup_seconds(workload: str, seed: int) -> list:
    """Set-up time of ``SETUP_PROBES`` fresh processes, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _round(workload, state):
    """One round and its host seconds; a cell that raises
    IncompleteRunError (``run_cells`` requires completion) fails the
    gate."""
    from repro.workload.runner import IncompleteRunError

    t0 = time.perf_counter()
    try:
        cells = workload.run_round(state)
    except IncompleteRunError as exc:
        raise checks.GateMismatch(f"a cell did not complete: {exc}") from exc
    return cells, time.perf_counter() - t0


def _attempted_failed(workload, cells) -> tuple:
    """(issued requests, requests never completed); a verification
    round attempts one check and its gate covers the outcome."""
    if workload.kind == "verify":
        return len(cells), 0
    issued = failed = 0
    for cell in cells:
        if cell.fresh:
            issued += cell.output.issued_count
            failed += cell.output.issued_count - cell.output.completed_count
    return issued, failed


def _gate(workload, state, seed: int, src: str, rounds) -> dict:
    """Every correctness gate over the measured rounds; returns notes."""
    kind = workload.kind
    first = checks.round_digest(rounds[0], kind)
    for i, cells in enumerate(rounds[1:], 1):
        if checks.round_digest(cells, kind) != first:
            raise checks.GateMismatch(f"round {i} output differs from round 0")
    notes = {"digest": first}
    if kind == "verify":
        for cells in rounds:
            for cell in cells:
                why = workloads.verify_expected(cell.output)
                if why:
                    raise checks.GateMismatch(why)
    else:
        fresh = [c for c in rounds[0] if c.fresh]
        resumed = [c for c in rounds[0] if not c.fresh]
        # A resumed campaign must hand back exactly what it computed.
        for a, b in zip(fresh, resumed):
            if checks.run_digest(a.output) != checks.run_digest(b.output):
                raise checks.GateMismatch(f"cache round trip changed {a.cell_id}")
        notes["reference"] = checks.check_reference(
            rounds[0], workload.rcv_cells(state), src
        )
    notes["exact"] = checks.exact_block(rounds[0], kind)
    notes["repeat"] = checks.check_repeats(
        workload.name, seed, src, first, notes["exact"]
    )
    return notes


def _sim_summary(cells) -> dict:
    """The paper's quantities over a round's fresh cells."""
    messages = completed = 0
    response = []
    for cell in cells:
        if not cell.fresh:
            continue
        result = cell.output
        messages += result.messages_total
        completed += result.completed_count
        response += [r.response_time for r in result.records if r.completed]
    return {
        "cs": completed,
        "nme": messages / completed if completed else float("nan"),
        "response_time": sum(response) / len(response) if response else float("nan"),
    }


# ----------------------------------------------------------------------
def untraced(workload, seed: int, seconds: float, src: str):
    state = workload.setup(seed)
    setup = _setup_seconds(workload.name, seed)
    rounds, walls = [], []
    while not walls or sum(walls) < seconds:
        cells, wall = _round(workload, state)
        rounds.append(cells)
        walls.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = _gate(workload, state, seed, src, rounds)
    notes["setup_samples_s"] = setup

    wall = sum(walls)
    fresh = [c.seconds for cells in rounds for c in cells if c.fresh]
    p50, tail, tail_pct = tracer.percentile_tail(fresh)
    attempted = failed = 0
    for cells in rounds:
        a, f = _attempted_failed(workload, cells)
        attempted += a
        failed += f
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cells_per_s": (len(fresh) / wall, "1/s"),
        "cell_p50_s": (p50, "s"),
        "cell_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "cell_tail_percentile": (tail_pct, "%"),
        "cells": (len(fresh), "count"),
        "rounds": (len(rounds), "count"),
        "timed_s": (wall, "s"),
        "fail_rate": (failed / attempted if attempted else 0.0, "ratio"),
    }
    if workload.kind == "sim":
        summary = _sim_summary(rounds[0])
        detail["cs_per_s"] = (summary["cs"] * len(rounds) / wall, "1/s")
        detail["nme"] = (summary["nme"], "msg/cs")
        detail["response_time"] = (summary["response_time"], "sim")
    else:
        states = rounds[0][0].output.states
        detail["states_per_s"] = (states * len(rounds) / wall, "1/s")
    return metrics, detail, attempted, failed, notes


def traced(workload, seed: int, seconds: float, src: str):
    """One untraced round, then the same round traced."""
    state = workload.setup(seed)
    plain, plain_wall = _round(workload, state)

    tr = tracer.Tracer()
    with tr.install():
        cells, wall = _round(workload, state)
    if not tr.removed_cleanly():
        raise checks.GateMismatch("trace wrappers were not fully removed")
    if checks.round_digest(cells, workload.kind) != checks.round_digest(
        plain, workload.kind
    ):
        raise checks.GateMismatch("traced output differs from the untraced output")
    try:
        layers = tracer.layer_metrics(tr, wall)
    except ValueError as exc:
        raise checks.GateMismatch(f"trace accounting: {exc}") from exc
    sizes = tr.bytes_per_kind()
    notes = _gate(workload, state, seed, src, [cells])
    if workload.kind == "sim":
        # The sweep's Engines are out of reach untraced; the tracer
        # counts their events, which must agree where both exist.
        if notes["exact"].setdefault("sim.events", tr.events) != tr.events:
            raise checks.GateMismatch("traced kernel event count differs")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tr.write(OUT_DIR / f"spans-{workload.name}-s{seed}.jsonl")

    exact = notes["exact"]

    def x(key):
        return exact.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    merged, skipped = x("exch_rows_merged"), x("exch_rows_skipped")
    sends, retx = layers["net.sends"], x("net_retx_retransmits")
    prunes = x("si_prunes_run") + x("si_prunes_skipped")
    fronts = x("si_fronts_reconciled") + x("si_fronts_rebuilt")
    cache = getattr(state, "cache", None)
    check = cells[0].output if workload.kind == "verify" else None
    values = dict(layers)
    values.update(
        {
            "sim.events": x("sim.events"),
            "net.bytes_per_msg": sizes.get("all", 0.0),
            "net.bytes_per_msg.RM": sizes.get("RM", 0.0),
            "net.bytes_per_msg.EM": sizes.get("EM", 0.0),
            "net.bytes_per_msg.IM": sizes.get("IM", 0.0),
            "net.fault_drops": x("net_fault_drops"),
            "net.fault_dups": x("net_fault_dups"),
            "net.retx_retransmits": retx,
            "net.retx_giveups": x("net_retx_giveups"),
            "net.retx_useful_ratio": ratio(sends, sends + retx),
            "core.exchange.rows_merged": merged,
            "core.exchange.rows_skipped": skipped,
            "core.exchange.merge_ratio": ratio(merged, merged + skipped),
            "core.state.snapshots": x("si_snapshots"),
            "core.state.cow_clones": x("si_cow_clones"),
            "core.state.prune_run_ratio": ratio(x("si_prunes_run"), prunes),
            "core.state.fronts_reconciled_ratio": ratio(
                x("si_fronts_reconciled"), fronts
            ),
            "core.node.rm_forwarded": x("rm_forwarded"),
            "core.node.rm_parked": x("rm_parked"),
            "core.node.rm_relaunched": x("rm_relaunched"),
            "experiments.cells": cache.misses + cache.hits if cache else 0,
            "experiments.cache_hits": cache.hits if cache else 0,
            "experiments.cache_misses": cache.misses if cache else 0,
            "verify.states": check.states if check else 0,
            "verify.transitions": check.transitions if check else 0,
            "verify.revisit_ratio": (
                ratio(check.revisits, check.transitions) if check else 0.0
            ),
            "trace.overhead_ratio": wall / plain_wall,
        }
    )
    attempted, failed = _attempted_failed(workload, cells)
    detail = {
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.attributed_s": (layers["trace.attributed_s"], "s"),
        "trace.spans": (len(tr.spans), "count"),
    }
    for kind, size in sorted(sizes.items()):
        detail[f"net.bytes_per_msg[{kind}]"] = (size, "B")
    return values, detail, attempted, failed, notes


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workload = workloads.WORKLOADS[args.workload]
    src = checks.source_hash()
    provenance = _provenance(args.seed, src)
    try:
        values, detail, attempted, failed, notes = (traced if args.trace else untraced)(
            workload, args.seed, args.seconds, src
        )
    except checks.GateMismatch as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    else:
        metrics = values
        if set(metrics) != {m["name"] for m in listed}:
            print(f"perfbench: metrics {sorted(metrics)} != BENCHMARK.json", file=sys.stderr)
            return 1

    print(
        f"# {workload.name} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in provenance.items())
    )
    for name, (value, unit) in list(metrics.items()) + list(detail.items()):
        print(f"{name} = {value!r} {unit}")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance,
        "metrics": as_json,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "attempted": attempted,
        "failed": failed,
        "gate": notes,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"run-{workload.name}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": as_json}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
