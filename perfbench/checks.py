"""Output-correctness gate: digests, the exact-counter block, and the
bit-for-bit comparison against ``core.reference.full_snapshot_mode``.

Every gate failure raises :class:`GateMismatch`; ``run.py`` turns it
into a non-zero exit without printing a result.

Digests and reference outcomes are stored under ``.perfbench_cache/``
keyed by the source hash, so a later run of the same seed on the same
code compares against them (and a reference run is computed once per
cell, never skipped: a cached reference digest is still compared).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"

#: ``RunResult.extra`` prefixes of the exact-counter block
COUNTER_PREFIXES = ("exch_", "si_", "net_fault_", "net_retx_", "rm_")


class GateMismatch(RuntimeError):
    """A correctness gate failed: the run must not report numbers."""


def source_hash() -> str:
    """sha256 over the simulator and benchmark sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def behaviour(result) -> dict:
    """The simulated outputs of a run that any implementation of the
    protocol must reproduce: messages by kind, per-request grant and
    release times, sync delays, horizon and the protocol counters —
    everything except the representation-level ``si_*``/``exch_*``
    work counters (the reference computes those differently)."""
    from repro.metrics.io import result_to_dict

    data = result_to_dict(result)
    data["extra"] = {
        k: v
        for k, v in data["extra"].items()
        if not k.startswith(("si_", "exch_")) and k != "exchanges"
    }
    return data


def run_digest(result) -> str:
    """Digest of the full simulated output, work counters included."""
    from repro.metrics.io import result_to_dict

    return _sha(result_to_dict(result))


def check_digest(result) -> str:
    """Digest of a verification run's exploration counts."""
    return _sha(
        {
            "states": result.states,
            "transitions": result.transitions,
            "revisits": result.revisits,
            "sleep_skipped": result.sleep_skipped,
            "max_depth_seen": result.max_depth_seen,
            "complete": result.complete,
            "violations": [v.to_dict() for v in result.violations],
        }
    )


def exact_block(cells: Iterable, kind: str) -> dict:
    """The exact counters of one round, summed over its fresh cells:
    kernel events (where observable), messages by kind and every
    ``exch_*``/``si_*``/``net_fault_*``/``net_retx_*``/``rm_*``
    counter — or the exploration counts of a verification run."""
    block: Dict[str, int] = {}

    def add(key: str, value) -> None:
        block[key] = block.get(key, 0) + value

    for cell in cells:
        if not cell.fresh:
            continue
        out = cell.output
        if kind == "verify":
            for key in ("states", "transitions", "revisits", "sleep_skipped"):
                add(f"verify.{key}", getattr(out, key))
            continue
        if cell.events is not None:
            add("sim.events", cell.events)
        for msg_kind, count in out.messages_by_kind.items():
            add(f"messages.{msg_kind}", count)
        for key, value in out.extra.items():
            if key.startswith(COUNTER_PREFIXES) or key == "exchanges":
                add(key, value)
    return dict(sorted(block.items()))


def round_digest(cells: List, kind: str) -> str:
    """Digest of everything a round produced, in cell order."""
    per_cell = [
        (check_digest if kind == "verify" else run_digest)(c.output) for c in cells
    ]
    return _sha(per_cell)


# ----------------------------------------------------------------------
def _load(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _store(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, sort_keys=True))
    tmp.replace(path)


def check_repeats(workload: str, seed: int, src: str, digest: str, block: dict) -> str:
    """Compare a run's digest and exact block with the first run of the
    same workload, seed and sources; store them on that first run.
    Returns "stored" or "repeated"."""
    path = CACHE_DIR / "runs" / f"{workload}-s{seed}-{src[:16]}.json"
    current = {"digest": digest, "exact": block}
    previous = _load(path)
    if previous is None:
        _store(path, current)
        return "stored"
    if previous["digest"] != digest:
        raise GateMismatch(
            f"{workload} seed {seed}: simulated digest {digest[:12]} differs "
            f"from the first run's {previous['digest'][:12]}"
        )
    if previous["exact"] != block:
        moved = {
            k: (previous["exact"].get(k), block.get(k))
            for k in set(previous["exact"]) | set(block)
            if previous["exact"].get(k) != block.get(k)
        }
        raise GateMismatch(f"{workload} seed {seed}: exact counters moved: {moved}")
    return "repeated"


def check_reference(cells: list, rcv_cells: Dict[str, object], src: str) -> Dict[str, str]:
    """Every RCV cell against the same spec under ``full_snapshot_mode``.

    ``cells`` are a round's cells and ``rcv_cells`` maps the ids of
    its RCV cells to their CellSpecs.  Returns cell id -> "ran" or
    "cached" (a cached reference digest, computed earlier from the
    same sources and spec, is still compared).
    """
    from repro.core.reference import full_snapshot_mode
    from repro.engine import Engine

    outcome = {}
    for cell in cells:
        spec = rcv_cells.get(cell.cell_id)
        if spec is None or not cell.fresh:
            continue
        measured = _sha(behaviour(cell.output))
        path = CACHE_DIR / "reference" / f"{_sha([spec.cache_key(), src])}.json"
        stored = _load(path)
        if stored is None:
            with full_snapshot_mode():
                ref = Engine(spec.build_scenario()).run(require_completion=False)
            stored = {"behaviour": _sha(behaviour(ref))}
            if stored["behaviour"] == measured:
                _store(path, stored)
            outcome[cell.cell_id] = "ran"
        else:
            outcome[cell.cell_id] = "cached"
        if stored["behaviour"] != measured:
            raise GateMismatch(
                f"{cell.cell_id} ({spec.algorithm} N={spec.n_nodes} "
                f"seed={spec.seed} faults={spec.faults!r}): output differs "
                "from the full-snapshot reference"
            )
    if len(outcome) != len(rcv_cells):
        raise GateMismatch(
            f"reference covered {len(outcome)} of {len(rcv_cells)} RCV cells"
        )
    return outcome
