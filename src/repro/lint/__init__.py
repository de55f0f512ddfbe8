"""``repro.lint`` — AST-based determinism & invariant linter.

The reproduction's guarantees (bit-for-bit replay, model-checker
fingerprints that cover all protocol state, a versioned wire
protocol) rest on conventions that no runtime test can see being
broken *by the next edit*: all randomness through named
``sim/rng.py`` streams, no wall-clock in the deterministic core,
every node attribute in the checker's canon tables.  This package turns those conventions into
machine-checked invariants.

Run it::

    PYTHONPATH=src python -m repro.lint            # human-readable
    PYTHONPATH=src python -m repro.lint --json     # machine-readable
    PYTHONPATH=src python -m repro.lint --list-rules

Exit status is non-zero when any finding survives pragma
suppression; CI gates on it.  The rule catalogue, the pragma grammar,
and how to add a rule live in docs/static-analysis.md.
"""

from repro.lint.context import LintContext, default_root
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, rule, rule_ids
from repro.lint.runner import LintReport, run_lint

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "all_rules",
    "default_root",
    "rule",
    "rule_ids",
    "run_lint",
]
