"""Self-stabilization: convergence from *arbitrary* overlay states.

The simulator normally only visits states reachable by the protocol's
own moves.  This package widens the tested state space to adversarial
ones, in the tradition of self-stabilizing overlay networks (e.g.
Avatar, PAPERS.md): :mod:`repro.stabilize.corrupt` mangles a live
overlay — orphaned subtrees, parent cycles, latency-violating rewires,
stale chain-index columns, offline interior nodes — directly, and
:mod:`repro.stabilize.harness` runs the
legitimate local reset (:func:`~repro.stabilize.harness.sanitize`)
followed by ordinary protocol rounds until the overlay passes
``check_integrity()`` and every chain meets its latency constraint,
within an explicit round bound
(:func:`~repro.stabilize.harness.round_bound`).

The property suite in ``tests/test_stabilize.py`` asserts this for
greedy and hybrid across all four oracle realizations.
"""

from repro.stabilize.corrupt import (
    CORRUPTION_KINDS,
    corrupt_overlay,
)
from repro.stabilize.harness import (
    SanitizeReport,
    StabilizeOutcome,
    converge,
    round_bound,
    sanitize,
    stabilize,
)

__all__ = [
    "CORRUPTION_KINDS",
    "SanitizeReport",
    "StabilizeOutcome",
    "converge",
    "corrupt_overlay",
    "round_bound",
    "sanitize",
    "stabilize",
]
