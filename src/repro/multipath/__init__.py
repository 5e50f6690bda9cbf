"""§7 extension: disjoint multipath delivery over multiple LagOvers."""

from repro.multipath.delivery import (
    DisjointDelayOracle,
    MultipathResult,
    MultipathSystem,
    ResilienceRow,
    delivery_under_failures,
)

__all__ = [
    "DisjointDelayOracle",
    "MultipathResult",
    "MultipathSystem",
    "ResilienceRow",
    "delivery_under_failures",
]
