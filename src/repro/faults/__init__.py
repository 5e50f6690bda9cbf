"""Fault injection: adversarial regimes beyond the paper's churn model.

Public surface:

* declarative plans — :class:`FaultPlan`, :class:`NullFaultPlan`, the
  spec types, and the CLI parser :func:`parse_fault_plan`;
* runtime — :class:`FaultInjector` (applies a plan to a run's
  :class:`Members`: one overlay, k path twins, or every subscribed feed)
  and :class:`FaultState` (the live conditions the protocol consults);
* :class:`FaultGatedOracle` — the decorator that degrades oracle
  answers during outage / stale-view / partition windows.

See ``docs/RESILIENCE.md`` for the taxonomy and recovery metrics.
"""

from repro.faults.injector import FaultInjector, Members
from repro.faults.oracle import FaultGatedOracle
from repro.faults.plan import (
    CrashNodes,
    FaultPlan,
    FaultSpec,
    MassCrash,
    NullFaultPlan,
    OracleOutage,
    SourceOutage,
    StaleOracleView,
    ViewPartition,
    parse_fault_plan,
)
from repro.faults.state import FaultState

__all__ = [
    "CrashNodes",
    "FaultGatedOracle",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultState",
    "MassCrash",
    "Members",
    "NullFaultPlan",
    "OracleOutage",
    "SourceOutage",
    "StaleOracleView",
    "ViewPartition",
    "parse_fault_plan",
]
