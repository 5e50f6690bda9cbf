"""Declarative fault plans: *what* goes wrong, and *when*.

The paper stresses LagOver only with benign independent Bernoulli churn
(§5.3).  This module describes the adversarial regimes beyond it — the
disruption vocabulary that self-stabilizing-overlay evaluations (Berns,
arXiv:1506.01688) and gradient-topology convergence studies (Terelius et
al., arXiv:1103.5678) measure recovery against:

* :class:`MassCrash` / :class:`CrashNodes` — correlated simultaneous
  departures: *crashes* (peers vanish without a word) or *graceful
  leaves* (a leaver hands each child a referral to its own parent, the
  overlay analogue of connection draining), optionally followed by a
  mass rejoin burst ``rejoin_after`` rounds later;
* :class:`SourceOutage` — the feed source rejects every direct contact
  for a window of rounds (the paper's source is assumed perpetually
  reachable);
* :class:`OracleOutage` — the partner directory answers nothing at all;
* :class:`StaleOracleView` — the oracle serves an ``staleness``-rounds-old
  snapshot of the overlay, so its referrals may point at departed or
  already-full peers;
* :class:`ViewPartition` — the oracle only samples partners from the
  enquirer's own side of a membership split until the partition heals.

A :class:`FaultPlan` composes any number of these specs.  Everything
here is *declarative* and immutable — frozen dataclasses with value
equality, so a plan can sit inside the frozen
:class:`~repro.sim.runner.SimulationConfig` and two configs with equal
plans compare equal.  The runtime that applies a plan to a run's
overlays is :class:`repro.faults.injector.FaultInjector`; it draws every
random choice (crash victims, partition sides) from a dedicated
``"faults"`` RNG stream, so a :class:`NullFaultPlan` run is
bit-identical to a run with no plan at all.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, FrozenSet, Optional, Tuple

from repro.core.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """Base of all fault specs: the round the fault fires in."""

    #: Wire/CLI name of the spec type (class attribute, mirrors
    #: :attr:`repro.obs.events.Event.kind`).
    fault: ClassVar[str] = "abstract"

    round: int

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ConfigurationError(
                f"fault round must be >= 1, got {self.round}"
            )


def _require_duration(duration: int) -> None:
    if duration < 1:
        raise ConfigurationError(f"fault duration must be >= 1, got {duration}")


@dataclasses.dataclass(frozen=True)
class MassCrash(FaultSpec):
    """``fraction`` of the currently-online peers depart simultaneously.

    ``graceful=False`` (the default) is a *crash*: victims vanish without
    referral hints, exactly the information loss the chain-metadata
    piggy-backing of §2.1.3 cannot paper over.  ``graceful=True`` is a
    coordinated *leave*: each victim hands its children a referral to
    its own parent before going (the behaviour churn departures already
    exhibit).  With ``rejoin_after``, all victims come back online in one
    burst that many rounds later — the thundering-herd scenario the
    source-contact backoff is designed for.
    """

    fault = "mass-crash"

    fraction: float = 0.2
    graceful: bool = False
    rejoin_after: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"crash fraction must be in (0, 1], got {self.fraction}"
            )
        if self.rejoin_after is not None and self.rejoin_after < 1:
            raise ConfigurationError("rejoin_after must be >= 1 round")


@dataclasses.dataclass(frozen=True)
class CrashNodes(FaultSpec):
    """Crash (or gracefully remove) an explicit set of node ids.

    The deterministic sibling of :class:`MassCrash` — no RNG is consumed
    selecting victims, which makes it the right spec for regression
    tests and walkthrough examples.  An id is a consumer's node id in an
    overlay built from the run's starting population, i.e. its 1-based
    position in it, in every configuration (one overlay, k paths, a
    soak's feeds); an id naming no consumer is rejected when the
    injector is built.  Consumers already offline at injection time are
    skipped.
    """

    fault = "crash-nodes"

    node_ids: Tuple[int, ...] = ()
    graceful: bool = False
    rejoin_after: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node_ids:
            raise ConfigurationError("CrashNodes needs at least one node id")
        if self.rejoin_after is not None and self.rejoin_after < 1:
            raise ConfigurationError("rejoin_after must be >= 1 round")


@dataclasses.dataclass(frozen=True)
class SourceOutage(FaultSpec):
    """The source rejects all direct contacts for ``duration`` rounds."""

    fault = "source-outage"

    duration: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_duration(self.duration)


@dataclasses.dataclass(frozen=True)
class OracleOutage(FaultSpec):
    """The oracle answers no query at all for ``duration`` rounds."""

    fault = "oracle-outage"

    duration: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_duration(self.duration)


@dataclasses.dataclass(frozen=True)
class StaleOracleView(FaultSpec):
    """The oracle serves a ``staleness``-rounds-old overlay snapshot.

    For ``duration`` rounds every query is answered from the snapshot
    taken ``staleness`` rounds before the query — candidates are
    filtered on their *recorded* delay/capacity, so the answer may point
    at a peer that has since departed, filled up, or moved deeper.  The
    protocol's own interaction-time re-validation (and, when enabled,
    the stale-referral requeue) absorbs the damage; this spec measures
    how much damage there is.
    """

    fault = "stale-view"

    duration: int = 5
    staleness: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_duration(self.duration)
        if self.staleness < 1:
            raise ConfigurationError(
                f"staleness must be >= 1 round, got {self.staleness}"
            )


@dataclasses.dataclass(frozen=True)
class ViewPartition(FaultSpec):
    """The oracle's view splits into ``sides`` disjoint sides.

    Every consumer is assigned a side at injection time (from the
    dedicated faults RNG stream); until the partition heals after
    ``duration`` rounds the oracle only samples partners from the
    enquirer's own side.  Referrals and source contacts are *not*
    partitioned — the split models a directory/gossip view fracture, not
    a network-layer partition.
    """

    fault = "partition"

    duration: int = 10
    sides: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_duration(self.duration)
        if self.sides < 2:
            raise ConfigurationError(f"a partition needs >= 2 sides, got {self.sides}")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A composition of fault specs, applied by round order.

    Specs firing in the same round apply in the order given.  The empty
    plan is valid (and is exactly :class:`NullFaultPlan`).
    """

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(f"{spec!r} is not a FaultSpec")

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        """Convenience constructor: ``FaultPlan.of(MassCrash(round=50))``."""
        return cls(specs=tuple(specs))

    @property
    def empty(self) -> bool:
        return not self.specs

    def max_staleness(self) -> int:
        """Deepest snapshot history any stale-view spec needs (0 if none)."""
        return max(
            (s.staleness for s in self.specs if isinstance(s, StaleOracleView)),
            default=0,
        )

    def snapshot_rounds(self) -> FrozenSet[int]:
        """The rounds whose view a stale window can read: ``[w - H, w + d)``
        around every stale-view spec of round ``w`` and duration ``d``,
        with ``H`` = :meth:`max_staleness` (a query in round ``t`` reads
        round ``t - staleness``, or the oldest round kept)."""
        history = self.max_staleness()
        return frozenset(
            now
            for s in self.specs
            if isinstance(s, StaleOracleView)
            for now in range(max(1, s.round - history), s.round + s.duration)
        )


@dataclasses.dataclass(frozen=True)
class NullFaultPlan(FaultPlan):
    """The explicit no-faults plan.

    Installing it is guaranteed bit-identical to ``faults=None``: the
    injector runs but fires nothing and draws no randomness (pinned by
    the golden-seed guard in ``tests/test_faults.py``).
    """


def parse_fault_plan(
    text: str, ms_per_round: Optional[float] = None
) -> FaultPlan:
    """Parse the CLI mini-DSL into a :class:`FaultPlan`.

    Comma-separated specs, each ``name@round[:arg[:arg]]``::

        crash@60:0.2            # 20% of online peers crash at round 60
        crash@60:0.2:rejoin=15  # ... and all rejoin in a burst at round 75
        leave@60:0.2            # graceful mass leave (referral handoff)
        source-outage@80:10     # source rejects contacts rounds 80..89
        oracle-outage@80:10     # oracle answers nothing rounds 80..89
        stale-view@80:10:5      # oracle serves a 5-round-old view
        partition@80:20         # 2-way oracle view split, heals at 100
        partition@80:20:3       # 3-way split

    **Millisecond windows.**  Under a continuous time model
    (``--time-model continuous:<profile>``, see ``docs/TIMING.md``)
    every round/duration figure may instead carry an ``ms`` suffix —
    ``crash@6000ms:0.2:rejoin=1500ms`` or ``source-outage@8000ms:1000ms``
    — and is converted to round ticks with the profile's ``round_ms``
    (``ms_per_round``), rounding to the nearest tick with a one-tick
    floor.  An ``ms`` token without a continuous time model is a
    configuration error, since there is no wall clock to anchor it to.

    >>> parse_fault_plan("crash@60:0.2,source-outage@80:10").specs[0].fault
    'mass-crash'
    >>> parse_fault_plan("crash@6000ms:0.2", ms_per_round=100.0).specs[0].round
    60
    """
    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            name, _, rest = chunk.partition("@")
            args = rest.split(":") if rest else []
            specs.append(_parse_spec(name.strip(), args, ms_per_round))
        except (ValueError, IndexError) as error:
            raise ConfigurationError(
                f"cannot parse fault spec {chunk!r}: {error}"
            ) from None
    if not specs:
        raise ConfigurationError(f"no fault specs in {text!r}")
    return FaultPlan(specs=tuple(specs))


def _rounds(token: str, ms_per_round: Optional[float]) -> int:
    """A round count from a DSL token: plain rounds or ``<float>ms``."""
    token = token.strip()
    if token.endswith("ms"):
        if ms_per_round is None:
            raise ConfigurationError(
                f"fault window {token!r} is in milliseconds, but the run "
                "has no wall clock — ms windows need "
                "--time-model continuous:<profile>"
            )
        return max(1, round(float(token[:-2]) / ms_per_round))
    return int(token)


def _parse_spec(name: str, args, ms_per_round: Optional[float]) -> FaultSpec:
    round_ = _rounds(args[0], ms_per_round)
    if name in ("crash", "leave"):
        fraction = float(args[1]) if len(args) > 1 else 0.2
        rejoin = None
        for extra in args[2:]:
            key, _, value = extra.partition("=")
            if key != "rejoin":
                raise ValueError(f"unknown crash option {extra!r}")
            rejoin = _rounds(value, ms_per_round)
        return MassCrash(
            round=round_,
            fraction=fraction,
            graceful=(name == "leave"),
            rejoin_after=rejoin,
        )
    if name == "source-outage":
        return SourceOutage(
            round=round_, duration=_rounds(args[1], ms_per_round)
        )
    if name == "oracle-outage":
        return OracleOutage(
            round=round_, duration=_rounds(args[1], ms_per_round)
        )
    if name == "stale-view":
        return StaleOracleView(
            round=round_,
            duration=_rounds(args[1], ms_per_round),
            staleness=_rounds(args[2], ms_per_round),
        )
    if name == "partition":
        sides = int(args[2]) if len(args) > 2 else 2
        return ViewPartition(
            round=round_, duration=_rounds(args[1], ms_per_round), sides=sides
        )
    raise ValueError(f"unknown fault {name!r}")
