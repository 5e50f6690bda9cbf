"""Repairing random populations to meet the §3.3 sufficiency condition.

§4 of the paper: "Unless otherwise mentioned, we implicitly assume that the
nodes originally meet the sufficiency condition of existence of a LagOver."
A purely random draw (Rand, BiCorr, BiUnCorr) generally does *not* — e.g.
BiCorr can easily draw more latency-1 peers than the source has fanout —
so generated populations are repaired before use: while the condition
fails at some latency class ``l``, a random member of that class relaxes
its constraint by one unit (it moves to class ``l+1``).

This is the minimal relaxation that (a) terminates, because each step
strictly shrinks the violated class and capacity only accumulates
downstream, and (b) preserves the workload's character: fanouts, the
population size, and the constraints of all non-excess peers are
untouched.  The number of relaxations applied is reported so experiments
can sanity-check how far a generated workload drifted.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_left, insort
from typing import Dict, List, Tuple

from repro.core.constraints import NodeSpec
from repro.core.errors import ConfigurationError
from repro.workloads.base import NamedSpec


@dataclasses.dataclass(frozen=True)
class RepairReport:
    """How much a population was relaxed to satisfy sufficiency."""

    relaxations: int
    max_latency_after: int


def repair_population(
    source_fanout: int,
    population: List[NamedSpec],
    rng: random.Random,
    max_relaxations: int = 100_000,
) -> Tuple[List[NamedSpec], RepairReport]:
    """Relax latency constraints until the sufficiency condition holds.

    Returns the repaired population (a new list; the input is not
    modified) and a :class:`RepairReport`.
    """
    repaired = list(population)
    # Fail fast on populations no amount of relaxation can fix: latency
    # relaxation never creates capacity, so unless the source's slots
    # plus every member's fanout can seat everyone, the loop below would
    # relax its way down an ever-taller class ladder before running out
    # of seats (the service soak's property tests caught this on starved
    # per-feed fanout splits).
    seats = source_fanout + sum(spec.fanout for _, spec in repaired)
    if seats < len(repaired):
        raise ConfigurationError(
            f"population is unrepairable: {len(repaired)} members but only "
            f"{seats} seats (source fanout {source_fanout} + member "
            "fanouts); no latency relaxation can create capacity"
        )
    # The N_l classes as member indices in population order, with their
    # fanout sums.  One relaxation moves one index from class l to l+1,
    # so both are kept current and never regrouped; and since classes
    # stricter than l are untouched by it, the level pass of §3.3
    # resumes at l with the seats it had there.
    members: Dict[int, List[int]] = {}
    fanout: Dict[int, int] = {}
    for index, (_, spec) in enumerate(repaired):
        members.setdefault(spec.latency, []).append(index)
        fanout[spec.latency] = fanout.get(spec.latency, 0) + spec.fanout
    ladder = sorted(members)
    relaxations = 0
    available = source_fanout
    rung = 0
    while rung < len(ladder):
        latency = ladder[rung]
        group = members[latency]
        while len(group) > available:
            if available == 0:
                # Everyone here must move on, leaving no fanout behind:
                # every deeper class starts from zero seats as well.
                raise ConfigurationError(
                    f"sufficiency repair cannot terminate: no seat is left "
                    f"for the {len(group)} members of latency class "
                    f"{latency}, nor for any laxer class (the stricter "
                    "classes are full and offer no spare fanout)"
                )
            index = rng.choice(group)
            name, spec = repaired[index]
            repaired[index] = (
                name,
                NodeSpec(latency=latency + 1, fanout=spec.fanout),
            )
            del group[bisect_left(group, index)]
            if latency + 1 not in members:
                members[latency + 1] = []
                fanout[latency + 1] = 0
                ladder.insert(rung + 1, latency + 1)
            insort(members[latency + 1], index)
            fanout[latency] -= spec.fanout
            fanout[latency + 1] += spec.fanout
            relaxations += 1
            if relaxations > max_relaxations:
                raise ConfigurationError(
                    "sufficiency repair did not terminate; population has "
                    "pathological capacity (all fanouts zero?)"
                )
        available += fanout[latency] - len(group)
        rung += 1
    max_latency = max((spec.latency for _, spec in repaired), default=0)
    return repaired, RepairReport(
        relaxations=relaxations, max_latency_after=max_latency
    )
