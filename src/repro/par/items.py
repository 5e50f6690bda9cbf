"""Work items and outcomes of a parallel seed sweep.

A sweep is a list of :class:`SweepItem`\\ s — one `(family, config, seed)`
cell-repeat each — executed by a :mod:`repro.par.executor` backend and
returned as :class:`SweepOutcome`\\ s **in submission order**, never
completion order.  Items are frozen value objects so they pickle across
process boundaries and two equal sweeps describe bit-identical work.

The determinism contract: an item fully describes its run.  The worker
(serial or pooled) constructs the workload from ``(family, population,
workload_seed)`` — or from the item's ``recipe``, the
:class:`~repro.spec.RunSpec` a spec-described sweep carries, exactly as
:func:`repro.spec.run` does — and the simulation RNG streams from
``config.seed`` exactly as :func:`repro.experiments.runner.run_repeats`
always has, so *where* an item runs can never change *what* it computes
(pinned by ``tests/test_par.py``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.stats import MedianOfRuns
from repro.core.errors import ConfigurationError
from repro.sim.runner import SimulationConfig, SimulationResult

if TYPE_CHECKING:  # repro.spec imports the engines; the worker needs none
    from repro.spec import RunSpec


@dataclasses.dataclass(frozen=True)
class SweepItem:
    """One unit of sweep work: run ``family`` under ``config`` at ``seed``.

    ``workload_seed`` defaults to ``seed`` (the ``vary_workload=True``
    protocol); a fixed-draw sweep pins every item's ``workload_seed`` to
    the sweep's base seed instead, isolating protocol randomness as in
    Fig. 2.  ``config.seed`` is ignored — the worker applies
    ``config.with_(seed=seed)``, mirroring ``run_repeats``.

    ``recipe`` is the population recipe of a sweep described by a
    :class:`~repro.spec.RunSpec`: the worker then builds
    ``recipe.make_workload(workload_seed)``, ``Rand``'s budget
    arguments and source fanout included, instead of the family's
    default draw.  Its family and size must be the item's.
    """

    family: str
    config: SimulationConfig
    population: int
    seed: int
    workload_seed: Optional[int] = None
    recipe: Optional["RunSpec"] = None

    def __post_init__(self) -> None:
        if self.workload_seed is None:
            object.__setattr__(self, "workload_seed", self.seed)
        if self.recipe is not None and (self.recipe.workload, self.recipe.size) != (
            self.family,
            self.population,
        ):
            raise ConfigurationError(
                f"recipe {self.recipe} does not describe "
                f"{self.family} at n={self.population}"
            )

    def describe(self) -> str:
        """Compact identification used by failure reports and traces."""
        return (
            f"family={self.family} algorithm={self.config.algorithm} "
            f"oracle={self.config.oracle} seed={self.seed} "
            f"workload_seed={self.workload_seed} n={self.population}"
        )


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """The result of one :class:`SweepItem`, success or failure.

    Exactly one of ``result`` / ``error`` is set.  ``error`` is the
    worker-side exception rendered as ``"<type>: <message>"`` prefixed
    with the item description (so a failed seed always reports its
    family/seed/config); ``traceback`` carries the worker's full
    traceback text for debugging.  ``counters`` is the run's
    :meth:`~repro.obs.counters.MetricsRegistry.snapshot` when the sweep
    collected observability, ``health`` the run's flight-recorder
    samples (``HealthSample.to_dict`` form) when it collected the health
    timeseries, and ``trace_path`` the per-seed JSONL trace when one was
    written.
    """

    item: SweepItem
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    traceback: Optional[str] = dataclasses.field(default=None, repr=False)
    counters: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, repr=False
    )
    health: Optional[List[Dict[str, Any]]] = dataclasses.field(
        default=None, repr=False
    )
    trace_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def construction_rounds(self) -> Optional[int]:
        """The paper's per-run datum: rounds to convergence, ``None``
        for a non-converged *or failed* run (a crashed worker must count
        against its cell, never silently vanish from the median)."""
        if self.result is None or not self.result.converged:
            return None
        return self.result.construction_rounds


@dataclasses.dataclass(frozen=True)
class Task:
    """A generic fan-out unit: call ``fn(*args, **kwargs)`` in a worker.

    The escape hatch for harnesses whose work is not a seed-sweep item
    (benchmark A/B arms, mode comparisons).  ``fn`` must be a
    module-level callable and the arguments picklable for the pooled
    backend; outcomes are merged in submission order like items.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    label: str = ""

    def call(self) -> Any:
        return self.fn(*self.args, **dict(self.kwargs))

    def describe(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return self.label or name


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """The result of one :class:`Task`: ``value`` or ``error``."""

    label: str
    value: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = dataclasses.field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def repeat_items(
    family: str,
    config: SimulationConfig,
    population: int,
    repeats: int,
    base_seed: int = 0,
    vary_workload: bool = True,
    recipe: Optional["RunSpec"] = None,
) -> List[SweepItem]:
    """The items of one ``run_repeats`` cell, in seed order (each
    carrying ``recipe``, see :class:`SweepItem`)."""
    return [
        SweepItem(
            family=family,
            config=config,
            population=population,
            seed=base_seed + offset,
            workload_seed=(base_seed + offset) if vary_workload else base_seed,
            recipe=recipe,
        )
        for offset in range(repeats)
    ]


def median_of_outcomes(outcomes: List[SweepOutcome]) -> MedianOfRuns:
    """Fold one cell's outcomes into the paper's repeat-median statistic.

    Failed workers (``outcome.error``) count as non-converged runs: the
    cell is *marked failed* for that seed rather than the whole sweep
    aborting.
    """
    return MedianOfRuns(
        values=[outcome.construction_rounds for outcome in outcomes]
    )
