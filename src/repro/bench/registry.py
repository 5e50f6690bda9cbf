"""The benchmark registry: named, tagged, typed-metric benchmarks.

A benchmark is a callable taking a :class:`BenchContext` and returning
either a plain ``{metric: value}`` mapping or a :class:`BenchResult`
(metrics plus an arbitrary ``detail`` payload and hard ``failures``).
Registration declares the benchmark's identity once::

    @register(
        "chain_index.churn",
        tags=("core", "index"),
        metrics={
            "rounds_per_sec": Metric(unit="rounds/s", tolerance=0.35),
            "satisfied_fraction": Metric(tolerance=0.0, deterministic=True),
        },
    )
    def chain_index_churn(ctx: BenchContext) -> BenchResult:
        ...

and everything else — the shared runner (warmup, repeats, median/IQR,
environment fingerprint, cProfile), history append, the ``repro bench``
CLI, and the regression gate — works off the registry entry.  The
:class:`Metric` declaration is what makes ``repro bench compare``
noise-aware: each metric carries its direction, its relative tolerance,
and whether it is deterministic (seeded simulation output, comparable
across machines) or a timing (only comparable between runs whose
environment fingerprints match).
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class Metric:
    """Declared shape of one benchmark metric.

    ``tolerance`` is the relative worsening of the *median* (against a
    baseline median) that ``repro bench compare`` still accepts as
    noise; strictly beyond it is a regression.  ``deterministic``
    metrics are seeded simulation outputs — bit-identical for identical
    code, so they gate even across machines; non-deterministic metrics
    (timings) gate only when the environment fingerprints match.
    """

    unit: str = ""
    higher_is_better: bool = True
    tolerance: float = 0.2
    deterministic: bool = False
    description: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "tolerance": self.tolerance,
            "deterministic": self.deterministic,
        }


@dataclasses.dataclass(frozen=True)
class BenchContext:
    """What the runner hands every benchmark callable.

    ``quick`` selects the CI smoke scale; ``workers`` is a parallelism
    hint (0 = serial).
    """

    quick: bool = False
    workers: int = 0


@dataclasses.dataclass
class BenchResult:
    """One benchmark invocation's outcome.

    ``metrics`` are the typed numbers the harness tracks; ``detail`` is
    the benchmark's free-form payload (kept verbatim in the record);
    ``failures`` are hard correctness failures (e.g. two seeded runs
    that diverge) that fail the run regardless of any threshold.
    """

    metrics: Dict[str, float]
    detail: Dict[str, object] = dataclasses.field(default_factory=dict)
    failures: Tuple[str, ...] = ()


#: What a benchmark callable may return.
BenchOutput = Union[BenchResult, Mapping[str, float]]


@dataclasses.dataclass(frozen=True)
class Benchmark:
    """A registry entry: the callable plus its declared identity."""

    name: str
    fn: Callable[[BenchContext], BenchOutput]
    tags: Tuple[str, ...] = ()
    metrics: Mapping[str, Metric] = dataclasses.field(default_factory=dict)
    repeats: int = 1
    warmup: int = 0
    description: str = ""

    def metric_spec(self, metric: str) -> Metric:
        """The declared spec, or the default for undeclared metrics.

        A declared name also covers dotted families under it: declaring
        ``rounds`` covers ``rounds.Rand`` and ``rounds.Rand.random`` —
        grid benchmarks emit one metric per cell without re-declaring
        the shared spec per cell.
        """
        if metric in self.metrics:
            return self.metrics[metric]
        best: Optional[str] = None
        for name in self.metrics:
            if metric.startswith(name + ".") and (
                best is None or len(name) > len(best)
            ):
                best = name
        return self.metrics[best] if best is not None else Metric()

    def __call__(self, context: BenchContext) -> BenchResult:
        """Invoke and normalize to a :class:`BenchResult`."""
        output = self.fn(context)
        if isinstance(output, BenchResult):
            return output
        return BenchResult(metrics=dict(output))


class BenchmarkRegistry:
    """Name → :class:`Benchmark`, with tag-based selection."""

    def __init__(self) -> None:
        self._benchmarks: Dict[str, Benchmark] = {}

    def register(
        self,
        name: str,
        *,
        tags: Sequence[str] = (),
        metrics: Optional[Mapping[str, Metric]] = None,
        repeats: int = 1,
        warmup: int = 0,
        description: str = "",
    ) -> Callable:
        """Decorator registering ``fn`` under ``name``."""

        def decorator(fn: Callable[[BenchContext], BenchOutput]):
            if name in self._benchmarks:
                raise ConfigurationError(
                    f"benchmark {name!r} is already registered"
                )
            doc = (fn.__doc__ or "").strip()
            self._benchmarks[name] = Benchmark(
                name=name,
                fn=fn,
                tags=tuple(tags),
                metrics=dict(metrics or {}),
                repeats=repeats,
                warmup=warmup,
                description=description
                or (doc.splitlines()[0].rstrip(".") if doc else ""),
            )
            return fn

        return decorator

    def get(self, name: str) -> Benchmark:
        try:
            return self._benchmarks[name]
        except KeyError:
            known = ", ".join(sorted(self._benchmarks)) or "(none)"
            raise ConfigurationError(
                f"unknown benchmark {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._benchmarks)

    def select(
        self,
        names: Sequence[str] = (),
        tags: Sequence[str] = (),
    ) -> List[Benchmark]:
        """Benchmarks matching any explicit name or any tag.

        With neither names nor tags, every registered benchmark is
        selected (registration order is normalized to name order so
        runs are reproducible).
        """
        if not names and not tags:
            return [self._benchmarks[name] for name in self.names()]
        selected: Dict[str, Benchmark] = {}
        for name in names:
            selected[name] = self.get(name)
        for tag in tags:
            for bench in self._benchmarks.values():
                if tag in bench.tags:
                    selected[bench.name] = bench
        return [selected[name] for name in sorted(selected)]

    def __contains__(self, name: str) -> bool:
        return name in self._benchmarks

    def __iter__(self) -> Iterator[Benchmark]:
        return iter(self._benchmarks.values())

    def __len__(self) -> int:
        return len(self._benchmarks)


#: The process-wide registry all built-in suites register into.
REGISTRY = BenchmarkRegistry()

#: Module-level decorator bound to :data:`REGISTRY`.
register = REGISTRY.register


def load_suites() -> BenchmarkRegistry:
    """Import the built-in suites (idempotent) and return the registry."""
    from repro.bench import suites  # noqa: F401 — import = registration

    return REGISTRY
