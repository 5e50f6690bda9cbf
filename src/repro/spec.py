"""One run description: :class:`RunSpec` and :func:`run`.

Every seeded run — a construction (one overlay or ``k`` disjoint paths,
either clock, static or under churn, asynchrony and a fault plan) or a
multi-feed service soak — is one frozen :class:`RunSpec` plus a root
seed.  The CLI's ``build``, ``sweep`` and ``serve-soak``, the
:mod:`repro.par` sweep worker and the golden ledger all describe their
runs this way, and this module alone turns a description into engines:
:meth:`RunSpec.fault_plan` resolves ``ms`` fault windows (at the
profile's ``round_ms`` for a construction, at its ``pull_period_ms``
for a soak, whose round is one pull period); :func:`execute` sends
``paths > 1`` to :class:`~repro.multipath.delivery.MultipathSystem`;
and :meth:`RunSpec.config` applies the stop rule (``stop=auto``: stop
at the first converged round exactly when there is no fault plan, as
fault runs study the recovery).  Its engine configs,
:class:`~repro.sim.runner.SimulationConfig` and
:class:`~repro.multifeed.soak.SoakConfig`, stay the engine API, and
their constructors are the run-level validation.

**Text form**: ``;``-separated ``key=value`` pairs in field order,
defaults omitted, keys spelled as the CLI's flags.  Fault plans, soak
timelines and ``continuous:<profile>`` time models are embedded
verbatim in their own DSLs, which never use ``;``::

    >>> spec = RunSpec.parse("size=36;workload-seed=5;churn=1;rounds=120;stop=budget")
    >>> str(dataclasses.replace(spec, faults="crash@20:0.3:rejoin=10", stop="auto"))
    'size=36;workload-seed=5;churn=1;faults=crash@20:0.3:rejoin=10;rounds=120'

A spec with ``feeds`` is a soak.  Keys of the other run kind must keep
their defaults, so no setting is silently dropped.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.protocol import ProtocolConfig
from repro.faults.plan import FaultPlan, parse_fault_plan
from repro.locality.geo import get_profile
from repro.multifeed.soak import ServiceSoak, SoakConfig, parse_timeline
from repro.multipath.delivery import MultipathSystem
from repro.obs.probe import NULL_PROBE, Probe
from repro.sim.asynchrony import AsynchronyConfig
from repro.sim.churn import ChurnConfig
from repro.sim.runner import SimulationConfig, make_simulation
from repro.sim.timemodel import parse_time_model
from repro.workloads import family_names, load_workload, make, rand_workload
from repro.workloads.base import Workload

#: ``stop=``: ``auto`` stops at convergence iff there is no fault plan,
#: ``budget`` always runs the whole round budget.
STOP_RULES = ("auto", "budget")

#: Fields only a soak reads, and fields only a construction reads.
_SOAK_ONLY = frozenset(
    ("feeds", "timeline", "warmup", "publish_rate", "burst_size",
     "pull_period", "reuse_bias", "recover_threshold")
)
_CONSTRUCTION_ONLY = frozenset(
    ("workload", "workload_seed", "source_fanout", "max_latency", "min_fanout",
     "max_fanout", "workload_file", "algorithm", "oracle", "oracle_realization",
     "harden", "churn", "asynchrony", "paths", "stop")
)
#: ``rand_workload``'s budget arguments beyond the source fanout.
_RAND_BUDGETS = ("max_latency", "min_fanout", "max_fanout")


def _key(name: str) -> str:
    return name.replace("_", "-")


@contextlib.contextmanager
def _naming(key: str) -> Iterator[None]:
    """Re-raise a parse failure as a ConfigurationError naming ``key``."""
    try:
        yield
    except (ConfigurationError, ValueError) as error:
        raise ConfigurationError(f"{key}: {error}") from error


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything that determines one seeded run except the seed.

    Population: ``workload`` family, ``size``, ``workload_seed`` (the
    run seed when ``None``), ``source_fanout`` and ``Rand``'s budget
    arguments, or a ``workload_file`` saved by ``repro workload
    --save``.  A soak's population is ``size`` consumers over the
    comma-separated ``feeds``.  ``rounds`` is a construction's round
    limit and a soak's exact length.
    """

    workload: str = "Rand"
    size: int = 120
    workload_seed: Optional[int] = None
    source_fanout: int = 3
    max_latency: int = 10
    min_fanout: int = 1
    max_fanout: int = 8
    workload_file: Optional[str] = None
    feeds: Optional[str] = None
    algorithm: str = "hybrid"
    oracle: str = "random-delay"
    oracle_realization: str = "omniscient"
    harden: bool = False
    time_model: str = "rounds"
    churn: bool = False
    asynchrony: Optional[str] = None
    faults: Optional[str] = None
    timeline: Optional[str] = None
    warmup: int = 30
    publish_rate: float = 0.5
    burst_size: int = 4
    pull_period: float = 1.0
    reuse_bias: float = 0.8
    recover_threshold: float = 0.9
    paths: int = 1
    rounds: int = 6000
    stop: str = "auto"

    def __post_init__(self) -> None:
        kind = "soak" if self.is_soak else "construction"
        foreign = _CONSTRUCTION_ONLY if self.is_soak else _SOAK_ONLY
        for name, default in _DEFAULTS.items():
            value, key = getattr(self, name), _key(name)
            if name in foreign and value != default:
                raise ConfigurationError(f"{key}: does not apply to a {kind} run")
            if isinstance(value, str) and (";" in value or value != value.strip()):
                raise ConfigurationError(
                    f"{key}: {value!r} holds a ';' or surrounding blanks"
                )
        with _naming("workload"):
            if self.workload not in family_names():
                raise ValueError(f"unknown family {self.workload!r}")
            if self.workload != "Rand" and any(
                getattr(self, name) != _DEFAULTS[name] for name in _RAND_BUDGETS
            ):
                raise ValueError("budget arguments are Rand's alone")
        if self.stop not in STOP_RULES:
            raise ConfigurationError(f"stop: {self.stop!r} is not one of {STOP_RULES}")
        for key, dsl in (
            ("time-model", lambda: parse_time_model(self.time_model)),
            ("faults", self.fault_plan),
            ("timeline", self._timeline),
            ("asynchrony", self._asynchrony),
        ):
            with _naming(key):
                dsl()
        (self.soak_config if self.is_soak else self.config)(0)

    # ------------------------------------------------------------------
    # text form
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RunSpec":
        """The spec of ``text``; ``str(RunSpec.parse(t))`` is canonical."""
        names = {_key(name): name for name in _DEFAULTS}
        values = {}
        for item in text.split(";"):
            if not item.strip():
                continue
            key, sep, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not sep:
                raise ConfigurationError(f"{key}: expected key=value in {text!r}")
            if key not in names:
                raise ConfigurationError(f"{key}: unknown key in {text!r}")
            name = names[key]
            if name in values:
                raise ConfigurationError(f"{key}: repeated key in {text!r}")
            with _naming(key):
                values[name] = _convert(name, value)
        return cls(**values)

    def __str__(self) -> str:
        return ";".join(
            f"{_key(name)}={_render(getattr(self, name))}"
            for name, default in _DEFAULTS.items()
            if getattr(self, name) != default
        )

    # ------------------------------------------------------------------
    # what the spec builds
    # ------------------------------------------------------------------

    @property
    def is_soak(self) -> bool:
        return self.feeds is not None

    def fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan with ``ms`` windows in round ticks: the one
        place that resolves them."""
        if not self.faults:
            return None
        model = parse_time_model(self.time_model)
        ms_per_round = None
        if model.continuous:
            profile = get_profile(model.profile)
            # A soak round advances feed time by one pull period.
            ms_per_round = profile.pull_period_ms if self.is_soak else profile.round_ms
        return parse_fault_plan(self.faults, ms_per_round=ms_per_round)

    def _timeline(self):
        return parse_timeline(self.timeline) if self.timeline else ()

    def _asynchrony(self) -> Optional[AsynchronyConfig]:
        if self.asynchrony is None:
            return None
        low, high = self.asynchrony.split(":")
        return AsynchronyConfig(int(low), int(high))

    def make_workload(self, seed: int) -> Workload:
        """The construction's population at run seed ``seed``."""
        if self.workload_file is not None:
            return load_workload(self.workload_file)
        workload_seed = seed if self.workload_seed is None else self.workload_seed
        if self.workload != "Rand":
            return make(self.workload, self.size, workload_seed, self.source_fanout)
        budgets = {name: getattr(self, name) for name in _RAND_BUDGETS}
        return rand_workload(self.size, workload_seed, self.source_fanout, **budgets)[0]

    def config(self, seed: int, **observers) -> SimulationConfig:
        """The construction's engine config; ``observers`` (``health``,
        ``attribution``, ``probe``) pass through, as they never change
        an outcome."""
        faults = self.fault_plan()
        return SimulationConfig(
            algorithm=self.algorithm,
            oracle=self.oracle,
            oracle_realization=self.oracle_realization,
            protocol=ProtocolConfig(
                source_backoff=self.harden, requeue_stale_referrals=self.harden
            ),
            churn=ChurnConfig() if self.churn else None,
            faults=faults,
            asynchrony=self._asynchrony(),
            max_rounds=self.rounds,
            seed=seed,
            stop_at_convergence=self.stop == "auto" and faults is None,
            paths=self.paths,
            time_model=self.time_model,
            **observers,
        )

    def soak_config(self, seed: int) -> SoakConfig:
        """The soak's engine config."""
        return SoakConfig(
            feed_ids=tuple(f.strip() for f in self.feeds.split(",") if f.strip()),
            consumer_count=self.size,
            seed=seed,
            rounds=self.rounds,
            warmup_rounds=self.warmup,
            timeline=self._timeline(),
            faults=self.fault_plan(),
            pull_period=self.pull_period,
            publish_rate=self.publish_rate,
            burst_size=self.burst_size,
            reuse_bias=self.reuse_bias,
            recover_threshold=self.recover_threshold,
            time_model=self.time_model,
        )


#: Every field's default, in field (and text) order.
_DEFAULTS = {field.name: field.default for field in dataclasses.fields(RunSpec)}


def _convert(name: str, text: str):
    kind = int if name == "workload_seed" else type(_DEFAULTS[name])
    if kind is bool:
        if text not in ("0", "1"):
            raise ValueError(f"expected 0 or 1, got {text!r}")
        return text == "1"
    if kind in (int, float):
        return kind(text)
    return text


def _render(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


def execute(
    workload: Workload, config: SimulationConfig, probe: Optional[Probe] = None
) -> Tuple[object, object]:
    """Build and run one construction: ``(engine, result)``, a
    :class:`~repro.multipath.delivery.MultipathSystem` and its
    :class:`~repro.multipath.delivery.MultipathResult` for
    ``config.paths > 1``, else :func:`~repro.sim.runner.make_simulation`'s
    engine and its :class:`~repro.sim.runner.SimulationResult`."""
    if config.paths > 1:
        system = MultipathSystem(
            workload,
            paths=config.paths,
            seed=config.seed,
            protocol=config.protocol,
            algorithm=config.algorithm,
            faults=config.faults,
            probe=probe if probe is not None else config.probe,
            churn=config.churn,
        )
        system.run(
            max_rounds=config.max_rounds,
            stop_at_convergence=config.stop_at_convergence,
        )
        return system, system.result()
    simulation = make_simulation(workload, config, probe=probe)
    return simulation, simulation.run()


def run(spec: RunSpec, seed: int, probe: Optional[Probe] = None):
    """Run ``spec`` at root seed ``seed``: a
    :class:`~repro.sim.runner.SimulationResult`, a
    :class:`~repro.multipath.delivery.MultipathResult` (``paths > 1``)
    or a :class:`~repro.multifeed.soak.SoakSummary` (a soak)."""
    if spec.is_soak:
        return ServiceSoak(
            spec.soak_config(seed), probe if probe is not None else NULL_PROBE
        ).run()
    return execute(spec.make_workload(seed), spec.config(seed), probe)[1]
