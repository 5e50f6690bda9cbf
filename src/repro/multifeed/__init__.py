"""§7 extension: multiple feeds over intersecting consumer populations."""

from repro.multifeed.reuse import ReuseDelayOracle, reuse_oracle_factory
from repro.multifeed.soak import (
    FeedSoakStats,
    FlashCrowd,
    MassExodus,
    Rejoin,
    ServiceSoak,
    SoakAct,
    SoakConfig,
    SoakSummary,
    parse_timeline,
    run_soak,
)
from repro.multifeed.system import (
    MultiFeedSystem,
    ReuseMetrics,
    Subscription,
)

__all__ = [
    "FeedSoakStats",
    "FlashCrowd",
    "MassExodus",
    "MultiFeedSystem",
    "Rejoin",
    "ReuseDelayOracle",
    "ReuseMetrics",
    "ServiceSoak",
    "SoakAct",
    "SoakConfig",
    "SoakSummary",
    "Subscription",
    "parse_timeline",
    "reuse_oracle_factory",
    "run_soak",
]
