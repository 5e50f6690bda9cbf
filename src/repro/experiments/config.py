"""Experiment profiles: paper-scale and reduced-scale parameters.

The paper's §5 experiments use 120 peers and the repeat-5-take-median
protocol.  Full-scale runs (minutes) are what ``python -m
repro.experiments.<figure>`` executes and what EXPERIMENTS.md records.
The tier-1 claim tests (``tests/test_experiments.py``) run the same
code at ``BENCH`` and ``BENCH_GRID``, the smallest scales at which
every qualitative shape the paper claims still holds.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ExperimentProfile:
    """Scale parameters shared by all experiments."""

    name: str
    population: int
    repeats: int
    max_rounds: int
    base_seed: int = 0

    def seeds(self):
        """The run seeds of this profile."""
        return range(self.base_seed, self.base_seed + self.repeats)


#: The paper's scale: 120 peers, 5 repeats (§5.1-§5.3).
PAPER = ExperimentProfile(name="paper", population=120, repeats=5, max_rounds=8000)

#: Claim-test scale: big enough that every qualitative shape holds.
BENCH = ExperimentProfile(name="bench", population=80, repeats=3, max_rounds=6000)

#: Claim-test scale for the wide grids (Fig. 3's 16 cells).
BENCH_GRID = ExperimentProfile(
    name="bench-grid", population=60, repeats=3, max_rounds=4000
)

#: Fig. 2 repeats more (it *is* a variance study).
FIG2_REPEATS = 20
