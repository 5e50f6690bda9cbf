"""Runnable reproductions of the paper's evaluation (one module per figure).

Each module exposes ``run(...)`` returning plain data and a ``main()``
that prints the table; ``python -m repro.experiments.<name>`` runs full
scale.  The tier-1 claim tests in ``tests/test_experiments.py`` and
``tests/test_extensions_experiment.py`` run the same code at the
``BENCH``/``BENCH_GRID`` profiles and assert the qualitative shapes.

Every ``run(...)`` (and the shared :func:`run_repeats`) accepts an
``executor=`` from :mod:`repro.par`; the default is the serial
reference, and a process-pool executor produces bit-identical grids in
a fraction of the wall-clock (docs/PARALLEL.md).
"""

from repro.experiments.config import (
    BENCH,
    BENCH_GRID,
    FIG2_REPEATS,
    PAPER,
    ExperimentProfile,
)
from repro.experiments.runner import resolve_executor, run_repeats, run_single

__all__ = [
    "BENCH",
    "BENCH_GRID",
    "FIG2_REPEATS",
    "PAPER",
    "ExperimentProfile",
    "resolve_executor",
    "run_repeats",
    "run_single",
]
