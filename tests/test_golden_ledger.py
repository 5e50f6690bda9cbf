"""The golden ledger (``tests/golden/ledger.json``) still holds.

Every entry is recomputed here from its scenario in
``tools/golden_ledger.py`` (imported by path, like the link checker), so
a change that moves a pinned seeded outcome fails tier-1.  The last test
checks the pin is sharp: one perturbed draw of the round-order kernel
moves the digest of a churned construction and of a sequentially built
multi-feed system.
"""

from __future__ import annotations

import sys

import pytest

import repro.multifeed.system  # noqa: F401 - binds the kernel step_feed calls
import repro.sim.rng
import repro.sim.runner  # noqa: F401 - binds the kernel the round sweep calls

from tests.conftest import load_tool

ledger_tool = load_tool("golden_ledger")
SCENARIOS = ledger_tool.scenarios()
RECORDED = ledger_tool.load()


def test_ledger_lists_exactly_the_scenarios():
    expected = {}
    for name, seed, _ in SCENARIOS:
        expected.setdefault(name, set()).add(str(seed))
    assert {name: set(seeds) for name, seeds in RECORDED.items()} == expected


def test_ledger_file_is_canonical():
    text = ledger_tool.LEDGER_PATH.read_text(encoding="utf-8")
    assert text == ledger_tool.render(RECORDED)


@pytest.mark.parametrize(
    "name,seed,run",
    SCENARIOS,
    ids=[f"{name}@{seed}" for name, seed, _ in SCENARIOS],
)
def test_entry(name, seed, run):
    assert ledger_tool.digest(run(seed)) == RECORDED[name][str(seed)]


def test_a_perturbed_draw_moves_a_digest(monkeypatch):
    """Swap the first two outputs of every round-order shuffle: the
    churned construction and the sequential multi-feed build must each
    hash differently."""
    shuffle = repro.sim.rng.shuffle

    def perturbed(rng, items):
        shuffle(rng, items)
        if len(items) > 1:
            items[0], items[1] = items[1], items[0]

    for module in list(sys.modules.values()):
        if getattr(module, "shuffle", None) is shuffle:
            monkeypatch.setattr(module, "shuffle", perturbed)
    for name in (
        "construction/churn/hybrid/random",
        "multifeed/run_sequential/reuse",
    ):
        (seed, run), = [(s, r) for n, s, r in SCENARIOS if n == name]
        assert ledger_tool.digest(run(seed)) != RECORDED[name][str(seed)], name
