"""Shared fixtures and helpers for the LagOver test suite."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from repro.core.constraints import NodeSpec
from repro.core.tree import Overlay


REPO_ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    """Import ``tools/<name>.py`` by path (the tools live outside the
    package)."""
    module_spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def spec(latency: int, fanout: int) -> NodeSpec:
    """Terse NodeSpec constructor for tests."""
    return NodeSpec(latency=latency, fanout=fanout)


def build_chain(overlay: Overlay, *nodes):
    """Attach nodes into a chain under the source: first node <- source,
    second <- first, etc."""
    parent = overlay.source
    for node in nodes:
        overlay.attach(node, parent)
        parent = node


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def small_overlay() -> Overlay:
    """Source (fanout 2) plus four detached consumers a..d.

    a: l=1 f=2, b: l=3 f=2, c: l=3 f=1, d: l=2 f=0.
    """
    overlay = Overlay(source_fanout=2)
    overlay.add_consumer(spec(1, 2), name="a")
    overlay.add_consumer(spec(3, 2), name="b")
    overlay.add_consumer(spec(3, 1), name="c")
    overlay.add_consumer(spec(2, 0), name="d")
    return overlay


def by_name(overlay: Overlay, name: str):
    """Look up a consumer by its display name."""
    for node in overlay.consumers:
        if node.name == name:
            return node
    raise KeyError(name)
