"""``docs/CLI.md`` stays in sync with the live argparse tree.

Both directions: every flag the parser accepts must be documented under
its command's heading, and every flag the document mentions must exist
in the parser — so a renamed or removed option fails the build until
the reference is updated, and a documented-but-fictional flag can never
ship.  The walk recurses through nested subparsers (``obs summarize``,
``obs report``), so new subcommands are covered the day
they are added.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from repro.cli import _build_parser

CLI_DOC = Path(__file__).resolve().parent.parent / "docs" / "CLI.md"

#: Flags argparse adds on its own; not worth a row in the reference.
_IMPLICIT = {"-h", "--help"}


def walk_parser(
    parser: argparse.ArgumentParser, path: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], Set[str]]]:
    """Yield ``(command_path, option_strings)`` for every subcommand."""
    flags: Set[str] = set()
    subparsers: List[argparse._SubParsersAction] = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subparsers.append(action)
        else:
            flags.update(
                flag for flag in action.option_strings
                if flag not in _IMPLICIT
            )
    if path:  # the root parser itself has no doc section
        yield path, flags
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from walk_parser(sub, path + (name,))


def parser_tree() -> Dict[Tuple[str, ...], Set[str]]:
    return dict(walk_parser(_build_parser()))


def documented_tree() -> Dict[Tuple[str, ...], Set[str]]:
    """``{command_path: backticked --flags}`` from docs/CLI.md headings."""
    sections: Dict[Tuple[str, ...], Set[str]] = {}
    current: Tuple[str, ...] | None = None
    in_fence = False
    for line in CLI_DOC.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        heading = re.match(r"^##\s+`repro\s+([a-z -]+)`\s*$", line)
        if heading:
            current = tuple(heading.group(1).split())
            sections[current] = set()
            continue
        if current is not None:
            sections[current].update(re.findall(r"`(--[a-z][\w-]*)`", line))
    return sections


class TestCliDocSync:
    def test_every_subcommand_has_a_section(self):
        documented = set(documented_tree())
        actual = set(parser_tree())
        # Pure group commands (bare `obs`) need no section
        # of their own as long as their leaves are documented.
        leaves = {
            path
            for path in actual
            if not any(other[: len(path)] == path for other in actual - {path})
        }
        missing = leaves - documented
        assert not missing, f"docs/CLI.md lacks a section for: {missing}"
        fictional = documented - actual
        assert not fictional, (
            f"docs/CLI.md documents nonexistent commands: {fictional}"
        )

    def test_every_parser_flag_is_documented(self):
        documented = documented_tree()
        for path, flags in parser_tree().items():
            if path not in documented:
                continue  # group commands, covered above
            missing = flags - documented[path]
            assert not missing, (
                f"docs/CLI.md section `repro {' '.join(path)}` is missing "
                f"flags: {sorted(missing)}"
            )

    def test_every_documented_flag_exists(self):
        actual = parser_tree()
        for path, flags in documented_tree().items():
            fictional = flags - actual.get(path, set())
            assert not fictional, (
                f"docs/CLI.md section `repro {' '.join(path)}` documents "
                f"flags the CLI does not accept: {sorted(fictional)}"
            )

    def test_doc_mentions_every_top_level_command(self):
        text = CLI_DOC.read_text(encoding="utf-8")
        for name in (
            "build",
            "sweep",
            "workload",
            "feasibility",
            "experiment",
            "serve-soak",
            "obs",
            "latency",
        ):
            assert f"repro {name}" in text, f"{name} absent from docs/CLI.md"
