"""The docs surface stays link-clean (``tools/check_links.py``).

The checker itself is stdlib-only and lives outside the package, so it
is imported by path here; the same script runs as a CI step.
"""

from __future__ import annotations

import pytest

from tests.conftest import REPO_ROOT, load_tool


@pytest.fixture(scope="module")
def check_links_module():
    return load_tool("check_links")


class TestRepositoryLinks:
    def test_no_broken_links_in_docs_surface(self, check_links_module):
        errors = check_links_module.check_links(REPO_ROOT)
        assert errors == []

    def test_docs_surface_is_actually_scanned(self, check_links_module):
        files = {
            str(p.relative_to(REPO_ROOT))
            for p in check_links_module.collect_files(REPO_ROOT)
        }
        assert "README.md" in files
        assert "EXPERIMENTS.md" in files
        assert "docs/SPEED.md" in files
        assert "docs/CLI.md" in files


class TestCheckerMechanics:
    def test_broken_file_and_anchor_detected(self, check_links_module, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "A.md").write_text("# Real Heading\n")
        (tmp_path / "README.md").write_text(
            "# T\n"
            "[ok](docs/A.md) [missing](docs/nope.md)\n"
            "[anchor](docs/A.md#real-heading) [bad](docs/A.md#nope)\n"
            "[escape](../outside.md)\n"
        )
        errors = check_links_module.check_links(tmp_path)
        assert len(errors) == 3
        assert any("docs/nope.md" in e for e in errors)
        assert any("broken anchor" in e and "#nope" in e for e in errors)
        assert any("escapes the repository" in e for e in errors)

    def test_fenced_blocks_and_external_links_skipped(
        self, check_links_module, tmp_path
    ):
        (tmp_path / "README.md").write_text(
            "# T\n"
            "[ext](https://example.com/missing)\n"
            "```\n[fenced](nothing.md)\n```\n"
            "[self](#t)\n"
        )
        assert check_links_module.check_links(tmp_path) == []

    def test_github_slugs(self, check_links_module):
        slugify = check_links_module.slugify
        assert slugify("The regression gate") == "the-regression-gate"
        assert slugify("`repro obs report`") == "repro-obs-report"
        assert slugify("§7 future-work extensions (implemented)") == (
            "7-future-work-extensions-implemented"
        )
        assert slugify("Greedy vs Hybrid, BiCorr?") == (
            "greedy-vs-hybrid-bicorr"
        )

    def test_duplicate_headings_get_suffixes(
        self, check_links_module, tmp_path
    ):
        page = tmp_path / "page.md"
        page.write_text("# Same\n## Same\n")
        assert check_links_module.heading_slugs(page) == {"same", "same-1"}
