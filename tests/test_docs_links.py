"""Documentation link check.

Every relative markdown link in the documentation set must resolve to
a real file (anchors are stripped; external http(s)/mailto links are
skipped), and every ``*.md`` file a Python source names must exist.
Run standalone by the CI docs step::

    PYTHONPATH=src python -m pytest tests/test_docs_links.py -q
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: the documentation set the link check covers
DOC_FILES = sorted(
    [
        *(REPO / "docs").glob("*.md"),
        REPO / "ARCHITECTURE.md",
        REPO / "EXPERIMENTS.md",
        REPO / "PAPER.md",
        REPO / "ROADMAP.md",
    ]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(path: Path):
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def test_doc_set_exists():
    assert (REPO / "docs" / "protocol.md").exists()
    assert (REPO / "docs" / "examples.md").exists()
    assert (REPO / "docs" / "campaigns.md").exists()
    assert (REPO / "docs" / "operations.md").exists()
    assert (REPO / "docs" / "README.md").exists()
    assert DOC_FILES, "documentation set is empty"


def test_docs_index_lists_every_docs_page():
    """docs/README.md is the index: a page added to docs/ without an
    index entry is invisible to readers."""
    index = (REPO / "docs" / "README.md").read_text(encoding="utf-8")
    for page in (REPO / "docs").glob("*.md"):
        if page.name == "README.md":
            continue
        assert f"({page.name})" in index, f"docs/README.md misses {page.name}"


def test_paper_md_has_title_and_abstract():
    """PAPER.md must carry the real paper title and a summary, not
    the empty seed block."""
    text = (REPO / "PAPER.md").read_text(encoding="utf-8")
    assert "Relative Consensus Voting" in text
    assert "## Summary" in text
    assert "## What this repository covers" in text


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for target in _relative_links(doc):
        resolved = (doc.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links {broken}"


#: Python sources whose docstrings and comments cite documentation
CODE_DIRS = ("src", "tests", "benchmarks")
#: ``*.md`` names the code writes rather than cites
_WRITTEN_MD = {"summary.md"}
_MD_NAME = re.compile(r"(?<![\w./-])([\w./-]+\.md)\b")


@pytest.mark.parametrize("top", CODE_DIRS)
def test_markdown_files_named_in_code_exist(top):
    """A cited document must exist at the repo root or under docs/."""
    missing = set()
    for path in (REPO / top).rglob("*.py"):
        for name in _MD_NAME.findall(path.read_text(encoding="utf-8")):
            if name in _WRITTEN_MD:
                continue
            if not any((base / name).exists() for base in (REPO, REPO / "docs")):
                missing.add(f"{path.relative_to(REPO)}: {name}")
    assert not missing, sorted(missing)
