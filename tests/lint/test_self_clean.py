"""The tree lints its own source: replint over ``src/repro`` is clean.

This is the PR's acceptance gate and the CI contract: every deliberate
exception in the package carries a reasoned suppression, and everything
else satisfies all six rule families.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(scope="module")
def report():
    assert SRC.is_dir(), f"package source not found at {SRC}"
    return run_lint([SRC])


def test_package_source_is_clean(report):
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"replint found violations:\n{rendered}"


def test_whole_tree_was_checked(report):
    assert report.files_checked >= 100
    assert report.rule_ids == [
        "RL001",
        "RL002",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
    ]


def test_every_suppression_is_reasoned(report):
    for finding, reason in report.suppressed:
        assert reason.strip(), f"bare suppression at {finding.render()}"


def test_documented_exceptions_are_the_known_set(report):
    # The deliberate bit-exact / sentinel comparisons in the tree.
    # Growing this set requires a reasoned suppression comment, which is
    # exactly the review speed-bump the lint pass exists to create.
    where = sorted({(f.path, f.rule) for f, _ in report.suppressed})
    assert where == [
        ("core/params.py", "RL005"),
        ("fmm/farfield.py", "RL005"),
        ("fmm/kernel.py", "RL005"),
    ]
