"""Every example script must run clean — they are living documentation."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys, monkeypatch):
    """Execute the example as ``__main__`` and sanity-check its output."""
    # Examples must not depend on argv or cwd.
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 200, f"{script.name} produced suspiciously little output"


def test_examples_exist():
    """The advertised example set is present."""
    names = {p.stem for p in EXAMPLES}
    for expected in (
        "quickstart",
        "characterize_machine",
        "fmm_energy_study",
        "greenup_explorer",
    ):
        assert expected in names
