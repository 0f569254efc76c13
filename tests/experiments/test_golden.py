"""Golden regression fixtures: frozen experiment outputs under tests/data/.

Each fixture is the ``values`` dict of one registry experiment, captured
from a known-good run.  Any drift in the model equations, the machine
catalog, or the simulated measurement pipeline shows up here as a value
change — the point is to catch *unintentional* drift, so if a change is
deliberate, regenerate the fixture and say so in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.registry import run_experiment

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

GOLDEN_FILES = {
    "table2": "golden_table2.json",
    "table3": "golden_table3.json",
    "table4": "golden_table4.json",
}


def load_golden(filename: str) -> dict:
    return json.loads((DATA_DIR / filename).read_text())


class TestGoldenTables:
    @pytest.mark.parametrize("experiment_id", sorted(GOLDEN_FILES))
    def test_values_match_fixture(self, experiment_id: str):
        golden = load_golden(GOLDEN_FILES[experiment_id])
        result = run_experiment(experiment_id)
        assert result.experiment_id == golden["experiment_id"]
        assert set(result.values) == set(golden["values"])
        for key, expected in golden["values"].items():
            assert result.values[key] == pytest.approx(expected, rel=1e-9), key


class TestGoldenFig4Sweep:
    def test_coarse_sweep_matches_fixture(self):
        golden = load_golden("golden_fig4_coarse.json")
        result = run_experiment("fig4", **golden["kwargs"])
        assert set(result.values) == set(golden["values"])
        for key, expected in golden["values"].items():
            assert result.values[key] == pytest.approx(expected, rel=1e-9), key

    def test_fixture_covers_all_four_panels(self):
        golden = load_golden("golden_fig4_coarse.json")
        for panel in ("gpu_double", "gpu_single", "cpu_double", "cpu_single"):
            assert any(k.startswith(panel) for k in golden["values"])


class TestGoldenFig4Report:
    """fig4's whole report, charts included, as the point-by-point renderer
    and per-accessor sweep gathers drew it before both became array passes."""

    def test_text_and_values_are_byte_identical(self):
        golden = load_golden("golden_fig4_text.json")
        result = run_experiment("fig4", **golden["kwargs"])
        assert result.text == golden["text"]
        assert json.dumps(result.values, sort_keys=True) == json.dumps(
            golden["values"], sort_keys=True
        )


class TestGoldenFmmStudy:
    """The full 390-variant §V-C study at the default 4 000 points, as the
    recursive octree and one measurement session per variant gave it."""

    def test_text_and_values_are_byte_identical(self):
        golden = load_golden("golden_fmm.json")
        result = run_experiment("fmm", **golden["kwargs"])
        assert result.text == golden["text"]
        assert json.dumps(result.values, sort_keys=True) == json.dumps(
            golden["values"], sort_keys=True
        )
        assert golden["values"]["n_variants"] == 390.0
