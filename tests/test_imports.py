"""The import graph: each process loads only what it uses.

Only fitting needs scipy (one p-value call, through ``scipy.special``).
The serving stack (server, router, worker shards, CLI daemons) must start
without it, and nothing may load ``scipy.stats``.  Every case runs in a
fresh interpreter, since ``sys.modules`` here already holds whatever the
rest of the suite imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

FITTING_NAMES = (
    "EnergySample",
    "FittedCoefficients",
    "fit_energy_coefficients",
    "fit_cache_energy",
)


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it must leave a JSON line on stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_scipy(setup: str) -> list[str]:
    return _fresh(
        f"{setup}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )


@pytest.mark.parametrize(
    "setup",
    [
        "import repro",
        "import repro.service",
        "import repro.service.workers",
        "from repro.cli import build_parser; build_parser()",
    ],
)
def test_serving_stack_loads_no_scipy(setup):
    assert _loaded_scipy(setup) == []


def test_experiments_load_special_but_not_stats():
    loaded = _loaded_scipy("import repro.experiments")
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_fitting_names_stay_public():
    found = _fresh(
        "import json\n"
        "import repro\n"
        "listed = dir(repro)\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "import repro.core.fitting as fitting\n"
        f"names = {FITTING_NAMES!r}\n"
        "print(json.dumps({\n"
        "    'dir': [n in listed for n in names],\n"
        "    'star': [n in namespace for n in names],\n"
        "    'same': [namespace[n] is getattr(fitting, n) for n in names],\n"
        "}))\n"
    )
    assert found == {key: [True] * len(FITTING_NAMES) for key in ("dir", "star", "same")}


def test_unknown_attribute_still_raises():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        repro.not_a_name  # noqa: B018
