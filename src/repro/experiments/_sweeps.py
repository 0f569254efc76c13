"""Shared sweep infrastructure for the measurement-driven experiments.

Figures 4 and 5 and Table IV all consume the same four intensity sweeps
(GPU/CPU × single/double).  This module runs them once per process and
memoises the results, keyed by the sweep configuration, so running
several experiments in one session does not repeat the (deterministic)
simulated measurement campaign.  A memoised sweep holds each kernel's
measured time, energy and average power, not the PowerMon readings
behind them, so it is small to keep and small to send between
processes.

:func:`run_panels` additionally fans the panels out across worker
processes (``jobs > 1``) and seeds the in-process memo with the results,
so a parallel prewarm makes every subsequent :func:`run_panel` call a
dictionary lookup.  With two cores, ``jobs=2`` runs a 64-points-per-
octave fig4 about 10% faster than ``jobs=1``, and a 256-point one about
35% faster.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.config import DEFAULT_SEED
from repro.core.params import MachineModel
from repro.machines.catalog import (
    gtx580_double,
    gtx580_single,
    i7_950_double,
    i7_950_single,
)
from repro.microbench.sweep import IntensitySweep, SweepResult
from repro.simulator.device import DeviceTruth, gtx580_truth, i7_950_truth
from repro.simulator.kernel import Precision

__all__ = [
    "PANELS",
    "panel_machine",
    "panel_truth",
    "run_panel",
    "run_panels",
    "panel_intensities",
]

#: The four device-precision panels of Figs. 4 and 5, in paper order.
PANELS: tuple[tuple[str, str], ...] = (
    ("gpu", "double"),
    ("cpu", "double"),
    ("gpu", "single"),
    ("cpu", "single"),
)

#: Per-process memo of completed panel sweeps.  An explicit dict (rather
#: than ``lru_cache``) so :func:`run_panels` can seed it with results
#: computed in worker processes.
_PANEL_MEMO: dict[tuple[str, str, int, int], SweepResult] = {}


def panel_truth(device: str) -> DeviceTruth:
    """Device ground truth for a panel key (``"gpu"`` or ``"cpu"``)."""
    return gtx580_truth() if device == "gpu" else i7_950_truth()


def panel_machine(device: str, precision: str) -> MachineModel:
    """The Table III+IV catalog machine for a panel."""
    table = {
        ("gpu", "single"): gtx580_single,
        ("gpu", "double"): gtx580_double,
        ("cpu", "single"): i7_950_single,
        ("cpu", "double"): i7_950_double,
    }
    return table[(device, precision)]()


def panel_intensities(precision: str, *, points_per_octave: int = 2) -> tuple[float, ...]:
    """The paper's intensity grids: 1/4..16 (double), 1/4..64 (single)."""
    hi = 4.0 if precision == "double" else 6.0  # log2 upper bound
    n = int((hi + 2.0) * points_per_octave) + 1
    return tuple(float(2.0 ** x) for x in np.linspace(-2.0, hi, n))


def _compute_panel(
    device: str, precision: str, points_per_octave: int, seed: int
) -> SweepResult:
    truth = panel_truth(device)
    sweep = IntensitySweep(
        truth,
        precision=Precision.DOUBLE if precision == "double" else Precision.SINGLE,
        seed=seed,
    )
    return sweep.run(list(panel_intensities(precision, points_per_octave=points_per_octave)))


def _panel_task(
    args: tuple[str, str, int, int],
) -> tuple[tuple[str, str, int, int], SweepResult]:
    """Worker-process entry point: compute one panel, return it with its key."""
    device, precision, points_per_octave, seed = args
    return args, _compute_panel(device, precision, points_per_octave, seed)


def run_panel(
    device: str,
    precision: str,
    *,
    points_per_octave: int = 2,
    seed: int = DEFAULT_SEED,
) -> SweepResult:
    """Run (or fetch the memoised) sweep for one panel."""
    key = (device, precision, points_per_octave, seed)
    if key not in _PANEL_MEMO:
        _PANEL_MEMO[key] = _compute_panel(device, precision, points_per_octave, seed)
    return _PANEL_MEMO[key]


def run_panels(
    panels: tuple[tuple[str, str], ...] = PANELS,
    *,
    points_per_octave: int = 2,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> dict[tuple[str, str], SweepResult]:
    """Run several panels, optionally across worker processes.

    With ``jobs > 1`` the not-yet-memoised panels run concurrently in a
    :class:`~concurrent.futures.ProcessPoolExecutor`; every result seeds
    the in-process memo, so later :func:`run_panel` calls are free.
    """
    keys = {
        (device, precision): (device, precision, points_per_octave, seed)
        for device, precision in panels
    }
    missing = [k for k in keys.values() if k not in _PANEL_MEMO]
    if missing and jobs > 1:
        workers = min(jobs, len(missing))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, result in pool.map(_panel_task, missing):
                _PANEL_MEMO[key] = result
    return {
        panel: run_panel(
            panel[0], panel[1], points_per_octave=points_per_octave, seed=seed
        )
        for panel in keys
    }
