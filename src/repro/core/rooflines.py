"""Curve sampling: rooflines, arch lines, and powerlines as data series.

Charts in the paper (Figs. 2, 4, 5) are intensity sweeps of the three
models.  This module samples those curves on log-2 grids and packages them
as :class:`CurveSeries` — plain arrays plus labels — that the ASCII
renderer, CSV exporters, benchmark harness, and any external plotting tool
can all consume without re-deriving model math.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.energy_model import EnergyModel
from repro.core.params import MachineModel
from repro.core.power_model import PowerModel
from repro.core.powercap import CappedModel
from repro.core.time_model import TimeModel
from repro.exceptions import ParameterError
from repro.units import log2_grid

__all__ = [
    "CurveSeries",
    "roofline_series",
    "archline_series",
    "powerline_series",
    "capped_powerline_series",
    "roofline_vs_archline",
    "vertical_markers",
]


@dataclass(frozen=True)
class CurveSeries:
    """One named curve: intensities (x) against values (y).

    Attributes
    ----------
    label:
        Legend text, e.g. ``"Roofline (GFLOP/s)"``.
    intensities:
        Strictly positive x values (flops per byte).
    values:
        y values; units depend on the producing function.
    units:
        Unit string for the y axis.
    """

    label: str
    intensities: np.ndarray
    values: np.ndarray
    units: str = ""

    def __post_init__(self) -> None:
        x = np.asarray(self.intensities, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or y.shape != x.shape:
            raise ParameterError("intensities and values must be equal-length 1-D")
        if x.size < 2:
            raise ParameterError("a curve needs at least two points")
        if np.any(x <= 0):
            raise ParameterError("intensities must be positive")
        if np.any(np.diff(x) <= 0):
            raise ParameterError("intensities must be strictly increasing")
        object.__setattr__(self, "intensities", x)
        object.__setattr__(self, "values", y)

    def at(self, intensity: float) -> float:
        """Log-log interpolated value at an arbitrary intensity."""
        return float(self.at_many(np.array([intensity], dtype=float))[0])

    def at_many(self, intensities: np.ndarray) -> np.ndarray:
        """:meth:`at` at every element of a float array.

        The final ``2**`` is libm's ``pow`` per element (numpy's
        vectorised power may differ in the last bit), so each value has
        the bits a scalar evaluation gives.
        """
        x = np.log2(self.intensities)
        with np.errstate(divide="ignore"):
            y = np.log2(self.values)
        out = np.interp(np.log2(intensities), x, y)
        return np.fromiter((2.0**v for v in out.tolist()), dtype=float, count=out.size)

    def normalized(self, denom: float, label: str | None = None) -> "CurveSeries":
        """Divide values by a constant (e.g. peak) to get a relative curve."""
        if denom <= 0:
            raise ParameterError("normalisation denominator must be positive")
        return CurveSeries(
            label=label or f"{self.label} (normalized)",
            intensities=self.intensities,
            values=self.values / denom,
            units="fraction of peak",
        )

    def as_rows(self) -> list[tuple[float, float]]:
        """The curve as (intensity, value) tuples — CSV-friendly."""
        return [(float(x), float(y)) for x, y in zip(self.intensities, self.values)]


def _grid(
    intensities: Sequence[float] | None,
    lo: float,
    hi: float,
    points_per_octave: int,
) -> np.ndarray:
    if intensities is not None:
        return np.asarray(sorted(intensities), dtype=float)
    return np.asarray(log2_grid(lo, hi, points_per_octave), dtype=float)


def roofline_series(
    machine: MachineModel,
    *,
    intensities: Sequence[float] | None = None,
    lo: float = 0.5,
    hi: float = 512.0,
    points_per_octave: int = 8,
    normalized: bool = True,
) -> CurveSeries:
    """Sample the time roofline (Fig. 2a red curve).

    ``normalized=True`` (default) yields the fraction-of-peak curve
    ``min(1, I/Bτ)``; otherwise absolute GFLOP/s.
    """
    grid = _grid(intensities, lo, hi, points_per_octave)
    model = TimeModel(machine)
    if normalized:
        values = model.normalized_performance_batch(grid)
        return CurveSeries("Roofline (fraction of peak GFLOP/s)", grid, values)
    values = model.attainable_gflops_batch(grid)
    return CurveSeries("Roofline (GFLOP/s)", grid, values, units="GFLOP/s")


def archline_series(
    machine: MachineModel,
    *,
    intensities: Sequence[float] | None = None,
    lo: float = 0.5,
    hi: float = 512.0,
    points_per_octave: int = 8,
    normalized: bool = True,
) -> CurveSeries:
    """Sample the energy arch line (Fig. 2a blue curve)."""
    grid = _grid(intensities, lo, hi, points_per_octave)
    model = EnergyModel(machine)
    if normalized:
        values = model.normalized_efficiency_batch(grid)
        return CurveSeries("Arch line (fraction of peak GFLOP/J)", grid, values)
    values = model.attainable_gflops_per_joule_batch(grid)
    return CurveSeries("Arch line (GFLOP/J)", grid, values, units="GFLOP/J")


def powerline_series(
    machine: MachineModel,
    *,
    intensities: Sequence[float] | None = None,
    lo: float = 0.5,
    hi: float = 512.0,
    points_per_octave: int = 8,
    normalized: bool = True,
) -> CurveSeries:
    """Sample the powerline (Fig. 2b).

    ``normalized=True`` divides by flop-plus-constant power so the
    compute-bound limit is 1 (matching Figs. 2b and 5); otherwise watts.
    """
    grid = _grid(intensities, lo, hi, points_per_octave)
    model = PowerModel(machine)
    if normalized:
        values = model.normalized_power_batch(grid)
        return CurveSeries("Powerline (relative to flop power)", grid, values)
    values = model.power_batch(grid)
    return CurveSeries("Powerline (W)", grid, values, units="W")


def capped_powerline_series(
    machine: MachineModel,
    *,
    intensities: Sequence[float] | None = None,
    lo: float = 0.5,
    hi: float = 512.0,
    points_per_octave: int = 8,
) -> CurveSeries:
    """Powerline with the §V-B cap refinement applied (absolute watts)."""
    grid = _grid(intensities, lo, hi, points_per_octave)
    model = CappedModel(machine)
    values = model.power_batch(grid)
    return CurveSeries("Capped powerline (W)", grid, values, units="W")


def roofline_vs_archline(
    machine: MachineModel,
    *,
    lo: float = 0.5,
    hi: float = 512.0,
    points_per_octave: int = 8,
) -> tuple[CurveSeries, CurveSeries]:
    """The Fig. 2a pair: normalized roofline and arch line on one grid."""
    kwargs = dict(lo=lo, hi=hi, points_per_octave=points_per_octave)
    return (
        roofline_series(machine, normalized=True, **kwargs),
        archline_series(machine, normalized=True, **kwargs),
    )


def vertical_markers(machine: MachineModel) -> dict[str, float]:
    """The dashed vertical lines of the paper's figures.

    Returns a mapping with the time-balance, raw energy-balance
    ("const=0" annotation), and effective energy-balance crossing.
    """
    return {
        "B_tau": machine.b_tau,
        "B_eps (const=0)": machine.b_eps,
        "B_eps effective": machine.effective_balance_crossing,
    }
