"""Ground-truth power-vs-time traces for simulated runs.

A measurement session does not see "the energy"; it sees instantaneous
power at sample times.  :class:`PowerTrace` is the hidden continuous
power signal a run produces: idle baseline before and after, a finite
ramp up to the active level (capacitance and control-loop lag), a plateau
while the kernel repetitions execute back-to-back, and a ramp down.

The trace is exactly integrable, so tests can verify that the sampled
estimate converges to the true energy as the sampling rate grows — and
the ablation bench can quantify the error at the paper's 128 Hz.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["PowerTrace", "power_at_windows"]


@dataclass(frozen=True, slots=True)
class PowerTrace:
    """Piecewise-linear power signal: idle → ramp → plateau → ramp → idle.

    Attributes
    ----------
    idle_power:
        Power drawn when nothing is running (W).  The paper measured
        39.6 W for the GTX 580 — notably *less* than the fitted π0 of
        122 W, since constant power includes always-on structures that
        idle power gating turns off.
    active_power:
        Average power during kernel execution (W).
    active_duration:
        Length of the plateau: repetitions × per-run time (s).
    ramp:
        Rise/fall time between idle and active levels (s).
    lead:
        Idle time recorded before the ramp begins (s).
    """

    idle_power: float
    active_power: float
    active_duration: float
    ramp: float = 1e-3
    lead: float = 0.0

    def __post_init__(self) -> None:
        if self.idle_power < 0 or self.active_power < 0:
            raise SimulationError("powers must be non-negative")
        if self.active_duration <= 0:
            raise SimulationError("active_duration must be positive")
        if self.ramp < 0 or self.lead < 0:
            raise SimulationError("ramp and lead must be non-negative")

    # Segment boundaries ----------------------------------------------------

    @property
    def t_rise_start(self) -> float:
        return self.lead

    @property
    def t_plateau_start(self) -> float:
        return self.lead + self.ramp

    @property
    def t_plateau_end(self) -> float:
        return self.t_plateau_start + self.active_duration

    @property
    def t_fall_end(self) -> float:
        return self.t_plateau_end + self.ramp

    @property
    def duration(self) -> float:
        """Total trace length: lead + ramps + plateau + symmetric tail."""
        return self.t_fall_end + self.lead

    # Evaluation ------------------------------------------------------------

    def power_at(self, t: float | np.ndarray) -> np.ndarray:
        """Instantaneous power at time(s) ``t`` (vectorised)."""
        return _piecewise_power(
            np.asarray(t, dtype=float),
            self.idle_power,
            self.active_power,
            self.t_rise_start,
            self.t_plateau_start,
            self.t_plateau_end,
            self.t_fall_end,
            self.ramp,
        )

    def true_energy(self) -> float:
        """Exact integral of power over the whole trace (J).

        Plateau + two triangles-over-idle + idle baseline everywhere.
        """
        delta = self.active_power - self.idle_power
        return (
            self.idle_power * self.duration
            + delta * self.active_duration
            + delta * self.ramp  # two half-ramps
        )

    def active_energy(self) -> float:
        """Energy of the active window only: plateau × active power (J).

        This is the quantity the per-run accounting targets; the ramps and
        idle lead are measurement-session artefacts.
        """
        return self.active_power * self.active_duration


def power_at_windows(
    traces: Sequence[PowerTrace], t: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """:meth:`PowerTrace.power_at` over concatenated sample windows.

    The first ``counts[0]`` entries of ``t`` are times on ``traces[0]``,
    the next ``counts[1]`` on ``traces[1]``, and so on.  Each sample
    gets its own trace's parameters, so every value is the same IEEE
    result ``power_at`` gives for that trace alone.
    """

    def per_sample(values: list[float]) -> np.ndarray:
        return np.repeat(np.array(values, dtype=float), counts)

    return _piecewise_power(
        t,
        per_sample([tr.idle_power for tr in traces]),
        per_sample([tr.active_power for tr in traces]),
        per_sample([tr.t_rise_start for tr in traces]),
        per_sample([tr.t_plateau_start for tr in traces]),
        per_sample([tr.t_plateau_end for tr in traces]),
        per_sample([tr.t_fall_end for tr in traces]),
        per_sample([tr.ramp for tr in traces]),
    )


def _piecewise_power(t, idle, active, rise, top, top_end, fall_end, ramp):
    """The idle → ramp → plateau → ramp → idle signal at times ``t``.

    Parameters are scalars or arrays shaped like ``t``.  A zero ramp
    needs no guard: its rise and fall windows ``[a, a + 0)`` are empty.
    """
    p = np.full_like(t, idle)
    delta = active - idle
    # Divide only where a ramp is actually in progress: np.where
    # evaluates both branches, so an unguarded division computes
    # (t - t0) / ramp far outside the ramp window too, overflowing
    # for tiny ramps against distant sample times.
    rising = (t >= rise) & (t < top)
    frac = np.divide(t - rise, ramp, out=np.zeros_like(t), where=rising)
    p = np.where(rising, idle + delta * frac, p)
    falling = (t >= top_end) & (t < fall_end)
    frac = np.divide(t - top_end, ramp, out=np.zeros_like(t), where=falling)
    p = np.where(falling, active - delta * frac, p)
    plateau = (t >= top) & (t < top_end)
    return np.where(plateau, active, p)
