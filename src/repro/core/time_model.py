"""The time model — eq. (3) and the classical roofline.

Time costs overlap: with sufficient concurrency, memory transfers hide
behind arithmetic (or vice versa), so total time is the *max* of the two
component times:

    ``T = max(W·τ_flop, Q·τ_mem) = W·τ_flop · max(1, Bτ/I)``

This produces the familiar roofline with its sharp inflection at the
time-balance point ``I = Bτ``: below it the computation is memory-bound in
time, above it compute-bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.core._array import as_intensity_array, isclose_to_scalar
from repro.core.algorithm import AlgorithmProfile
from repro.core.params import MachineModel
from repro.exceptions import ParameterError

__all__ = ["TimeBound", "TimeBreakdown", "TimeModel"]


class TimeBound(enum.Enum):
    """Which resource limits execution time at a given intensity."""

    MEMORY = "memory-bound"
    COMPUTE = "compute-bound"
    BALANCED = "balanced"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class TimeBreakdown:
    """Component times for one (algorithm, machine) pairing.

    ``total`` is the overlapped time ``max(flops, mem)``; ``serial`` is the
    no-overlap sum, exposed because the gap between the two bounds the
    benefit of overlap (at most 2x).
    """

    flops: float
    mem: float

    @property
    def total(self) -> float:
        """Overlapped execution time, eq. (1)."""
        return max(self.flops, self.mem)

    @property
    def serial(self) -> float:
        """Non-overlapped (sequential) execution time."""
        return self.flops + self.mem

    @property
    def overlap_benefit(self) -> float:
        """``serial / total`` in ``[1, 2]``: how much overlap saved."""
        return self.serial / self.total

    @property
    def bound(self) -> TimeBound:
        """Classify which component dominates."""
        if math.isclose(self.flops, self.mem, rel_tol=1e-9):
            return TimeBound.BALANCED
        return TimeBound.COMPUTE if self.flops > self.mem else TimeBound.MEMORY


class TimeModel:
    """Evaluate eq. (3) for a fixed machine.

    The model assumes throughput cost constants and perfect overlap — a
    best-case analysis valid when the algorithm exposes enough concurrency
    (§II-B); latency and critical-path effects are out of its scope.
    """

    def __init__(self, machine: MachineModel):
        self.machine = machine

    # ------------------------------------------------------------------
    # Absolute quantities
    # ------------------------------------------------------------------

    def breakdown(self, profile: AlgorithmProfile) -> TimeBreakdown:
        """Component times ``T_flops = W·τ_flop`` and ``T_mem = Q·τ_mem``."""
        m = self.machine
        return TimeBreakdown(
            flops=profile.work * m.tau_flop,
            mem=profile.traffic * m.tau_mem,
        )

    def time(self, profile: AlgorithmProfile) -> float:
        """Total execution time ``T`` (seconds), eq. (3)."""
        return self.breakdown(profile).total

    def flops_rate(self, profile: AlgorithmProfile) -> float:
        """Achieved arithmetic throughput ``W / T`` (flop/s)."""
        return profile.work / self.time(profile)

    def bandwidth(self, profile: AlgorithmProfile) -> float:
        """Achieved memory bandwidth ``Q / T`` (B/s)."""
        return profile.traffic / self.time(profile)

    # ------------------------------------------------------------------
    # Intensity-parameterised (roofline) quantities
    # ------------------------------------------------------------------

    def communication_penalty(self, intensity: float) -> float:
        """``max(1, Bτ/I)`` — slowdown relative to the flop-only ideal."""
        self._check_intensity(intensity)
        return max(1.0, self.machine.b_tau / intensity)

    def normalized_performance(self, intensity: float) -> float:
        """The roofline curve ``W·τ_flop / T = min(1, I/Bτ) ∈ (0, 1]``.

        This is the red curve of the paper's Fig. 2a: performance as a
        fraction of peak arithmetic throughput.
        """
        self._check_intensity(intensity)
        return min(1.0, intensity / self.machine.b_tau)

    def attainable_gflops(self, intensity: float) -> float:
        """Roofline in absolute units: min(peak, I × bandwidth), GFLOP/s."""
        return self.normalized_performance(intensity) * self.machine.peak_gflops

    def classify(self, intensity: float) -> TimeBound:
        """Memory- vs compute-bound *in time* at this intensity."""
        self._check_intensity(intensity)
        b_tau = self.machine.b_tau
        if math.isclose(intensity, b_tau, rel_tol=1e-9):
            return TimeBound.BALANCED
        return TimeBound.COMPUTE if intensity > b_tau else TimeBound.MEMORY

    def time_per_flop(self, intensity: float) -> float:
        """``T / W`` at this intensity: ``τ_flop · max(1, Bτ/I)`` (s)."""
        return self.machine.tau_flop * self.communication_penalty(intensity)

    # ------------------------------------------------------------------
    # Array-native fast path
    # ------------------------------------------------------------------

    def communication_penalty_batch(self, intensities: np.ndarray) -> np.ndarray:
        """Vectorised ``max(1, Bτ/I)`` over an intensity array."""
        arr = as_intensity_array(intensities)
        return np.maximum(1.0, self.machine.b_tau / arr)

    def normalized_performance_batch(self, intensities: np.ndarray) -> np.ndarray:
        """Vectorised roofline ``min(1, I/Bτ)`` over an intensity array."""
        arr = as_intensity_array(intensities)
        return np.minimum(1.0, arr / self.machine.b_tau)

    def attainable_gflops_batch(self, intensities: np.ndarray) -> np.ndarray:
        """Vectorised absolute roofline (GFLOP/s) over an intensity array."""
        return self.normalized_performance_batch(intensities) * self.machine.peak_gflops

    def time_per_flop_batch(self, intensities: np.ndarray) -> np.ndarray:
        """Vectorised ``T/W`` (seconds per flop) over an intensity array."""
        return self.machine.tau_flop * self.communication_penalty_batch(intensities)

    def classify_batch(self, intensities: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`classify`: an object array of :class:`TimeBound`.

        Element-wise identical to the scalar method, including the
        ``math.isclose``-style symmetric balance test at ``I = Bτ``.
        """
        arr = as_intensity_array(intensities)
        b_tau = self.machine.b_tau
        out = np.where(arr > b_tau, TimeBound.COMPUTE, TimeBound.MEMORY)
        out[isclose_to_scalar(arr, b_tau, rel_tol=1e-9)] = TimeBound.BALANCED
        return out

    # ------------------------------------------------------------------

    @staticmethod
    def _check_intensity(intensity: float) -> None:
        if not intensity > 0:
            raise ParameterError(f"intensity must be positive, got {intensity}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeModel({self.machine.name!r}, B_tau={self.machine.b_tau:.3g})"
