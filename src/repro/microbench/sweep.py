"""Intensity sweeps: the experimental protocol behind Figs. 4–5 & Table IV.

An :class:`IntensitySweep` ties everything together: pick a device rig
(simulated device + rails), auto-tune the kernel launch once on a
compute-bound instance, then for each requested intensity build a kernel
of appropriate size, run it under the measurement session, and collect
:class:`SweepPoint` records.  The resulting :class:`SweepResult` converts
directly into eq. (9) regression samples and into the measured dots of
the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.config import DEFAULT_SEED, MeasurementProtocol, NoiseProfile
from repro.core.fitting import EnergySample
from repro.exceptions import MeasurementError
from repro.microbench.autotune import AutoTuner, TuneResult
from repro.microbench.generator import (
    cpu_polynomial_kernel,
    fma_load_mix_for_intensity,
    gpu_fma_load_kernel,
    polynomial_degree_for_intensity,
    size_work_for_duration,
    size_work_for_duration_batch,
)
from repro.powermon.channels import RailSet, atx_cpu_rails, gpu_rails
from repro.units import (
    GIGA,
    bytes_per_second_to_gbytes,
    flops_per_second_to_gflops,
)
from repro.powermon.session import Measurement, MeasurementSession
from repro.simulator.device import DeviceTruth, SimulatedDevice
from repro.simulator.kernel import KernelSpec, LaunchConfig, Precision

__all__ = ["SweepPoint", "SweepResult", "IntensitySweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One intensity's measurement within a sweep.

    ``requested_intensity`` is the sweep grid value; the kernel's actual
    intensity can differ slightly because operation mixes are integral
    (whole FMAs per load, whole polynomial degrees).
    """

    requested_intensity: float
    measurement: Measurement

    @property
    def intensity(self) -> float:
        """The kernel's actual intensity (flops per byte)."""
        return self.measurement.kernel.intensity


@dataclass(frozen=True)
class SweepResult:
    """A full intensity sweep on one device at one precision."""

    device_name: str
    precision: Precision
    points: tuple[SweepPoint, ...]
    tuning: TuneResult

    def energy_samples(self) -> list[EnergySample]:
        """Regression rows for eq. (9)."""
        return [p.measurement.to_energy_sample() for p in self.points]

    def intensities(self) -> list[float]:
        """Actual kernel intensities in sweep order."""
        return [p.intensity for p in self.points]

    # ------------------------------------------------------------------
    # Array-native accessors (one gather, no per-point Python arithmetic)
    # ------------------------------------------------------------------

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        """Every per-point scalar the accessors read, gathered once.

        The arrays are read-only: they are shared by every accessor call.
        """
        kernels = [p.measurement.kernel for p in self.points]
        measurements = [p.measurement for p in self.points]
        columns = {
            "intensity": [k.intensity for k in kernels],
            "work": [k.work for k in kernels],
            "traffic": [k.traffic for k in kernels],
            "time": [m.time for m in measurements],
            "energy": [m.energy for m in measurements],
            "average_power": [m.average_power for m in measurements],
        }
        gathered = {}
        for name, column in columns.items():
            gathered[name] = array = np.array(column, dtype=float)
            array.flags.writeable = False
        return gathered

    def intensities_array(self) -> np.ndarray:
        """Actual kernel intensities as a float array, sweep order."""
        return self._columns["intensity"].copy()

    def achieved_gflops_array(self) -> np.ndarray:
        """Measured arithmetic throughput per point (GFLOP/s)."""
        c = self._columns
        return flops_per_second_to_gflops(c["work"] / c["time"])

    def achieved_bandwidth_array(self) -> np.ndarray:
        """Measured DRAM bandwidth per point (GB/s)."""
        c = self._columns
        return bytes_per_second_to_gbytes(c["traffic"] / c["time"])

    def gflops_per_joule_array(self) -> np.ndarray:
        """Measured energy efficiency per point (GFLOP/J)."""
        c = self._columns
        return c["work"] / c["energy"] / GIGA

    def average_power_array(self) -> np.ndarray:
        """Measured average power per point (W)."""
        return self._columns["average_power"].copy()

    @property
    def max_gflops(self) -> float:
        """Best achieved arithmetic throughput across the sweep (GFLOP/s)."""
        return float(self.achieved_gflops_array().max())

    @property
    def max_bandwidth_gbytes(self) -> float:
        """Best achieved DRAM bandwidth across the sweep (GB/s)."""
        return float(self.achieved_bandwidth_array().max())

    @property
    def max_gflops_per_joule(self) -> float:
        """Best achieved energy efficiency across the sweep (GFLOP/J)."""
        return float(self.gflops_per_joule_array().max())


class IntensitySweep:
    """Run the paper's intensity-microbenchmark protocol on a device."""

    def __init__(
        self,
        truth: DeviceTruth,
        *,
        precision: Precision,
        rails: RailSet | None = None,
        protocol: MeasurementProtocol | None = None,
        noise: NoiseProfile | None = None,
        seed: int = DEFAULT_SEED,
        target_seconds: float = 0.05,
    ):
        self.truth = truth
        self.precision = precision
        self.device = SimulatedDevice(truth)
        if rails is None:
            rails = gpu_rails() if truth.spec.device == "GPU" else atx_cpu_rails()
        self.session = MeasurementSession(
            self.device, rails, protocol=protocol, noise=noise, seed=seed
        )
        self.target_seconds = target_seconds

    # ------------------------------------------------------------------
    # Kernel construction
    # ------------------------------------------------------------------

    def build_kernel(
        self, intensity: float, launch: LaunchConfig | None = None
    ) -> KernelSpec:
        """An intensity-targeted kernel sized for the sampling protocol.

        GPU rigs get the FMA+load mix; CPU rigs the streamed polynomial.
        Sizing aims at ``target_seconds`` per repetition using only
        spec-sheet peaks.
        """
        work = size_work_for_duration(
            self.truth,
            intensity,
            precision=self.precision,
            target_seconds=self.target_seconds,
        )
        if self.truth.spec.device == "GPU":
            k, loads = fma_load_mix_for_intensity(intensity, precision=self.precision)
            n_groups = max(1, round(work / (2.0 * k)))
            return gpu_fma_load_kernel(
                k,
                n_groups,
                loads_per_group=loads,
                precision=self.precision,
                launch=launch,
            )
        degree = polynomial_degree_for_intensity(intensity, precision=self.precision)
        n_elements = max(1, round(work / (2.0 * degree)))
        return cpu_polynomial_kernel(
            degree, n_elements, precision=self.precision, launch=launch
        )

    def build_kernels(
        self,
        intensities: list[float] | np.ndarray,
        launch: LaunchConfig | None = None,
    ) -> list[KernelSpec]:
        """Build the whole sweep's kernels with one vectorised sizing pass.

        The work sizing (the numeric part of kernel construction) runs
        through :func:`size_work_for_duration_batch` for the full grid at
        once; only the integral mix selection stays per-kernel.
        """
        grid = np.asarray(intensities, dtype=float)
        works = size_work_for_duration_batch(
            self.truth,
            grid,
            precision=self.precision,
            target_seconds=self.target_seconds,
        )
        kernels: list[KernelSpec] = []
        if self.truth.spec.device == "GPU":
            for intensity, work in zip(grid, works):
                k, loads = fma_load_mix_for_intensity(
                    float(intensity), precision=self.precision
                )
                n_groups = max(1, round(float(work) / (2.0 * k)))
                kernels.append(
                    gpu_fma_load_kernel(
                        k,
                        n_groups,
                        loads_per_group=loads,
                        precision=self.precision,
                        launch=launch,
                    )
                )
            return kernels
        for intensity, work in zip(grid, works):
            degree = polynomial_degree_for_intensity(
                float(intensity), precision=self.precision
            )
            n_elements = max(1, round(float(work) / (2.0 * degree)))
            kernels.append(
                cpu_polynomial_kernel(
                    degree, n_elements, precision=self.precision, launch=launch
                )
            )
        return kernels

    def tune(self, *, strategy: str = "greedy") -> TuneResult:
        """Tune the launch on a strongly compute-bound kernel instance.

        Tuning at high intensity isolates the launch factors from
        bandwidth effects; the tuned launch is reused across the sweep,
        exactly as a real tuned binary would be.
        """
        probe = self.build_kernel(64.0)
        return AutoTuner(self.device).tune(probe, strategy=strategy)

    # ------------------------------------------------------------------
    # The sweep itself
    # ------------------------------------------------------------------

    def run(
        self,
        intensities: list[float],
        *,
        tune_strategy: str = "greedy",
        launch: LaunchConfig | None = None,
    ) -> SweepResult:
        """Measure every requested intensity; returns the full result.

        Passing an explicit ``launch`` skips tuning (used by ablations
        measuring the cost of a badly tuned kernel).
        """
        if not intensities:
            raise MeasurementError("need at least one intensity")
        if any(i <= 0 for i in intensities):
            raise MeasurementError("intensities must be positive")
        if launch is None:
            tuning = self.tune(strategy=tune_strategy)
            launch = tuning.launch
        else:
            tuning = TuneResult(
                launch=launch, objective=float("nan"), evaluations=0, strategy="fixed"
            )
        ordered = sorted(intensities)
        kernels = self.build_kernels(ordered, launch=launch)
        points = [
            SweepPoint(requested_intensity=intensity, measurement=measurement)
            for intensity, measurement in zip(
                ordered, self.session.measure_many(kernels)
            )
        ]
        return SweepResult(
            device_name=self.truth.name,
            precision=self.precision,
            points=tuple(points),
            tuning=tuning,
        )
