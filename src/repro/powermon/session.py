"""The full measurement protocol of §IV-A, end to end.

A :class:`MeasurementSession` binds a simulated device to a PowerMon and
a rail set, and measures kernels exactly the way the paper does:

1. execute the kernel ``repetitions`` times back-to-back (a warm-up pass
   is discarded first);
2. sample every rail at the protocol rate for the whole active window;
3. instantaneous power per sample = Σ over rails of V·I;
4. average power = mean over samples; total energy = average power ×
   wall time; per-run values divide by the repetition count;
5. wall time comes from a (slightly jittered) timer, independent of the
   power samples.

The output :class:`Measurement` carries ``(W, Q, T, E, R)`` — the exact
4-tuple-plus-energy the eq. (9) regression consumes — and the average
power Fig. 5 plots, but no readings: the campaign streams them through
one reused pass buffer (:meth:`PowerMon2.acquire_windows`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_SEED, MeasurementProtocol, NoiseProfile
from repro.core.fitting import EnergySample
from repro.exceptions import MeasurementError
from repro.powermon.adc import ADCModel
from repro.powermon.channels import RailSet
from repro.powermon.device import PowerMon2
from repro.simulator.device import ExecutionResult, SimulatedDevice
from repro.simulator.kernel import KernelSpec, Precision
from repro.units import (
    GIGA,
    bytes_per_second_to_gbytes,
    flops_per_second_to_gflops,
    to_milliseconds,
)

__all__ = ["Measurement", "MeasurementSession"]

#: Relative sigma of the wall-clock timer (gettimeofday-class jitter).
_TIMER_SIGMA = 1e-4


@dataclass(frozen=True)
class Measurement:
    """One measured kernel: observables plus (test-only) ground truth.

    ``time``/``energy``/``average_power`` are *per repetition* and come
    from the measurement chain.  ``truth`` is the simulator's hidden
    result — production analyses must not use it; tests use it to bound
    measurement error.
    """

    kernel: KernelSpec
    repetitions: int
    time: float
    energy: float
    average_power: float
    truth: ExecutionResult

    @property
    def achieved_gflops(self) -> float:
        """Measured arithmetic throughput (GFLOP/s)."""
        return flops_per_second_to_gflops(self.kernel.work / self.time)

    @property
    def achieved_bandwidth_gbytes(self) -> float:
        """Measured DRAM bandwidth (GB/s)."""
        return bytes_per_second_to_gbytes(self.kernel.traffic / self.time)

    @property
    def gflops_per_joule(self) -> float:
        """Measured energy efficiency (GFLOP/J)."""
        return self.kernel.work / self.energy / GIGA

    def to_energy_sample(self) -> EnergySample:
        """The eq. (9) regression row for this measurement."""
        return EnergySample(
            work=self.kernel.work,
            traffic=self.kernel.traffic,
            time=self.time,
            energy=self.energy,
            double_precision=self.kernel.precision is Precision.DOUBLE,
        )


class MeasurementSession:
    """Runs the §IV-A protocol against a simulated device."""

    def __init__(
        self,
        device: SimulatedDevice,
        rails: RailSet,
        *,
        protocol: MeasurementProtocol | None = None,
        noise: NoiseProfile | None = None,
        seed: int | Sequence[int] = DEFAULT_SEED,
    ):
        self.device = device
        self.rails = rails
        self.protocol = protocol or MeasurementProtocol()
        self.noise = noise if noise is not None else NoiseProfile()
        self.powermon = PowerMon2(ADCModel(noise=self.noise))
        self._timer_noisy = self.noise.voltage_sigma > 0
        self.rng = np.random.default_rng(seed)
        # Fail fast: the protocol must be within the instrument's limits.
        self.powermon.validate_rates(len(rails), self.protocol.sample_hz)

    def measure(
        self,
        kernel: KernelSpec,
        *,
        cache_traffic: float = 0.0,
        efficiency: float | None = None,
    ) -> Measurement:
        """Measure one kernel per the protocol; returns per-run values.

        Raises :class:`MeasurementError` when the active window is too
        short to collect at least one sample per repetition on average —
        the practical "size your benchmark for the sampler" constraint
        real PowerMon users face.  The one-kernel case of
        :meth:`measure_many`.
        """
        return self.measure_many(
            [kernel], cache_traffic=[cache_traffic], efficiency=[efficiency]
        )[0]

    def measure_many(
        self,
        kernels: Sequence[KernelSpec],
        *,
        cache_traffic: Sequence[float] | None = None,
        efficiency: Sequence[float | None] | None = None,
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> list[Measurement]:
        """Measure a batch of kernels (e.g. an intensity sweep).

        One campaign: every kernel runs and is checked first, in order,
        then all their windows are sampled in one batched acquisition.
        ``cache_traffic`` and ``efficiency`` are per kernel, as for
        :meth:`measure`.  Each kernel draws its noise from ``rngs[i]``
        (default: the session's generator for every kernel), so every
        value, and each generator's state afterwards, is that of
        measuring the kernels one by one with :meth:`measure` on
        sessions holding those generators.
        """
        n = len(kernels)
        cache_traffic = [0.0] * n if cache_traffic is None else cache_traffic
        efficiency = [None] * n if efficiency is None else efficiency
        rngs = [self.rng] * n if rngs is None else rngs
        for name, values in (
            ("cache_traffic", cache_traffic),
            ("efficiency", efficiency),
            ("rngs", rngs),
        ):
            if len(values) != n:
                raise MeasurementError(f"{name} must have one entry per kernel")
        protocol = self.protocol
        runs = []
        for kernel, traffic, eff in zip(kernels, cache_traffic, efficiency):
            truth = self.device.execute(kernel, cache_traffic=traffic, efficiency=eff)
            trace = self.device.trace(
                truth, repetitions=protocol.repetitions, ramp=1e-3, lead=0.0
            )
            samples_expected = trace.active_duration * protocol.sample_hz
            if samples_expected < protocol.repetitions:
                raise MeasurementError(
                    f"kernel {kernel.name!r} runs {to_milliseconds(truth.time):.3g} ms/rep: "
                    f"{samples_expected:.1f} samples over {protocol.repetitions} reps "
                    f"at {protocol.sample_hz} Hz is too sparse; increase work"
                )
            runs.append((truth, trace))

        # Per window: the rail samples, then (on a noisy timer) one draw
        # of wall-clock jitter.
        powers, timer = self.powermon.acquire_windows(
            [(trace, trace.t_plateau_start, trace.active_duration) for _, trace in runs],
            self.rails,
            sample_hz=protocol.sample_hz,
            rngs=rngs,
            trailing=int(self._timer_noisy),
        )
        walls = np.array([trace.active_duration for _, trace in runs])
        if self._timer_noisy:
            walls = walls * (1.0 + _TIMER_SIGMA * timer[:, 0])

        reps = protocol.repetitions
        return [
            Measurement(
                kernel=kernel,
                repetitions=reps,
                time=wall / reps,
                energy=power * wall / reps,
                average_power=power,
                truth=truth,
            )
            for kernel, (truth, _), power, wall in zip(
                kernels, runs, powers.tolist(), walls.tolist()
            )
        ]
