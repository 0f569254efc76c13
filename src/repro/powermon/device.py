"""PowerMon 2: the multi-channel sampler with its hardware limits.

The real device monitors up to eight channels at up to 1024 Hz each with
an aggregate ceiling of 3072 Hz, emitting time-stamped V/I readings.
:class:`PowerMon2` enforces exactly those limits, samples a ground-truth
:class:`~repro.simulator.trace.PowerTrace` through per-channel ADCs, and
returns a :class:`SampleSet` that computes power and energy the paper's
way: per-sample ``Σ V·I`` over channels, averaged, times duration.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._heap import reserve_heap
from repro.config import (
    POWERMON_MAX_AGGREGATE_HZ,
    POWERMON_MAX_CHANNELS,
    POWERMON_MAX_CHANNEL_HZ,
)
from repro.exceptions import SamplingError
from repro.powermon.adc import ADCModel
from repro.powermon.channels import RailSet
from repro.simulator.trace import PowerTrace, power_at_windows

__all__ = ["SampleSet", "PowerMon2", "CHUNK_SAMPLES"]

#: Most samples one pass of :meth:`PowerMon2.acquire_windows` converts.
#: A campaign converts every pass into one buffer of voltages and
#: currents, ``max(CHUNK_SAMPLES, longest window)`` samples long, so its
#: memory does not grow with the number of windows.  This
#: also bounds a pass's noise draws and temporaries (32 KiB per float64
#: row, about six sweep windows), small enough for the allocator to
#: recycle them between passes instead of mapping fresh pages (with the
#: thresholds :func:`repro._heap.reserve_heap` sets).  On a 64-points-
#: per-octave fig4 sweep in a fresh interpreter (2 cores) 4096 beat 2048
#: and 2**13 to 2**15.
CHUNK_SAMPLES = 1 << 12


@dataclass(frozen=True)
class SampleSet:
    """Time-stamped multi-channel V/I readings from one acquisition.

    Arrays are shaped ``(n_channels, n_samples)``.  Every derived
    quantity below uses only the readings — never the ground truth —
    mirroring what the real instrument delivers.
    """

    timestamps: np.ndarray
    voltages: np.ndarray
    currents: np.ndarray
    channel_names: tuple[str, ...]
    sample_hz: float

    def __post_init__(self) -> None:
        if self.voltages.shape != self.currents.shape:
            raise SamplingError("voltage and current arrays must match in shape")
        n_ch, n_s = self.voltages.shape
        if self.timestamps.shape != (n_s,):
            raise SamplingError("timestamps must have one entry per sample")
        if len(self.channel_names) != n_ch:
            raise SamplingError("need one name per channel")

    @property
    def n_samples(self) -> int:
        return int(self.timestamps.size)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def instantaneous_power(self) -> np.ndarray:
        """Per-sample total power: ``Σ_channels V·I`` (W)."""
        return np.sum(self.voltages * self.currents, axis=0)

    def channel_power(self, name: str) -> np.ndarray:
        """Per-sample power on one named channel (W)."""
        try:
            idx = self.channel_names.index(name)
        except ValueError as exc:
            raise SamplingError(
                f"no channel {name!r}; have {self.channel_names}"
            ) from exc
        return self.voltages[idx] * self.currents[idx]

    def average_power(self) -> float:
        """Mean of instantaneous power over all samples (W)."""
        if self.n_samples == 0:
            raise SamplingError("no samples acquired")
        return float(np.mean(self.instantaneous_power()))

    def span(self) -> float:
        """Acquisition duration covered by the samples (s).

        One sample period per sample — each reading represents the
        interval until the next, so energy integrates as a left Riemann
        sum.
        """
        return self.n_samples / self.sample_hz

    def total_energy(self) -> float:
        """The paper's energy computation: average power × total time (J)."""
        return self.average_power() * self.span()


class PowerMon2:
    """The simulated 8-channel power monitor.

    Parameters
    ----------
    adc:
        Conversion model applied to every reading.
    """

    MAX_CHANNELS = POWERMON_MAX_CHANNELS
    MAX_CHANNEL_HZ = POWERMON_MAX_CHANNEL_HZ
    MAX_AGGREGATE_HZ = POWERMON_MAX_AGGREGATE_HZ

    def __init__(self, adc: ADCModel | None = None):
        self.adc = adc or ADCModel()

    def validate_rates(self, n_channels: int, sample_hz: float) -> None:
        """Raise :class:`SamplingError` if the acquisition exceeds hardware.

        Mirrors the real device: ≤8 channels, ≤1024 Hz per channel,
        ≤3072 Hz summed over channels.
        """
        if n_channels < 1:
            raise SamplingError("need at least one channel")
        if n_channels > self.MAX_CHANNELS:
            raise SamplingError(
                f"PowerMon 2 supports at most {self.MAX_CHANNELS} channels, "
                f"got {n_channels}"
            )
        if sample_hz <= 0:
            raise SamplingError("sample rate must be positive")
        if sample_hz > self.MAX_CHANNEL_HZ:
            raise SamplingError(
                f"per-channel rate {sample_hz} Hz exceeds "
                f"{self.MAX_CHANNEL_HZ} Hz limit"
            )
        aggregate = sample_hz * n_channels
        if aggregate > self.MAX_AGGREGATE_HZ:
            raise SamplingError(
                f"aggregate rate {aggregate} Hz exceeds "
                f"{self.MAX_AGGREGATE_HZ} Hz limit"
            )

    def acquire(
        self,
        trace: PowerTrace,
        rails: RailSet,
        *,
        sample_hz: float,
        rng: np.random.Generator,
        start: float = 0.0,
        duration: float | None = None,
    ) -> SampleSet:
        """Sample a power trace through the rail set and ADCs.

        Samples land at ``start + k/sample_hz`` for ``k = 0..n-1`` over
        ``duration`` (default: the rest of the trace).  All channels
        sample synchronously, as the real device's aggregate scan does.
        This is the one-window case of :meth:`acquire_windows`'s pass,
        into exact-size arrays the sample set keeps.
        """
        if duration is None:
            duration = trace.duration - start
        self.validate_rates(len(rails), sample_hz)
        n = _window_samples(duration, sample_hz)
        samples = SampleSet(
            np.empty(n), np.empty((len(rails), n)), np.empty((len(rails), n)),
            tuple(c.name for c in rails.channels), sample_hz,
        )
        self._pass(
            [(trace, start, duration)], np.array([n]), rails, sample_hz, [rng], 0,
            times=samples.timestamps, voltages=samples.voltages,
            currents=samples.currents,
        )
        return samples

    def acquire_windows(
        self,
        windows: Sequence[tuple[PowerTrace, float, float]],
        rails: RailSet,
        *,
        sample_hz: float,
        rngs: Sequence[np.random.Generator],
        trailing: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``(trace, start, duration)`` windows in one campaign.

        Every window is checked before anything is drawn.  Then each
        window draws from its own generator, ``rngs[i]``, in window
        order: the standard normals of its noisy conversions, channel by
        channel as ``V0, I0, V1, I1, ...`` (a conversion whose sigma is
        zero draws nothing), followed by ``trailing`` normals the caller
        owns (the session's timer).  Windows may share a generator: one
        generator passed for every window serves them in order.  The
        draws are made in passes of at most :data:`CHUNK_SAMPLES`
        samples (a longer window is a pass alone), each converted into
        one reused pass buffer; how windows fall into passes changes no
        value.

        Returns each window's average power (exactly the
        :meth:`SampleSet.average_power` of a one-window :meth:`acquire`)
        and the trailing normals shaped ``(len(windows), trailing)``.
        """
        self.validate_rates(len(rails), sample_hz)
        if len(rngs) != len(windows):
            raise SamplingError("need one generator per window")
        reserve_heap()  # so a pass's temporaries are recycled, not re-faulted
        counts = np.array(
            [_window_samples(duration, sample_hz) for _, _, duration in windows],
            dtype=np.int64,
        )
        ends = np.cumsum(counts)
        offsets = ends - counts
        size = max(CHUNK_SAMPLES, int(counts.max(initial=0)))
        voltages = np.empty((len(rails), size))
        currents = np.empty((len(rails), size))
        powers = np.empty(len(windows))
        trailing_normals = np.empty((len(windows), trailing))
        first = 0
        while first < len(windows):
            last = first + 1
            while last < len(windows) and ends[last] - offsets[first] <= CHUNK_SAMPLES:
                last += 1
            batch = slice(first, last)
            n = int(ends[last - 1] - offsets[first])
            trailing_normals[batch] = self._pass(
                windows[batch], counts[batch], rails, sample_hz, rngs[batch],
                trailing, voltages=voltages[:, :n], currents=currents[:, :n],
            )
            # Per sample Σ V·I; per window np.mean's sum (np.add.reduceat
            # would start from a window's first sample, not from zero,
            # and round differently) over its count.
            product = np.multiply(voltages[:, :n], currents[:, :n], out=voltages[:, :n])
            power = np.sum(product, axis=0)
            cuts = (ends[batch][:-1] - offsets[first]).tolist()
            powers[batch] = [np.add.reduce(w) for w in np.split(power, cuts)]
            powers[batch] /= counts[batch]
            first = last
        return powers, trailing_normals

    def _pass(
        self,
        windows: Sequence[tuple[PowerTrace, float, float]],
        counts: np.ndarray,
        rails: RailSet,
        sample_hz: float,
        rngs: Sequence[np.random.Generator],
        trailing: int,
        *,
        voltages: np.ndarray,
        currents: np.ndarray,
        times: np.ndarray | None = None,
    ) -> np.ndarray:
        """Convert consecutive windows into ``voltages`` and ``currents``.

        Returns the windows' trailing normals; ``times``, if given,
        receives the sample times.  Sample times rise, so a window whose
        first and last samples lie on its trace's plateau reads exactly
        ``active_power`` throughout; when every window does, the rails
        split each window's power once, without the sample times.
        """
        n_ch = len(rails)
        traces = [w[0] for w in windows]
        starts = np.array([w[1] for w in windows], dtype=float)
        lasts = starts + (counts - 1) / sample_hz  # the sample times' sum at k = n - 1
        on_plateau = all(
            trace.t_plateau_start <= t0 and t1 < trace.t_plateau_end
            for trace, t0, t1 in zip(traces, starts.tolist(), lasts.tolist())
        )
        if times is not None or not on_plateau:
            ends = np.cumsum(counts)
            local = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
            times = np.add(np.repeat(starts, counts), local / sample_hz, out=times)
        if on_plateau:
            total_power, repeats = np.array([tr.active_power for tr in traces]), counts
        else:
            total_power, repeats = power_at_windows(traces, times, counts), None
        true_amps = np.array(rails.true_currents(total_power))
        # One true voltage per rail: the readings broadcast it over samples.
        true_volts = np.array([[c.nominal_voltage] for c in rails.channels])

        # Noise: per window, one block of ``n_ch * kinds`` rows of that
        # window's length (rows V0, I0, V1, I1, ... for the noisy kinds),
        # then the trailing draws, drawn from the window's generator into
        # its slice of ``z``.  The blocks are copied side by side into
        # one (kind, channel, sample) array.
        noisy_v = self.adc.noise.voltage_sigma > 0
        noisy_i = self.adc.noise.current_sigma > 0
        kinds = int(noisy_v) + int(noisy_i)
        rows = n_ch * kinds
        per_window = rows * counts + trailing
        last_draw = np.cumsum(per_window)
        first_draw = last_draw - per_window
        z = np.empty(int(last_draw[-1]))
        # One call per run of windows sharing a generator: the same draws.
        cuts = [i for i in range(1, len(rngs)) if rngs[i] is not rngs[i - 1]]
        for lo, hi in zip([0] + cuts, cuts + [len(rngs)]):
            rngs[lo].standard_normal(out=z[first_draw[lo] : last_draw[hi - 1]])
        volt_normals = amp_normals = None
        if kinds:
            normals = np.concatenate(
                [
                    z[d : d + rows * n].reshape(n_ch, kinds, n).transpose(1, 0, 2)
                    for d, n in zip(first_draw.tolist(), counts.tolist())
                ],
                axis=2,
            )
            if noisy_v:
                volt_normals = normals[0]
            if noisy_i:
                amp_normals = normals[kinds - 1]
        self.adc.convert_voltage(true_volts, volt_normals, out=voltages)
        self.adc.convert_current(true_amps, amp_normals, out=currents, repeats=repeats)
        return z[(first_draw + rows * counts)[:, None] + np.arange(trailing)]


def _window_samples(duration: float, sample_hz: float) -> int:
    """Samples in a window of ``duration`` seconds; raises if none."""
    if duration <= 0:
        raise SamplingError(f"sampling window must be positive, got {duration}")
    n = int(np.floor(duration * sample_hz))
    if n < 1:
        raise SamplingError(
            f"window of {duration:.4g}s yields no samples at {sample_hz} Hz; "
            "lengthen the run or raise the rate"
        )
    return n
