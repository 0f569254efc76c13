"""PowerMon 2: rate limits, acquisition, and energy computation."""

from __future__ import annotations

import numpy as np
import pytest

import repro.powermon.device as powermon_device
from repro.config import NOISELESS, NoiseProfile
from repro.exceptions import SamplingError
from repro.powermon.adc import ADCModel
from repro.powermon.channels import gpu_rails
from repro.powermon.device import PowerMon2, SampleSet
from repro.simulator.trace import PowerTrace
from tests.powermon.reference import reference_samples


@pytest.fixture
def trace() -> PowerTrace:
    return PowerTrace(
        idle_power=40.0, active_power=250.0, active_duration=5.0,
        ramp=1e-3, lead=0.0,
    )


@pytest.fixture
def quiet_monitor() -> PowerMon2:
    return PowerMon2(ADCModel(noise=NOISELESS))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1)


class TestRateLimits:
    """The real device's limits (§IV-A): 8 channels, 1024 Hz/ch, 3072 Hz."""

    def test_channel_count_limit(self, quiet_monitor):
        with pytest.raises(SamplingError, match="channels"):
            quiet_monitor.validate_rates(9, 100.0)

    def test_per_channel_rate_limit(self, quiet_monitor):
        with pytest.raises(SamplingError, match="per-channel"):
            quiet_monitor.validate_rates(1, 2048.0)

    def test_aggregate_rate_limit(self, quiet_monitor):
        """4 channels x 1024 Hz = 4096 > 3072 aggregate."""
        with pytest.raises(SamplingError, match="aggregate"):
            quiet_monitor.validate_rates(4, 1024.0)

    def test_paper_protocol_is_legal(self, quiet_monitor):
        """128 Hz on 4 channels (the paper's setup) is fine."""
        quiet_monitor.validate_rates(4, 128.0)

    def test_max_legal_configuration(self, quiet_monitor):
        quiet_monitor.validate_rates(3, 1024.0)  # 3072 aggregate exactly

    def test_rejects_nonpositive_rate(self, quiet_monitor):
        with pytest.raises(SamplingError):
            quiet_monitor.validate_rates(1, 0.0)


class TestAcquisition:
    def test_sample_count(self, quiet_monitor, trace, rng):
        samples = quiet_monitor.acquire(
            trace, gpu_rails(), sample_hz=128.0, rng=rng
        )
        expected = int(np.floor(trace.duration * 128.0))
        assert samples.n_samples == expected
        assert samples.n_channels == 4

    def test_window_selection(self, quiet_monitor, trace, rng):
        samples = quiet_monitor.acquire(
            trace, gpu_rails(), sample_hz=128.0, rng=rng,
            start=trace.t_plateau_start, duration=trace.active_duration,
        )
        # Every sample sits on the plateau: instantaneous power is active.
        power = samples.instantaneous_power()
        assert np.allclose(power, 250.0, rtol=1e-3)

    def test_too_short_window(self, quiet_monitor, trace, rng):
        with pytest.raises(SamplingError, match="no samples"):
            quiet_monitor.acquire(
                trace, gpu_rails(), sample_hz=128.0, rng=rng, duration=1e-4
            )

    def test_negative_window(self, quiet_monitor, trace, rng):
        with pytest.raises(SamplingError):
            quiet_monitor.acquire(
                trace, gpu_rails(), sample_hz=128.0, rng=rng,
                start=trace.duration + 1.0,
            )


class TestSampleSet:
    def test_energy_matches_trace(self, quiet_monitor, trace, rng):
        """Noiselessly sampling the plateau recovers active energy."""
        samples = quiet_monitor.acquire(
            trace, gpu_rails(), sample_hz=512.0, rng=rng,
            start=trace.t_plateau_start, duration=trace.active_duration,
        )
        assert samples.total_energy() == pytest.approx(
            trace.active_energy(), rel=1e-3
        )

    def test_channel_power_lookup(self, quiet_monitor, trace, rng):
        samples = quiet_monitor.acquire(
            trace, gpu_rails(), sample_hz=128.0, rng=rng
        )
        total = sum(
            samples.channel_power(name) for name in samples.channel_names
        )
        assert np.allclose(total, samples.instantaneous_power())

    def test_channel_power_unknown_name(self, quiet_monitor, trace, rng):
        samples = quiet_monitor.acquire(trace, gpu_rails(), sample_hz=128.0, rng=rng)
        with pytest.raises(SamplingError, match="no channel"):
            samples.channel_power("nonexistent")

    def test_span(self, quiet_monitor, trace, rng):
        samples = quiet_monitor.acquire(trace, gpu_rails(), sample_hz=128.0, rng=rng)
        assert samples.span() == pytest.approx(samples.n_samples / 128.0)

    def test_shape_validation(self):
        with pytest.raises(SamplingError):
            SampleSet(
                timestamps=np.zeros(3),
                voltages=np.zeros((2, 3)),
                currents=np.zeros((2, 4)),
                channel_names=("a", "b"),
                sample_hz=128.0,
            )
        with pytest.raises(SamplingError):
            SampleSet(
                timestamps=np.zeros(3),
                voltages=np.zeros((2, 3)),
                currents=np.zeros((2, 3)),
                channel_names=("a",),
                sample_hz=128.0,
            )


# ----------------------------------------------------------------------
# The streaming campaign: one pass buffer, per-window power only
# ----------------------------------------------------------------------

#: Traces with a short, a long and no ramp, and idle time before them.
TRACES = (
    PowerTrace(idle_power=40.0, active_power=250.0, active_duration=3.0),
    PowerTrace(idle_power=35.0, active_power=180.5, active_duration=2.0,
               ramp=0.25, lead=0.5),
    PowerTrace(idle_power=20.0, active_power=91.3, active_duration=1.5,
               ramp=0.0, lead=0.25),
)
#: Windows wholly on a plateau: the pass splits each window's power once.
ON_PLATEAU = (
    (TRACES[0], TRACES[0].t_plateau_start, TRACES[0].active_duration),
    (TRACES[1], TRACES[1].t_plateau_start + 0.3, 1.0),
    (TRACES[2], TRACES[2].t_plateau_start, TRACES[2].active_duration),
)
#: Windows over ramps, steps and idle time: the pass evaluates the trace
#: at every sample.
OFF_PLATEAU = (
    (TRACES[0], 0.0, TRACES[0].duration),
    (TRACES[1], 0.0, 1.0),
    (TRACES[1], TRACES[1].t_plateau_end - 0.5, 1.0),
    (TRACES[2], 0.0, TRACES[2].duration),
    # A first sample 1/128 s before the step, a last one exactly at the
    # plateau's end (which reads idle: the plateau is half-open).
    (TRACES[2], TRACES[2].t_plateau_start - 1 / 128, 0.5),
    (TRACES[2], TRACES[2].t_plateau_start, TRACES[2].active_duration + 1 / 128),
)
WINDOW_SETS = {
    "on-plateau": ON_PLATEAU,
    "off-plateau": OFF_PLATEAU,
    "mixed": tuple(w for pair in zip(OFF_PLATEAU, ON_PLATEAU * 2) for w in pair),
}
NOISES = {
    "default": NoiseProfile(),
    "noiseless": NOISELESS,
    "current-only": NoiseProfile(voltage_sigma=0.0, current_sigma=0.005),
}
TRAILING = 2


class TestStreamingCampaign:
    """Each window of :meth:`PowerMon2.acquire_windows` yields exactly the
    average power and trailing normals of a one-window :meth:`acquire`
    from a generator seeded alike, and both equal the per-sample oracle,
    however the windows fall into passes."""

    @pytest.mark.parametrize("budget", [None, 1, 2000])
    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("windows", sorted(WINDOW_SETS))
    def test_window_equals_one_window_acquire(self, monkeypatch, budget, noise, windows):
        if budget is not None:
            monkeypatch.setattr(powermon_device, "CHUNK_SAMPLES", budget)
        monitor = PowerMon2(ADCModel(noise=NOISES[noise]))
        rails = gpu_rails()
        windows = WINDOW_SETS[windows]
        seeds = [[5, i] for i in range(len(windows))]
        powers, trailing = monitor.acquire_windows(
            windows, rails, sample_hz=128.0,
            rngs=[np.random.default_rng(s) for s in seeds], trailing=TRAILING,
        )
        assert powers.shape == (len(windows),)
        assert trailing.shape == (len(windows), TRAILING)
        for (trace, start, duration), seed, power, normals in zip(
            windows, seeds, powers.tolist(), trailing
        ):
            rng = np.random.default_rng(seed)
            alone = monitor.acquire(
                trace, rails, sample_hz=128.0, rng=rng, start=start, duration=duration
            )
            oracle_rng = np.random.default_rng(seed)
            oracle = reference_samples(
                monitor.adc, rails, trace, start=start, n=alone.n_samples,
                sample_hz=128.0, rng=oracle_rng,
            )
            # Bit for bit: readings, average power and the draws after them.
            for field in ("timestamps", "voltages", "currents"):
                assert getattr(alone, field).tobytes() == getattr(oracle, field).tobytes()
            assert power == alone.average_power() == oracle.average_power()
            assert normals.tobytes() == rng.standard_normal(TRAILING).tobytes()
            assert normals.tobytes() == oracle_rng.standard_normal(TRAILING).tobytes()

    def test_plateau_windows_never_evaluate_the_trace(self, monkeypatch):
        def per_sample(*args):
            raise AssertionError("a plateau-only pass evaluated the trace per sample")

        monkeypatch.setattr(powermon_device, "power_at_windows", per_sample)
        PowerMon2().acquire_windows(
            ON_PLATEAU, gpu_rails(), sample_hz=128.0,
            rngs=[np.random.default_rng(0)] * len(ON_PLATEAU),
        )
        with pytest.raises(AssertionError, match="per sample"):
            PowerMon2().acquire_windows(
                OFF_PLATEAU[:1], gpu_rails(), sample_hz=128.0,
                rngs=[np.random.default_rng(0)],
            )

    def test_shared_generator_serves_windows_in_order(self):
        monitor = PowerMon2()
        shared = np.random.default_rng(9)
        powers, _ = monitor.acquire_windows(
            WINDOW_SETS["mixed"], gpu_rails(), sample_hz=128.0,
            rngs=[shared] * len(WINDOW_SETS["mixed"]),
        )
        alone = np.random.default_rng(9)
        for (trace, start, duration), power in zip(WINDOW_SETS["mixed"], powers.tolist()):
            samples = monitor.acquire(
                trace, gpu_rails(), sample_hz=128.0, rng=alone,
                start=start, duration=duration,
            )
            assert power == samples.average_power()
        assert shared.bit_generator.state == alone.bit_generator.state

    def test_empty_campaign(self):
        powers, trailing = PowerMon2().acquire_windows(
            [], gpu_rails(), sample_hz=128.0, rngs=[], trailing=1
        )
        assert powers.shape == (0,) and trailing.shape == (0, 1)
