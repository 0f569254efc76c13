"""MeasurementSession: the full §IV-A protocol end to end."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.powermon.device as powermon_device
from repro.config import NOISELESS, MeasurementProtocol, NoiseProfile
from repro.exceptions import MeasurementError, SamplingError
from repro.microbench.sweep import IntensitySweep
from repro.powermon.channels import atx_cpu_rails, gpu_rails
from repro.powermon.session import Measurement, MeasurementSession
from repro.simulator.device import SimulatedDevice, gtx580_truth, i7_950_truth
from repro.simulator.kernel import KernelSpec, Precision
from tests.powermon.reference import reference_samples


@pytest.fixture
def device() -> SimulatedDevice:
    return SimulatedDevice(gtx580_truth())


def sized_kernel(device: SimulatedDevice, intensity: float = 4.0) -> KernelSpec:
    """~50 ms per repetition on the GTX 580: plenty of samples."""
    return KernelSpec.from_intensity(
        intensity,
        work=5e10,
        precision=Precision.SINGLE,
        launch=device.truth.tuning.optimal_launch,
    )


class TestMeasurement:
    def test_noiseless_measurement_recovers_truth(self, device):
        session = MeasurementSession(device, gpu_rails(), noise=NOISELESS)
        kernel = sized_kernel(device)
        m = session.measure(kernel)
        assert m.time == pytest.approx(m.truth.time, rel=1e-6)
        assert m.energy == pytest.approx(m.truth.energy, rel=1e-3)
        assert m.average_power == pytest.approx(m.truth.average_power, rel=1e-3)

    def test_noisy_measurement_close_to_truth(self, device):
        session = MeasurementSession(device, gpu_rails())
        m = session.measure(sized_kernel(device))
        assert m.energy == pytest.approx(m.truth.energy, rel=0.05)

    def test_derived_metrics(self, device):
        session = MeasurementSession(device, gpu_rails(), noise=NOISELESS)
        m = session.measure(sized_kernel(device))
        assert m.achieved_gflops == pytest.approx(
            m.kernel.work / m.time / 1e9
        )
        assert m.gflops_per_joule == pytest.approx(m.kernel.work / m.energy / 1e9)

    def test_to_energy_sample(self, device):
        session = MeasurementSession(device, gpu_rails(), noise=NOISELESS)
        m = session.measure(sized_kernel(device))
        sample = m.to_energy_sample()
        assert sample.work == m.kernel.work
        assert sample.energy == m.energy
        assert not sample.double_precision

    def test_too_small_kernel_rejected(self, device):
        """A kernel too quick for the sampler raises, as on real hardware."""
        session = MeasurementSession(device, gpu_rails())
        tiny = KernelSpec.from_intensity(4.0, work=1e6, precision=Precision.SINGLE)
        with pytest.raises(MeasurementError, match="too sparse"):
            session.measure(tiny)

    def test_measure_many(self, device):
        session = MeasurementSession(device, gpu_rails(), noise=NOISELESS)
        kernels = [sized_kernel(device, i) for i in (1.0, 4.0)]
        results = session.measure_many(kernels)
        assert len(results) == 2
        assert results[0].kernel.intensity < results[1].kernel.intensity

    def test_measure_many_cache_traffic_mismatch(self, device):
        session = MeasurementSession(device, gpu_rails())
        with pytest.raises(MeasurementError):
            session.measure_many([sized_kernel(device)], cache_traffic=[1.0, 2.0])


class TestProtocolInteraction:
    def test_protocol_rate_validated_at_construction(self, device):
        hot = MeasurementProtocol(sample_hz=1024.0)  # 4 ch x 1024 = 4096 Hz
        with pytest.raises(SamplingError):
            MeasurementSession(device, gpu_rails(), protocol=hot)

    def test_repetitions_divide_out(self, device):
        few = MeasurementSession(
            device, gpu_rails(),
            protocol=MeasurementProtocol(repetitions=10), noise=NOISELESS,
        )
        many = MeasurementSession(
            device, gpu_rails(),
            protocol=MeasurementProtocol(repetitions=100), noise=NOISELESS,
        )
        kernel = sized_kernel(device)
        assert few.measure(kernel).energy == pytest.approx(
            many.measure(kernel).energy, rel=1e-3
        )

    def test_deterministic_given_seed(self, device):
        a = MeasurementSession(device, gpu_rails(), seed=42).measure(
            sized_kernel(device)
        )
        b = MeasurementSession(device, gpu_rails(), seed=42).measure(
            sized_kernel(device)
        )
        assert a.energy == b.energy
        assert a.time == b.time

    def test_different_seeds_differ(self, device):
        a = MeasurementSession(device, gpu_rails(), seed=1).measure(
            sized_kernel(device)
        )
        b = MeasurementSession(device, gpu_rails(), seed=2).measure(
            sized_kernel(device)
        )
        assert a.energy != b.energy


# ----------------------------------------------------------------------
# The batched campaign: measure_many against one-by-one measurement
# ----------------------------------------------------------------------

RIGS = {
    "gpu": (gtx580_truth, gpu_rails),
    "cpu": (i7_950_truth, atx_cpu_rails),
}
NOISES = {
    "default": NoiseProfile(),
    "noiseless": NOISELESS,
    "current-only": NoiseProfile(voltage_sigma=0.0, current_sigma=0.005),
}


def rig_kernels(rig: str, n: int) -> tuple[SimulatedDevice, list[KernelSpec]]:
    """``n`` sweep kernels (about 640 samples each) for a rig."""
    truth = RIGS[rig][0]()
    sweep = IntensitySweep(truth, precision=Precision.SINGLE)
    grid = np.geomspace(0.25, 64.0, n)
    return sweep.device, sweep.build_kernels(grid)


def rig_session(rig: str, device: SimulatedDevice, noise: NoiseProfile) -> MeasurementSession:
    return MeasurementSession(device, RIGS[rig][1](), noise=noise, seed=17)


def legacy_measure(session: MeasurementSession, kernel: KernelSpec) -> Measurement:
    """The per-kernel protocol as one loop: the reference draw order.

    Per kernel: the active window read sample by sample
    (:func:`reference_samples`), then one timer draw on a noisy timer.
    """
    protocol, rng = session.protocol, session.rng
    truth = session.device.execute(kernel)
    trace = session.device.trace(truth, repetitions=protocol.repetitions)
    samples = reference_samples(
        session.powermon.adc, session.rails, trace, start=trace.t_plateau_start,
        n=int(np.floor(trace.active_duration * protocol.sample_hz)),
        sample_hz=protocol.sample_hz, rng=rng,
    )
    wall = trace.active_duration
    if session.noise.voltage_sigma > 0:
        wall *= 1.0 + float(rng.normal(0.0, 1e-4))
    power = samples.average_power()
    return Measurement(kernel, protocol.repetitions, wall / protocol.repetitions,
                       power * wall / protocol.repetitions, power, truth)


def window_samples(session: MeasurementSession, measured: list[Measurement]) -> int:
    """Samples in the active windows of ``measured``, all told."""
    protocol = session.protocol
    return sum(
        int(np.floor(
            session.device.trace(m.truth, repetitions=protocol.repetitions).active_duration
            * protocol.sample_hz
        ))
        for m in measured
    )


def assert_same_measurements(got: list[Measurement], want: list[Measurement]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.kernel == w.kernel
        assert g.truth == w.truth
        assert g.repetitions == w.repetitions
        # Bit-identical, not approximately equal.
        assert (g.time, g.energy, g.average_power) == (w.time, w.energy, w.average_power)


class TestBatchedCampaign:
    """``measure_many`` samples every window in one batched acquisition;
    values and the session's RNG state afterwards must equal measuring
    one kernel at a time, bit for bit."""

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("rig", sorted(RIGS))
    def test_batch_equals_one_by_one(self, rig, noise):
        device, kernels = rig_kernels(rig, 12)
        batched = rig_session(rig, device, NOISES[noise])
        single = rig_session(rig, device, NOISES[noise])
        got = batched.measure_many(kernels)
        want = [single.measure(k) for k in kernels]
        assert_same_measurements(got, want)
        assert batched.rng.bit_generator.state == single.rng.bit_generator.state

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("rig", sorted(RIGS))
    def test_batch_equals_the_per_kernel_loop(self, rig, noise):
        device, kernels = rig_kernels(rig, 12)
        batched = rig_session(rig, device, NOISES[noise])
        legacy = rig_session(rig, device, NOISES[noise])
        got = batched.measure_many(kernels)
        want = [legacy_measure(legacy, k) for k in kernels]
        assert_same_measurements(got, want)
        assert batched.rng.bit_generator.state == legacy.rng.bit_generator.state

    def test_noiseless_campaign_draws_nothing(self):
        device, kernels = rig_kernels("gpu", 4)
        session = rig_session("gpu", device, NOISELESS)
        before = session.rng.bit_generator.state
        session.measure_many(kernels)
        assert session.rng.bit_generator.state == before

    def test_batch_spanning_several_passes(self, monkeypatch):
        device, kernels = rig_kernels("gpu", 40)
        single = rig_session("gpu", device, NoiseProfile())
        want = [single.measure(k) for k in kernels]
        assert window_samples(single, want) > powermon_device.CHUNK_SAMPLES
        # The natural split, one window per pass (a budget below any
        # window), and a few windows per pass.
        for budget in (powermon_device.CHUNK_SAMPLES, 1, 2000):
            monkeypatch.setattr(powermon_device, "CHUNK_SAMPLES", budget)
            batched = rig_session("gpu", device, NoiseProfile())
            assert_same_measurements(batched.measure_many(kernels), want)
            assert batched.rng.bit_generator.state == single.rng.bit_generator.state

    @pytest.mark.parametrize("noise", sorted(NOISES))
    def test_per_kernel_generators(self, monkeypatch, noise):
        """With ``rngs``, each kernel's measurement and its generator's end
        state are those of a fresh one-kernel session seeded alike."""
        device, kernels = rig_kernels("gpu", 9)
        seeds = [[7, i] for i in range(len(kernels))]
        efficiency = [None, 0.5, 0.8] * 3
        traffic = [0.0, 1e9, 3e9] * 3
        want, want_states = [], []
        for kernel, seed, eff, q in zip(kernels, seeds, efficiency, traffic):
            alone = MeasurementSession(device, gpu_rails(), noise=NOISES[noise], seed=seed)
            want.append(alone.measure(kernel, cache_traffic=q, efficiency=eff))
            want_states.append(alone.rng.bit_generator.state)
        # The natural passes, and one window per pass.
        for budget in (powermon_device.CHUNK_SAMPLES, 1):
            monkeypatch.setattr(powermon_device, "CHUNK_SAMPLES", budget)
            session = rig_session("gpu", device, NOISES[noise])
            before = session.rng.bit_generator.state
            rngs = [np.random.default_rng(seed) for seed in seeds]
            got = session.measure_many(
                kernels, cache_traffic=traffic, efficiency=efficiency, rngs=rngs
            )
            assert_same_measurements(got, want)
            assert [r.bit_generator.state for r in rngs] == want_states
            assert session.rng.bit_generator.state == before

    def test_per_kernel_lists_must_match(self, device):
        session = MeasurementSession(device, gpu_rails())
        kernels = [sized_kernel(device)] * 2
        with pytest.raises(MeasurementError, match="efficiency"):
            session.measure_many(kernels, efficiency=[None])
        with pytest.raises(MeasurementError, match="rngs"):
            session.measure_many(kernels, rngs=[session.rng])

    def test_too_sparse_kernel_in_a_batch_is_named(self, device):
        session = MeasurementSession(device, gpu_rails())
        tiny = KernelSpec.from_intensity(
            4.0, work=1e6, precision=Precision.SINGLE, name="tiny-one"
        )
        kernels = [sized_kernel(device, 1.0), tiny, sized_kernel(device, 4.0)]
        with pytest.raises(MeasurementError, match="'tiny-one'.*too sparse"):
            session.measure_many(kernels)
        with pytest.raises(MeasurementError, match="'tiny-one'.*too sparse"):
            MeasurementSession(device, gpu_rails()).measure(tiny)

    def test_empty_batch(self, device):
        session = MeasurementSession(device, gpu_rails())
        before = session.rng.bit_generator.state
        assert session.measure_many([]) == []
        assert session.rng.bit_generator.state == before


def traced_peak(func) -> int:
    """Bytes allocated at the peak of ``func()``, by tracemalloc."""
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCampaignMemory:
    """A campaign streams its readings through one pass buffer and keeps
    per-window scalars only, so ten times the windows cost no more than
    that buffer and a few objects per window."""

    #: A generous bound on what a campaign keeps per window until it
    #: returns (its Measurement, execution result and trace: about
    #: 0.6 KB).  Keeping a window's readings would cost 46 KB.
    PER_WINDOW_BYTES = 1024

    def test_peak_grows_by_one_pass_buffer_at_most(self):
        device, kernels = rig_kernels("gpu", 400)
        rails = gpu_rails()
        session = MeasurementSession(device, rails, seed=17)
        session.measure_many(kernels[:2])  # first-call allocations
        few = traced_peak(lambda: session.measure_many(kernels[::10]))
        many = traced_peak(lambda: session.measure_many(kernels))
        # Voltage and current rows of CHUNK_SAMPLES float64s each.
        pass_buffer = 2 * len(rails) * powermon_device.CHUNK_SAMPLES * 8
        assert many - few <= pass_buffer + (400 - 40) * self.PER_WINDOW_BYTES
