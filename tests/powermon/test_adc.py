"""ADC model: quantisation, noise, clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import NOISELESS, NoiseProfile
from repro.exceptions import MeasurementError
from repro.powermon.adc import ADCModel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


class TestQuantisation:
    def test_noiseless_readings_within_half_lsb(self, rng):
        adc = ADCModel(noise=NOISELESS)
        true = np.linspace(0.1, 12.0, 100)
        read = adc.read_voltage(true, rng)
        assert np.max(np.abs(read - true)) <= adc.voltage_lsb / 2 + 1e-12

    def test_lsb_scales_with_bits(self):
        fine = ADCModel(noise=NoiseProfile(adc_bits=16))
        coarse = ADCModel(noise=NoiseProfile(adc_bits=8))
        assert fine.voltage_lsb == pytest.approx(coarse.voltage_lsb / 256)

    def test_clipping_at_full_scale(self, rng):
        adc = ADCModel(full_scale_voltage=16.0, noise=NOISELESS)
        read = adc.read_voltage(np.array([20.0]), rng)
        assert read[0] == 16.0

    def test_no_negative_readings(self, rng):
        adc = ADCModel(noise=NoiseProfile(current_sigma=0.5))
        read = adc.read_current(np.full(1000, 0.01), rng)
        assert np.all(read >= 0.0)


class TestNoise:
    def test_noise_spread_matches_sigma(self, rng):
        adc = ADCModel(noise=NoiseProfile(voltage_sigma=0.01, adc_bits=24))
        true = np.full(20_000, 10.0)
        read = adc.read_voltage(true, rng)
        assert np.std(read / true - 1.0) == pytest.approx(0.01, rel=0.05)

    def test_gain_error_is_systematic(self, rng):
        adc = ADCModel(
            noise=NoiseProfile(voltage_sigma=0.0, current_sigma=0.0,
                               adc_bits=24, gain_error=0.02)
        )
        read = adc.read_voltage(np.full(10, 10.0), rng)
        assert np.all(np.abs(read - 10.2) < adc.voltage_lsb)

    def test_rejects_negative_true_values(self, rng):
        adc = ADCModel()
        with pytest.raises(MeasurementError):
            adc.read_voltage(np.array([-1.0]), rng)


class TestWorstCase:
    def test_worst_case_power_error(self):
        adc = ADCModel(noise=NOISELESS)
        bound = adc.worst_case_power_error(12.0, 10.0)
        dv, di = adc.voltage_lsb / 2, adc.current_lsb / 2
        assert bound == pytest.approx(12.0 * di + 10.0 * dv + dv * di)

    def test_rejects_nonpositive_full_scale(self):
        with pytest.raises(MeasurementError):
            ADCModel(full_scale_voltage=0.0)


class TestInPlaceClip:
    """The conversion clips in place with ``np.maximum``/``np.minimum``;
    every reading must equal the ``np.clip`` formula bit for bit."""

    @staticmethod
    def clipped(adc, true, normals):
        gained = true * (1.0 + adc.noise.gain_error)
        if normals is not None:
            gained = gained * (1.0 + adc.noise.current_sigma * normals)
        lsb = adc.current_lsb
        return np.clip(np.round(gained / lsb) * lsb, 0.0, adc.full_scale_current)

    @staticmethod
    def edge_values(adc) -> np.ndarray:
        lsb = adc.current_lsb
        return np.array([
            np.nan, 0.0, -0.0, 5e-324, np.inf,
            0.5 * lsb, 1.5 * lsb, 2.5 * lsb, 1000.5 * lsb,  # exact half-LSB ties
            adc.full_scale_current - 0.5 * lsb, adc.full_scale_current,
            adc.full_scale_current + 0.5 * lsb, 2.0 * adc.full_scale_current,
            1.0, 12.3456789,
        ])

    @pytest.mark.parametrize("profile", ["noiseless-12-bit", "noisy", "gain"])
    def test_equals_np_clip(self, profile):
        noise = {
            "noiseless-12-bit": NoiseProfile(voltage_sigma=0.0, current_sigma=0.0),
            "noisy": NoiseProfile(current_sigma=0.5),
            "gain": NoiseProfile(voltage_sigma=0.0, current_sigma=0.0, gain_error=0.01),
        }[profile]
        adc = ADCModel(noise=noise)
        edges = self.edge_values(adc)
        # Long enough to take numpy's vectorised loops, shuffled so every
        # edge value lands in every lane.
        gen = np.random.default_rng(3)
        true = gen.permutation(np.resize(edges, 4 * 1031)).reshape(4, 1031)
        normals = None
        if noise.current_sigma > 0:
            # Zero keeps a tie exact; below -1/sigma a reading goes negative
            # (and -0.0 for a zero true value); NaN poisons one reading.
            normals = gen.choice([0.0, -0.0, -3.0, 1.0, np.nan], size=true.shape)
            normals[:, :8] = -3.0
        want = self.clipped(adc, true, normals)
        assert adc.convert_current(true, normals).tobytes() == want.tobytes()
        # Into a strided slice of a wider buffer, as a campaign's pass does.
        buffer = np.full((4, 2048), 7.0)
        out = adc.convert_current(true, normals, out=buffer[:, :1031])
        assert out.base is buffer
        assert np.ascontiguousarray(buffer[:, :1031]).tobytes() == want.tobytes()
        assert np.all(buffer[:, 1031:] == 7.0)
        # The edges the comparison must have met.
        assert np.isnan(want).any()
        assert (np.signbit(want) & (want == 0.0)).any()
        assert (want == adc.full_scale_current).any()

    def test_broadcast_voltage_into_out(self):
        adc = ADCModel(noise=NoiseProfile())
        true = np.array([[3.3], [12.0], [20.0], [0.0]])
        normals = np.random.default_rng(4).standard_normal((4, 513))
        out = adc.convert_voltage(true, normals, out=np.empty((4, 513)))
        gained = true * (1.0 + normals * adc.noise.voltage_sigma)
        lsb = adc.voltage_lsb
        want = np.clip(np.round(gained / lsb) * lsb, 0.0, adc.full_scale_voltage)
        assert out.tobytes() == want.tobytes()

    def test_repeats_equal_repeated_values(self):
        adc = ADCModel()
        per_window = np.array([[1.5, 0.25, 30.0], [0.0, 2.0, 50.0]])
        repeats = np.array([3, 1, 5])
        normals = np.random.default_rng(5).standard_normal((2, 9))
        got = adc.convert_current(per_window, normals, repeats=repeats)
        want = adc.convert_current(np.repeat(per_window, repeats, axis=1), normals)
        assert got.tobytes() == want.tobytes()

    def test_repeats_check_the_per_window_values(self):
        with pytest.raises(MeasurementError):
            ADCModel().convert_current(
                np.array([[1.0, -1.0]]), None, repeats=np.array([4, 2])
            )
