"""ADC model: what a digital power monitor does to a true V/I value.

PowerMon 2 reads each channel through a digital power-monitor IC; every
reading carries quantisation (finite ADC resolution over a full-scale
range), a multiplicative gain error (shunt/divider tolerance, identical
for all samples on one channel), and additive Gaussian noise.  These
imperfections are the reason the paper's fitted coefficients carry
standard errors at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import NoiseProfile
from repro.exceptions import MeasurementError

__all__ = ["ADCModel"]


@dataclass(frozen=True, slots=True)
class ADCModel:
    """Converts true channel values into noisy, quantised readings.

    Parameters
    ----------
    full_scale_voltage:
        Largest representable voltage (V); readings clip here.
    full_scale_current:
        Largest representable current (A).
    noise:
        Noise magnitudes (relative sigmas, bit depth, gain error).
    """

    full_scale_voltage: float = 16.0
    full_scale_current: float = 40.0
    noise: NoiseProfile = NoiseProfile()

    def __post_init__(self) -> None:
        if self.full_scale_voltage <= 0 or self.full_scale_current <= 0:
            raise MeasurementError("full-scale ranges must be positive")

    @property
    def voltage_lsb(self) -> float:
        """Voltage quantisation step (V)."""
        return self.full_scale_voltage / (2**self.noise.adc_bits)

    @property
    def current_lsb(self) -> float:
        """Current quantisation step (A)."""
        return self.full_scale_current / (2**self.noise.adc_bits)

    def _convert(
        self,
        true_values: np.ndarray,
        normals: np.ndarray | None,
        sigma: float,
        lsb: float,
        full_scale: float,
        out: np.ndarray | None,
        repeats: np.ndarray | None = None,
    ) -> np.ndarray:
        values = np.asarray(true_values, dtype=float)
        if np.any(values < 0):
            raise MeasurementError("true channel values must be non-negative")
        readings = np.asarray(values * (1.0 + self.noise.gain_error))
        if repeats is not None:
            readings = np.repeat(readings, repeats, axis=-1)
        if sigma > 0:
            # ``rng.normal(0, sigma, n)`` is ``0.0 + sigma * z`` draw for
            # draw, and the ``0.0 +`` cannot change ``1.0 + ...``.
            noise = np.asarray(sigma * normals)
            noise += 1.0
            readings = np.multiply(readings, noise, out=noise)
        # Quantise and clip in place: ``clip(round(readings / lsb) * lsb,
        # 0, full_scale)`` without temporaries.  Maximum then minimum, the
        # bound first, is np.clip bit for bit (NaN and -0.0 included).
        readings /= lsb
        np.round(readings, out=readings)
        readings *= lsb
        clipped = np.maximum(0.0, readings, out=readings if out is None else out)
        return np.minimum(full_scale, clipped, out=clipped)

    def convert_voltage(
        self,
        true_volts: np.ndarray,
        normals: np.ndarray | None,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Voltages through the ADC, given one standard normal per reading.

        ``normals`` is ignored (and may be ``None``) when the profile's
        voltage sigma is zero.  The readings take the broadcast shape of
        the inputs, or are written to ``out``.
        """
        return self._convert(
            true_volts, normals, self.noise.voltage_sigma, self.voltage_lsb,
            self.full_scale_voltage, out,
        )

    def convert_current(
        self,
        true_amps: np.ndarray,
        normals: np.ndarray | None,
        *,
        out: np.ndarray | None = None,
        repeats: np.ndarray | None = None,
    ) -> np.ndarray:
        """Currents through the ADC, given one standard normal per reading.

        With ``repeats``, entry ``j`` along the last axis of ``true_amps``
        is the true value of ``repeats[j]`` consecutive readings (a
        window's); only those values are checked for non-negativity.
        """
        return self._convert(
            true_amps, normals, self.noise.current_sigma, self.current_lsb,
            self.full_scale_current, out, repeats,
        )

    def read_voltage(
        self, true_volts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample voltages through the ADC, drawing their noise from ``rng``."""
        return self.convert_voltage(
            true_volts, _draw(rng, self.noise.voltage_sigma, np.shape(true_volts))
        )

    def read_current(
        self, true_amps: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample currents through the ADC, drawing their noise from ``rng``."""
        return self.convert_current(
            true_amps, _draw(rng, self.noise.current_sigma, np.shape(true_amps))
        )

    def worst_case_power_error(self, voltage: float, current: float) -> float:
        """Upper bound on per-sample power error from quantisation alone (W).

        ``|ΔP| <= V·ΔI + I·ΔV + ΔV·ΔI`` with half-LSB deltas.  Useful for
        ablation benches relating bit depth to energy accuracy.
        """
        dv = 0.5 * self.voltage_lsb
        di = 0.5 * self.current_lsb
        return voltage * di + current * dv + dv * di


def _draw(
    rng: np.random.Generator, sigma: float, shape: tuple[int, ...]
) -> np.ndarray | None:
    """One standard normal per reading; a noiseless conversion draws none."""
    return rng.standard_normal(shape) if sigma > 0 else None
