"""The per-sample PowerMon oracle: one window read the obvious way."""

from __future__ import annotations

import numpy as np

from repro.powermon.adc import ADCModel
from repro.powermon.channels import RailSet
from repro.powermon.device import SampleSet
from repro.simulator.trace import PowerTrace


def reference_samples(
    adc: ADCModel,
    rails: RailSet,
    trace: PowerTrace,
    *,
    start: float,
    n: int,
    sample_hz: float,
    rng: np.random.Generator,
) -> SampleSet:
    """``n`` samples of ``trace`` from ``start``, one step at a time.

    The trace's power at every sample time, split across the rails;
    then each channel's voltage and then its current through the ADC,
    each drawing ``rng.normal(0, sigma, n)`` when its sigma is positive.
    """
    times = start + np.arange(n) / sample_hz
    currents = rails.true_currents(trace.power_at(times))

    def read(true, sigma, lsb, full_scale):
        gained = true * (1.0 + adc.noise.gain_error)
        if sigma > 0:
            gained = gained * (1.0 + rng.normal(0.0, sigma, size=n))
        return np.clip(np.round(gained / lsb) * lsb, 0.0, full_scale)

    voltages = np.empty((len(rails), n))
    amps = np.empty((len(rails), n))
    for i, (channel, current) in enumerate(zip(rails.channels, currents)):
        voltages[i] = read(np.full(n, channel.nominal_voltage), adc.noise.voltage_sigma,
                           adc.voltage_lsb, adc.full_scale_voltage)
        amps[i] = read(current, adc.noise.current_sigma, adc.current_lsb,
                       adc.full_scale_current)
    return SampleSet(times, voltages, amps, tuple(c.name for c in rails.channels),
                     sample_hz)
