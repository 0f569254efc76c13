"""Core analytic models from *A Roofline Model of Energy* (IPDPS 2013).

This package implements the paper's primary contribution:

* :mod:`repro.core.params` — machine characterisation (Table I/II):
  time and energy cost coefficients and every derived balance quantity.
* :mod:`repro.core.algorithm` — algorithm characterisation ``(W, Q, I)``
  plus symbolic profiles for canonical kernels.
* :mod:`repro.core.time_model` — eq. (3), the time roofline.
* :mod:`repro.core.energy_model` — eqs. (4)–(6), the energy "arch line".
* :mod:`repro.core.power_model` — eqs. (7)–(8), the "powerline".
* :mod:`repro.core.balance` — balance gaps and race-to-halt analysis.
* :mod:`repro.core.rooflines` — curve sampling for plots and benches.
* :mod:`repro.core.tradeoff` — eq. (10), work–communication trade-offs.
* :mod:`repro.core.fitting` — eq. (9), coefficient fitting from measurements.
* :mod:`repro.core.powercap` — §V-B extension: explicit power caps.
"""

from repro.core.algorithm import AlgorithmProfile
from repro.core.params import MachineModel
from repro.core.time_model import TimeModel
from repro.core.energy_model import EnergyModel
from repro.core.power_model import PowerModel

__all__ = [
    "AlgorithmProfile",
    "MachineModel",
    "TimeModel",
    "EnergyModel",
    "PowerModel",
]
