"""repro — an energy roofline model library.

A production-grade reproduction of *"A Roofline Model of Energy"*
(Choi, Bedard, Fowler, Vuduc — IPDPS 2013): analytic time/energy/power
models for algorithm design, a simulated measurement substrate
(PowerMon 2 + PCIe interposer analogue), intensity microbenchmarks, an
FMM U-list case study, and a benchmark harness regenerating every table
and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import machines, TimeModel, EnergyModel
>>> gpu = machines.gtx580_double()
>>> round(gpu.b_tau, 2), round(gpu.b_eps, 2)
(1.03, 2.42)
>>> EnergyModel(gpu).normalized_efficiency(gpu.effective_balance_crossing)
0.5

See ``examples/quickstart.py`` for a guided tour and ``DESIGN.md`` for the
full system inventory.
"""

from repro import machines
from repro.core.algorithm import AlgorithmProfile
from repro.core.balance import BalanceReport, BoundQuadrant, analyze, classify_quadrant
from repro.core.energy_model import EnergyBreakdown, EnergyModel
from repro.core.multilevel import (
    HierarchicalProfile,
    MemoryHierarchy,
    MemoryLevel,
    MultiLevelEnergyModel,
)
from repro.core.params import MachineModel
from repro.core.power_model import PowerModel
from repro.core.powercap import CapAnalysis, CappedModel
from repro.core.rooflines import (
    CurveSeries,
    archline_series,
    powerline_series,
    roofline_series,
    roofline_vs_archline,
)
from repro.core.time_model import TimeBound, TimeBreakdown, TimeModel
from repro.core.tradeoff import (
    TradeOutcome,
    TradeoffAnalyzer,
    TradeoffPoint,
    greenup_threshold_work,
    greenup_work_ceiling,
)
from repro.core.workdepth import DepthProfile, WorkDepthTimeModel
from repro.core.ceilings import Ceiling, CeilingDiagnosis, RooflineCeilings
from repro.core.concurrency import ConcurrencyModel, MemorySubsystem
from repro.core.dvfs import DvfsMachine, DvfsPolicy, OperatingPoint
from repro.core.metrics import FusedMetrics, MetricPoint, edp, ed2p, generalized_edp
from repro.core.precision import MixedPrecisionAnalyzer, PrecisionOutcome
from repro.core.sensitivity import (
    EnergySensitivity,
    energy_sensitivity,
    whatif_pi0_zero,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "machines",
    # characterisation
    "MachineModel",
    "AlgorithmProfile",
    # models
    "TimeModel",
    "TimeBound",
    "TimeBreakdown",
    "EnergyModel",
    "EnergyBreakdown",
    "PowerModel",
    "CappedModel",
    "CapAnalysis",
    "WorkDepthTimeModel",
    "DepthProfile",
    # balance analysis
    "BalanceReport",
    "BoundQuadrant",
    "analyze",
    "classify_quadrant",
    # curves
    "CurveSeries",
    "roofline_series",
    "archline_series",
    "powerline_series",
    "roofline_vs_archline",
    # trade-offs
    "TradeoffAnalyzer",
    "TradeoffPoint",
    "TradeOutcome",
    "greenup_threshold_work",
    "greenup_work_ceiling",
    # fitting
    "EnergySample",
    "FittedCoefficients",
    "fit_energy_coefficients",
    "fit_cache_energy",
    # multi-level memory
    "MemoryLevel",
    "MemoryHierarchy",
    "HierarchicalProfile",
    "MultiLevelEnergyModel",
    # DVFS
    "DvfsMachine",
    "DvfsPolicy",
    "OperatingPoint",
    # fused metrics
    "FusedMetrics",
    "MetricPoint",
    "edp",
    "ed2p",
    "generalized_edp",
    # sensitivity
    "EnergySensitivity",
    "energy_sensitivity",
    "whatif_pi0_zero",
    # ceilings
    "Ceiling",
    "CeilingDiagnosis",
    "RooflineCeilings",
    # concurrency / latency refinement
    "ConcurrencyModel",
    "MemorySubsystem",
    # mixed precision
    "MixedPrecisionAnalyzer",
    "PrecisionOutcome",
]

# The fitting names load ``repro.core.fitting`` (and with it
# ``scipy.special``) on first access, so processes that never fit, such as
# the server, router and worker shards, import no scipy (PEP 562).
_LAZY = frozenset(
    {"EnergySample", "FittedCoefficients", "fit_energy_coefficients", "fit_cache_energy"}
)


def __getattr__(name: str):
    if name in _LAZY:
        from repro.core import fitting

        value = getattr(fitting, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY)
