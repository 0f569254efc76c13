"""The §V-C energy-estimation study, end to end.

Workflow (mirroring the paper exactly):

1. **Measure** every variant: execute its U-list kernel on the simulated
   GTX 580 under the PowerMon session, yielding per-phase time and
   energy.
2. **Estimate naively** with the two-level model, eq. (2):
   ``E = W·ε_flop + Q_dram·ε_mem + π0·T`` using the Table IV fitted
   coefficients (the experimenter's best knowledge) and the measured
   time.  The paper found these estimates "lower by 33% on average".
3. **Fit a cache energy cost** on the *reference implementation* —
   divide the measured-minus-estimated gap by its L1+L2 byte count
   (the paper got ≈187 pJ/B).
4. **Re-estimate** all L1/L2-only variants with the cache term; the
   paper reports a median error of 4.1%.

Variants that stage through shared or texture memory move most of their
bytes outside the L1/L2 counters, so the correction does not transfer to
them — which is why the paper applies it only to the ~160 L1/L2-only
kernels, and why :meth:`FmmEnergyStudy.run` reports those separately.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from math import ceil

import numpy as np

from repro.analysis.stats import ErrorSummary, summarize_errors
from repro.config import DEFAULT_SEED, MeasurementProtocol, NoiseProfile
from repro.core.fitting import fit_cache_energy
from repro.core.params import MachineModel
from repro.exceptions import MeasurementError
from repro.fmm.counters import TrafficCounters, count_pairs, count_traffic
from repro.units import to_picojoules
from repro.fmm.tree import Octree
from repro.fmm.ulist import UList
from repro.fmm.variants import Variant, reference_variant
from repro.machines.catalog import gtx580_single
from repro.powermon.channels import gpu_rails
from repro.powermon.session import MeasurementSession
from repro.simulator.device import DeviceTruth, SimulatedDevice, gtx580_truth
from repro.simulator.kernel import KernelSpec, Precision

__all__ = ["VariantObservation", "StudyResult", "FmmEnergyStudy"]


#: Hidden-truth energy ratios relative to the device's blended
#: ``eps_cache`` price.  An L1 byte is cheaper (small, close SRAM), an L2
#: byte dearer (bigger arrays, longer wires).  The experimenter's fit has
#: only ONE coefficient for both — "this estimate does not of course
#: distinguish between different levels of cache access" (§V-C) — which
#: is precisely why the corrected estimates keep a few percent of error.
L1_ENERGY_RATIO = 0.3
L2_ENERGY_RATIO = 2.4
#: Energy of a shared-memory byte relative to ``eps_cache``: the
#: shared-memory SRAM sits beside the ALUs, far cheaper per access.
SHARED_ENERGY_RATIO = 0.25
#: Texture-cache byte relative to ``eps_cache``: comparable circuitry
#: plus filtering/addressing overhead.
TEXTURE_ENERGY_RATIO = 1.15


@dataclass(frozen=True)
class VariantObservation:
    """Measured and estimated energies for one variant (per U-list phase)."""

    variant: Variant
    counters: TrafficCounters
    time: float
    measured_energy: float
    naive_estimate: float
    corrected_estimate: float | None = None

    @property
    def naive_error(self) -> float:
        """Signed relative error of the eq. (2) estimate."""
        return (self.naive_estimate - self.measured_energy) / self.measured_energy

    @property
    def corrected_error(self) -> float | None:
        """Signed relative error after the cache correction (if applied)."""
        if self.corrected_estimate is None:
            return None
        return (self.corrected_estimate - self.measured_energy) / self.measured_energy


@dataclass(frozen=True)
class StudyResult:
    """Outcome of the full §V-C study.

    ``eps_cache_fit`` is the fitted per-byte cache energy (J/B);
    ``naive_summary`` and ``corrected_summary`` are error statistics over
    the L1/L2-only variants (the population the paper reports on).
    """

    observations: tuple[VariantObservation, ...]
    eps_cache_fit: float
    naive_summary: ErrorSummary
    corrected_summary: ErrorSummary

    @property
    def l1l2_observations(self) -> list[VariantObservation]:
        """The ~160 variants the cache correction applies to."""
        return [o for o in self.observations if o.variant.uses_only_l1l2]

    def describe(self) -> str:
        """Paper-style summary of the study's headline numbers."""
        return "\n".join(
            [
                f"FMM U-list energy study: {len(self.observations)} variants "
                f"({len(self.l1l2_observations)} L1/L2-only)",
                f"  naive eq.(2) estimates:   {self.naive_summary.describe()}",
                f"  fitted cache energy:      {to_picojoules(self.eps_cache_fit):.1f} pJ/B "
                "(paper: 187 pJ/B)",
                f"  cache-corrected:          {self.corrected_summary.describe()}",
            ]
        )


class FmmEnergyStudy:
    """Runs the estimation workflow against a simulated GPU.

    Parameters
    ----------
    tree, ulist:
        The FMM geometry (shared by all variants — the paper's variants
        all compute the same U-list phase).
    truth:
        Device ground truth (defaults to the GTX 580).
    machine:
        The *experimenter's* coefficient set for eq. (2) estimates —
        defaults to the Table IV catalog entry at single precision
        (the FMM kernel uses ``rsqrtf``).
    """

    def __init__(
        self,
        tree: Octree,
        ulist: UList,
        *,
        truth: DeviceTruth | None = None,
        machine: MachineModel | None = None,
        protocol: MeasurementProtocol | None = None,
        noise: NoiseProfile | None = None,
        seed: int = DEFAULT_SEED,
    ):
        self.tree = tree
        self.ulist = ulist
        self.truth = truth or gtx580_truth()
        self.machine = machine or gtx580_single()
        self.device = SimulatedDevice(self.truth)
        self._seed = seed
        self.session = MeasurementSession(
            self.device, gpu_rails(), protocol=protocol, noise=noise, seed=seed
        )
        # Pair count is a property of the geometry, not the variant —
        # compute it once and share it across all 390 measurements.
        self._pairs = count_pairs(tree, ulist)

    # ------------------------------------------------------------------

    def _variant_rng(self, vid: str) -> np.random.Generator:
        """The RNG stream of one variant, seeded from ``(seed, vid)``.

        Every variant draws its measurement noise from its own stream
        rather than from a generator shared across the sweep, so its
        observation is independent of which variants are measured with
        it and in what order.
        """
        return np.random.default_rng(
            [self._seed % (1 << 32), zlib.crc32(vid.encode("utf-8"))]
        )

    def _equivalent_cache_bytes(self, counters: TrafficCounters) -> float:
        """All on-chip traffic expressed in ``eps_cache``-cost bytes.

        The device truth prices each storage level differently; folding
        the ratios in here converts everything to equivalent bytes at the
        blended ``eps_cache`` price the simulator charges.  Only the
        simulator sees this; estimators see ``counters.q_cache_visible``.
        """
        return (
            counters.q_l1 * L1_ENERGY_RATIO
            + counters.q_l2 * L2_ENERGY_RATIO
            + counters.q_shared * SHARED_ENERGY_RATIO
            + counters.q_texture * TEXTURE_ENERGY_RATIO
        )

    def measure_variant(self, variant: Variant) -> VariantObservation:
        """Measure one variant and compute its naive eq. (2) estimate.

        The one-variant case of the study's campaign (:meth:`_measure`).
        """
        return self._measure([variant])[0]

    def _measure(self, variants: list[Variant]) -> list[VariantObservation]:
        """Measure variants in one campaign; one observation per variant.

        Each variant uses its own RNG stream (see :meth:`_variant_rng`),
        so its observation depends only on the variant and the study
        seed, not on the other variants or their order.
        """
        # Size each run for the sampler: repeat the phase enough times
        # that one measured repetition spans >= 2 sample periods.
        min_rep_time = 2.0 / self.session.protocol.sample_hz
        counters, iterations, kernels, cache_traffic, efficiency = [], [], [], [], []
        for variant in variants:
            c = count_traffic(self.tree, self.ulist, variant, pairs=self._pairs)
            eff = variant.efficiency()
            phase = KernelSpec(
                name=variant.vid, work=c.work, traffic=c.q_dram, precision=Precision.SINGLE
            )
            flop_rate, _ = self.device.effective_rates(phase, efficiency=eff)
            reps = max(1, ceil(min_rep_time / (c.work / flop_rate)))
            counters.append(c)
            iterations.append(reps)
            kernels.append(
                replace(
                    phase, name=f"fmm-{variant.vid}", work=c.work * reps, traffic=c.q_dram * reps
                )
            )
            cache_traffic.append(self._equivalent_cache_bytes(c) * reps)
            efficiency.append(eff)
        measurements = self.session.measure_many(
            kernels,
            cache_traffic=cache_traffic,
            efficiency=efficiency,
            rngs=[self._variant_rng(v.vid) for v in variants],
        )
        observations = []
        for variant, c, reps, measurement in zip(
            variants, counters, iterations, measurements
        ):
            time = measurement.time / reps
            naive = (
                c.work * self.machine.eps_flop
                + c.q_dram * self.machine.eps_mem
                + self.machine.pi0 * time
            )
            observations.append(
                VariantObservation(
                    variant=variant,
                    counters=c,
                    time=time,
                    measured_energy=measurement.energy / reps,
                    naive_estimate=naive,
                )
            )
        return observations

    def fit_cache_cost(self, reference: VariantObservation) -> float:
        """§V-C's cache-energy fit from the reference implementation."""
        if not reference.variant.uses_only_l1l2:
            raise MeasurementError(
                "the cache fit requires an L1/L2-only reference variant"
            )
        return fit_cache_energy(
            [reference.measured_energy],
            [reference.naive_estimate],
            [reference.counters.q_cache_visible],
        )

    def run(self, variants: list[Variant]) -> StudyResult:
        """Execute the full study over a variant list, in one campaign."""
        if not variants:
            raise MeasurementError("need at least one variant")
        observations = self._measure(variants)

        reference = next(
            (o for o in observations if o.variant == reference_variant()),
            None,
        )
        if reference is None:
            reference = next(
                (o for o in observations if o.variant.uses_only_l1l2), None
            )
        if reference is None:
            raise MeasurementError("no L1/L2-only variant to fit the cache cost on")
        eps_cache = self.fit_cache_cost(reference)

        corrected = [
            replace(
                o, corrected_estimate=o.naive_estimate + eps_cache * o.counters.q_cache_visible
            )
            if o.variant.uses_only_l1l2
            else o
            for o in observations
        ]

        l1l2 = [o for o in corrected if o.variant.uses_only_l1l2]
        naive_summary = summarize_errors(
            np.array([o.naive_estimate for o in l1l2]),
            np.array([o.measured_energy for o in l1l2]),
        )
        corrected_summary = summarize_errors(
            np.array([o.corrected_estimate for o in l1l2]),
            np.array([o.measured_energy for o in l1l2]),
        )
        return StudyResult(
            observations=tuple(corrected),
            eps_cache_fit=eps_cache,
            naive_summary=naive_summary,
            corrected_summary=corrected_summary,
        )
