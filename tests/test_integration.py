"""Cross-module integration: the full pipelines, end to end.

These tests wire together what the unit tests check in isolation:
measurement campaign → regression → model instantiation → prediction of
*unseen* workloads; experiments agreeing with each other; and the
extension layers composing with the core.
"""

from __future__ import annotations

import pytest

from repro.config import NOISELESS
from repro.core.fitting import fit_energy_coefficients
from repro.core.params import MachineModel
from repro.machines.specs import GTX580_SPEC
from repro.microbench.sweep import IntensitySweep
from repro.powermon.channels import gpu_rails
from repro.powermon.session import MeasurementSession
from repro.simulator.device import SimulatedDevice, gtx580_truth
from repro.simulator.kernel import KernelSpec, Precision


class TestMeasureFitPredictLoop:
    """The library's central promise: characterise a machine once, then
    predict arbitrary kernels on it."""

    @pytest.fixture(scope="class")
    def fitted_machine(self) -> MachineModel:
        truth = gtx580_truth()
        samples = []
        for precision in (Precision.SINGLE, Precision.DOUBLE):
            sweep = IntensitySweep(truth, precision=precision)
            samples.extend(
                sweep.run([0.5, 1.0, 2.0, 4.0, 8.0, 16.0]).energy_samples()
            )
        fit = fit_energy_coefficients(samples)
        return fit.to_machine(
            "gtx580 (fitted)",
            tau_flop=GTX580_SPEC.tau_flop(double_precision=False),
            tau_mem=GTX580_SPEC.tau_mem,
        )

    @pytest.mark.parametrize("intensity", [0.3, 1.7, 3.0, 48.0])
    def test_predicts_unseen_intensities(self, fitted_machine, intensity):
        """Intensities never used in the fit predict to a few percent.

        The fitted model has ideal (spec) time costs while the device
        runs at achieved fractions, so predictions carry that known
        ~12-27% time-side bias; compare energy against a *dynamic +
        constant-at-measured-time* oracle instead, which is the
        measurement the model claims to explain.
        """
        device = SimulatedDevice(gtx580_truth())
        session = MeasurementSession(device, gpu_rails(), noise=NOISELESS, seed=3)
        kernel = KernelSpec.from_intensity(
            intensity, work=5e10, precision=Precision.SINGLE,
            launch=device.truth.tuning.optimal_launch,
        )
        measured = session.measure(kernel)
        predicted = (
            kernel.work * fitted_machine.eps_flop
            + kernel.traffic * fitted_machine.eps_mem
            + fitted_machine.pi0 * measured.time
        )
        assert predicted == pytest.approx(measured.energy, rel=0.02)

    def test_fitted_machine_matches_catalog(self, fitted_machine):
        """The measure-and-fit loop reconstructs the published catalog
        machine (whose coefficients came from the paper's Table IV)."""
        from repro.machines.catalog import gtx580_single

        catalog = gtx580_single()
        assert fitted_machine.eps_flop == pytest.approx(catalog.eps_flop, rel=0.01)
        assert fitted_machine.eps_mem == pytest.approx(catalog.eps_mem, rel=0.01)
        assert fitted_machine.pi0 == pytest.approx(catalog.pi0, rel=0.01)
        assert fitted_machine.b_eps == pytest.approx(catalog.b_eps, rel=0.02)


class TestExperimentCrossConsistency:
    def test_fig4_balances_match_table4_fit(self):
        """Fig. 4's annotated balance points are derived from Table IV's
        coefficients; both experiments must agree."""
        from repro.experiments import run_experiment

        fig4 = run_experiment("fig4", points_per_octave=1)
        table4 = run_experiment("table4", points_per_octave=1)
        fitted_b_eps = table4.value("gpu_eps_mem_pj") / table4.value(
            "gpu_eps_single_pj"
        )
        assert fig4.value("gpu_single_b_eps") == pytest.approx(fitted_b_eps, rel=0.01)

    def test_fig5_peak_matches_power_model(self):
        """Fig. 5's model peak equals PowerModel.max_power for the
        catalog machine (same eq. 7, two code paths)."""
        from repro.core.power_model import PowerModel
        from repro.experiments import run_experiment
        from repro.machines.catalog import gtx580_single

        fig5 = run_experiment("fig5", points_per_octave=1)
        assert fig5.value("gpu_single_model_peak_watts") == pytest.approx(
            PowerModel(gtx580_single()).max_power
        )


class TestExtensionComposition:
    def test_dvfs_machines_feed_all_models(self, cpu_double):
        """A DVFS-scaled machine is a first-class MachineModel: arch
        lines, powerlines, and balance analysis all work on it."""
        from repro.core.balance import analyze
        from repro.core.dvfs import DvfsMachine
        from repro.core.power_model import PowerModel

        scaled = DvfsMachine(cpu_double).machine_at(0.5)
        assert PowerModel(scaled).max_power > 0
        report = analyze(scaled)
        assert report.b_tau == pytest.approx(cpu_double.b_tau * 0.5)
