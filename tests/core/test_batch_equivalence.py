"""Scalar vs batch equivalence: the safety net for the array fast path.

Every ``*_batch`` method must match its scalar counterpart element-wise
to 1e-12 on random intensity grids — over the catalog machines, over
hypothesis-random machines, and through the curve-sampling layer that
now runs on the batch path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.energy_model import EnergyModel
from repro.core.params import (
    MachineModel,
    effective_energy_balance,
    effective_energy_balance_batch,
)
from repro.core.power_model import PowerModel
from repro.core.powercap import CappedModel
from repro.core.rooflines import (
    archline_series,
    capped_powerline_series,
    powerline_series,
    roofline_series,
)
from repro.core.time_model import TimeModel
from repro.exceptions import ParameterError
from tests.conftest import machine_strategy

RTOL = 1e-12


def random_grid(n: int = 257, *, seed: int = 7, lo: float = -4.0, hi: float = 4.0):
    """A random log-uniform intensity grid spanning eight decades."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(lo, hi, n)


def assert_matches_scalar(batch: np.ndarray, scalar_fn, grid: np.ndarray) -> None:
    expected = np.array([scalar_fn(float(x)) for x in grid])
    np.testing.assert_allclose(batch, expected, rtol=RTOL, atol=0.0)


class TestMachineModelBatch:
    def test_b_eps_hat(self, catalog_machine):
        grid = random_grid()
        assert_matches_scalar(
            catalog_machine.b_eps_hat_batch(grid), catalog_machine.b_eps_hat, grid
        )

    def test_module_level_function(self, catalog_machine):
        grid = random_grid(seed=13)
        m = catalog_machine
        batch = effective_energy_balance_batch(grid, m.b_tau, m.b_eps, m.eta_flop)
        expected = np.array(
            [
                effective_energy_balance(float(x), m.b_tau, m.b_eps, m.eta_flop)
                for x in grid
            ]
        )
        np.testing.assert_allclose(batch, expected, rtol=RTOL, atol=0.0)


class TestTimeModelBatch:
    @pytest.mark.parametrize(
        "batch_name,scalar_name",
        [
            ("communication_penalty_batch", "communication_penalty"),
            ("normalized_performance_batch", "normalized_performance"),
            ("attainable_gflops_batch", "attainable_gflops"),
            ("time_per_flop_batch", "time_per_flop"),
        ],
    )
    def test_matches_scalar(self, catalog_machine, batch_name, scalar_name):
        model = TimeModel(catalog_machine)
        grid = random_grid()
        assert_matches_scalar(
            getattr(model, batch_name)(grid), getattr(model, scalar_name), grid
        )


class TestEnergyModelBatch:
    @pytest.mark.parametrize(
        "batch_name,scalar_name",
        [
            ("energy_penalty_batch", "energy_penalty"),
            ("normalized_efficiency_batch", "normalized_efficiency"),
            ("attainable_gflops_per_joule_batch", "attainable_gflops_per_joule"),
            ("energy_per_flop_batch", "energy_per_flop"),
        ],
    )
    def test_matches_scalar(self, catalog_machine, batch_name, scalar_name):
        model = EnergyModel(catalog_machine)
        grid = random_grid()
        assert_matches_scalar(
            getattr(model, batch_name)(grid), getattr(model, scalar_name), grid
        )


class TestPowerModelBatch:
    @pytest.mark.parametrize(
        "batch_name,scalar_name",
        [("power_batch", "power"), ("normalized_power_batch", "normalized_power")],
    )
    def test_matches_scalar(self, catalog_machine, batch_name, scalar_name):
        model = PowerModel(catalog_machine)
        grid = random_grid()
        assert_matches_scalar(
            getattr(model, batch_name)(grid), getattr(model, scalar_name), grid
        )


class TestClassifyAndCapBatch:
    """The enum/bool batch paths must agree with their scalars *exactly* —
    including at and within 1 ulp of the balance points, where the
    ``math.isclose`` tie-break decides the answer."""

    @staticmethod
    def edge_grid(center: float) -> np.ndarray:
        span = np.array([1 - 5e-9, 1 - 5e-10, 1.0, 1 + 5e-10, 1 + 5e-9])
        return np.concatenate(([1e-3, 1e4], center * span))

    def test_time_classify(self, catalog_machine):
        model = TimeModel(catalog_machine)
        grid = np.concatenate(
            (random_grid(), self.edge_grid(catalog_machine.b_tau))
        )
        batch = model.classify_batch(grid)
        assert batch.dtype == object
        assert list(batch) == [model.classify(float(x)) for x in grid]

    def test_energy_classify(self, catalog_machine):
        model = EnergyModel(catalog_machine)
        crossing = catalog_machine.effective_balance_crossing
        grid = np.concatenate((random_grid(seed=11), self.edge_grid(crossing)))
        batch = model.classify_batch(grid)
        assert list(batch) == [model.classify(float(x)) for x in grid]

    def test_exceeds_cap_with_and_without_cap(self, gpu_single, fermi):
        grid = random_grid(seed=17)
        capped = PowerModel(gpu_single.with_power_cap(244.0))
        batch = capped.exceeds_cap_batch(grid)
        assert batch.dtype == bool
        assert batch.any() and not batch.all()
        assert list(batch) == [capped.exceeds_cap(float(x)) for x in grid]
        uncapped = PowerModel(fermi)  # Table II machine has no cap
        assert uncapped.machine.power_cap is None
        assert not uncapped.exceeds_cap_batch(grid).any()

    def test_classify_batch_rejects_bad_input(self, fermi):
        with pytest.raises(ParameterError):
            TimeModel(fermi).classify_batch(np.array([1.0, -2.0]))
        with pytest.raises(ParameterError):
            EnergyModel(fermi).classify_batch(np.array([], dtype=float))
        with pytest.raises(ParameterError):
            PowerModel(fermi).exceeds_cap_batch(np.array([0.0]))

    def test_classify_batch_scalar_round_trip(self, fermi):
        model = TimeModel(fermi)
        assert model.classify_batch(np.asarray(fermi.b_tau)) == model.classify(
            fermi.b_tau
        )


class TestCappedModelBatch:
    @pytest.fixture(params=[244.0, None])
    def capped(self, gpu_single, request) -> CappedModel:
        return CappedModel(gpu_single.with_power_cap(request.param))

    @pytest.mark.parametrize(
        "batch_name,scalar_name",
        [
            ("slowdown_batch", "slowdown"),
            ("normalized_performance_batch", "normalized_performance"),
            ("attainable_gflops_batch", "attainable_gflops"),
            ("power_batch", "power"),
            ("energy_per_flop_batch", "energy_per_flop"),
            ("normalized_efficiency_batch", "normalized_efficiency"),
        ],
    )
    def test_matches_scalar(self, capped, batch_name, scalar_name):
        grid = random_grid()
        assert_matches_scalar(
            getattr(capped, batch_name)(grid), getattr(capped, scalar_name), grid
        )


class TestHypothesisMachines:
    """The equivalence must hold for arbitrary physical machines."""

    @settings(max_examples=50)
    @given(machine=machine_strategy())
    def test_time_energy_power(self, machine: MachineModel):
        grid = random_grid(65, seed=3)
        assert_matches_scalar(
            TimeModel(machine).normalized_performance_batch(grid),
            TimeModel(machine).normalized_performance,
            grid,
        )
        assert_matches_scalar(
            EnergyModel(machine).energy_per_flop_batch(grid),
            EnergyModel(machine).energy_per_flop,
            grid,
        )
        assert_matches_scalar(
            PowerModel(machine).power_batch(grid),
            PowerModel(machine).power,
            grid,
        )

    @settings(max_examples=25)
    @given(machine=machine_strategy(allow_cap=True))
    def test_capped_model(self, machine: MachineModel):
        capped = CappedModel(machine)
        grid = random_grid(65, seed=5)
        assert_matches_scalar(capped.slowdown_batch(grid), capped.slowdown, grid)
        assert_matches_scalar(capped.power_batch(grid), capped.power, grid)


class TestSeriesOnBatchPath:
    """The curve-sampling layer must produce the scalar API's numbers."""

    def test_roofline_series(self, catalog_machine):
        series = roofline_series(catalog_machine, lo=0.25, hi=64.0, normalized=False)
        model = TimeModel(catalog_machine)
        assert_matches_scalar(series.values, model.attainable_gflops, series.intensities)

    def test_archline_series(self, catalog_machine):
        series = archline_series(catalog_machine, lo=0.25, hi=64.0, normalized=True)
        model = EnergyModel(catalog_machine)
        assert_matches_scalar(
            series.values, model.normalized_efficiency, series.intensities
        )

    def test_powerline_series(self, catalog_machine):
        series = powerline_series(catalog_machine, lo=0.25, hi=64.0, normalized=False)
        model = PowerModel(catalog_machine)
        assert_matches_scalar(series.values, model.power, series.intensities)

    def test_capped_powerline_series(self, gpu_single):
        machine = gpu_single.with_power_cap(244.0)
        series = capped_powerline_series(machine, lo=0.25, hi=64.0)
        model = CappedModel(machine)
        assert_matches_scalar(series.values, model.power, series.intensities)


class TestBatchValidation:
    """Batch paths reject bad input exactly like the scalar API."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_and_nonfinite(self, fermi, bad):
        grid = np.array([1.0, bad, 4.0])
        with pytest.raises(ParameterError):
            TimeModel(fermi).normalized_performance_batch(grid)
        with pytest.raises(ParameterError):
            EnergyModel(fermi).normalized_efficiency_batch(grid)
        with pytest.raises(ParameterError):
            PowerModel(fermi).power_batch(grid)

    def test_rejects_empty(self, fermi):
        with pytest.raises(ParameterError):
            TimeModel(fermi).normalized_performance_batch(np.array([]))

    def test_scalar_input_round_trips(self, fermi):
        value = TimeModel(fermi).normalized_performance_batch(2.0)
        assert float(value) == TimeModel(fermi).normalized_performance(2.0)
