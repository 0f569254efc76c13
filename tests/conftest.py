"""Shared fixtures: catalog machines, a small FMM geometry, and
hypothesis strategies for machines and algorithm profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.algorithm import AlgorithmProfile
from repro.core.params import MachineModel
from repro.fmm.points import uniform_cloud
from repro.fmm.tree import Octree
from repro.fmm.ulist import UList, build_ulist
from repro.machines.catalog import (
    gtx580_double,
    gtx580_single,
    i7_950_double,
    i7_950_single,
    keckler_fermi,
)

# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------


@pytest.fixture
def fermi() -> MachineModel:
    """Table II machine (pi0 = 0)."""
    return keckler_fermi()


@pytest.fixture
def gpu_double() -> MachineModel:
    return gtx580_double()


@pytest.fixture
def gpu_single() -> MachineModel:
    return gtx580_single()


@pytest.fixture
def cpu_double() -> MachineModel:
    return i7_950_double()


@pytest.fixture
def cpu_single() -> MachineModel:
    return i7_950_single()


@pytest.fixture(
    params=["gtx580-double", "gtx580-single", "i7-950-double", "i7-950-single"]
)
def catalog_machine(request) -> MachineModel:
    """Parametrised over the paper's four device-precision machines."""
    from repro.machines.catalog import get_machine

    return get_machine(request.param)


# ---------------------------------------------------------------------------
# FMM geometry (session-scoped: tree building is the slow part)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_tree() -> Octree:
    positions, densities = uniform_cloud(600, seed=11)
    tree = Octree.build(positions, densities, leaf_capacity=40)
    tree.validate()
    return tree


@pytest.fixture(scope="session")
def small_ulist(small_tree) -> UList:
    return build_ulist(small_tree)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


def machine_strategy(*, allow_pi0: bool = True, allow_cap: bool = False):
    """Random-but-physical machines spanning wide parameter ranges."""

    def build(tau_flop, balance_t, eps_flop, balance_e, pi0_frac, cap_mult):
        tau_mem = tau_flop * balance_t
        eps_mem = eps_flop * balance_e
        pi0 = pi0_frac * (eps_flop / tau_flop) if allow_pi0 else 0.0
        cap = None
        if allow_cap and cap_mult is not None:
            # Cap strictly above pi0, somewhere around the powerline scale.
            cap = pi0 + cap_mult * (eps_flop / tau_flop)
        return MachineModel(
            name="hypothesis-machine",
            tau_flop=tau_flop,
            tau_mem=tau_mem,
            eps_flop=eps_flop,
            eps_mem=eps_mem,
            pi0=pi0,
            power_cap=cap,
        )

    floats = st.floats(allow_nan=False, allow_infinity=False)
    return st.builds(
        build,
        floats.filter(lambda x: 1e-13 <= x <= 1e-6),
        st.floats(0.05, 100.0),
        floats.filter(lambda x: 1e-12 <= x <= 1e-7),
        st.floats(0.05, 100.0),
        st.floats(0.0, 10.0),
        st.one_of(st.none(), st.floats(0.1, 20.0)) if allow_cap else st.none(),
    )


def profile_strategy():
    """Random algorithm profiles over many orders of magnitude."""
    return st.builds(
        lambda w, i: AlgorithmProfile.from_intensity(i, work=w),
        st.floats(1e3, 1e15),
        st.floats(1e-4, 1e4),
    )


def intensity_strategy():
    return st.floats(1e-4, 1e4)
