"""Benchmarks for the extension layers (beyond the paper's evaluation).

These time the machinery the library adds on top of the reproduction —
DVFS optimisation and bootstrap fitting — and
record their headline analytic results as ``extra_info``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bootstrap import bootstrap_fit
from repro.core.algorithm import AlgorithmProfile
from repro.core.dvfs import DvfsMachine, DvfsPolicy
from repro.core.fitting import EnergySample
from repro.machines.catalog import i7_950_double


def test_dvfs_optimal_setting_search(benchmark):
    """Golden-section energy optimisation across a frequency range."""
    dvfs = DvfsMachine(i7_950_double(), DvfsPolicy(static_fraction=0.1))
    profile = AlgorithmProfile.from_intensity(0.3, work=1e11)

    best = benchmark(dvfs.energy_optimal_setting, profile)
    full = dvfs.evaluate(profile, 1.0)
    benchmark.extra_info.update(
        {
            "optimal_s": round(best.s, 4),
            "energy_saving_vs_full": round(1 - best.energy / full.energy, 4),
        }
    )
    assert best.s < 1.0  # crawling wins for this gated, memory-bound case


def test_bootstrap_fit_throughput(benchmark):
    """200-replicate bootstrap of the eq. (9) regression."""
    rng = np.random.default_rng(3)
    samples = []
    for double in (False, True):
        for k in range(10):
            intensity = 2.0 ** (-2 + 0.8 * k)
            work = 1e10
            traffic = work / intensity
            time = max(work / 1.4e12, traffic / 1.7e11)
            energy = (
                work * (99.7e-12 + (112.3e-12 if double else 0.0))
                + traffic * 513e-12
                + 122.0 * time
            ) * (1 + rng.normal(0, 0.01))
            samples.append(
                EnergySample(work=work, traffic=traffic, time=time,
                             energy=energy, double_precision=double)
            )

    result = benchmark.pedantic(
        bootstrap_fit, args=(samples,), kwargs={"replicates": 200},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    benchmark.extra_info.update(
        {
            "eps_mem_rel_ci_width": round(result.eps_mem.relative_width, 4),
            "pi0_rel_ci_width": round(result.pi0.relative_width, 4),
        }
    )
    assert result.eps_mem.contains(513e-12)

