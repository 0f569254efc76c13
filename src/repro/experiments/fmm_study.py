"""§V-C: the FMM U-list energy study.

Builds a real octree over a uniform point cloud, constructs U-lists,
runs all 390 implementation variants through the simulated GTX 580 under
the measurement session, and executes the paper's estimation workflow:
naive eq. (2) estimates (≈33% low), the 187 pJ/B-class cache-energy fit
on the reference implementation, and cache-corrected estimates for the
~160 L1/L2-only variants (median error ≈4%).
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentResult, experiment
from repro.fmm.estimator import FmmEnergyStudy
from repro.fmm.points import uniform_cloud
from repro.fmm.tree import Octree
from repro.fmm.ulist import build_ulist
from repro.fmm.variants import generate_variants, reference_variant
from repro.units import to_picojoules

__all__ = ["run"]


@experiment("fmm", "§V-C — FMM U-list cache-energy study")
def run(
    *,
    n_points: int = 4000,
    leaf_capacity: int = 64,
    seed: int = 3,
    max_variants: int | None = None,
) -> ExperimentResult:
    """Run the study; ``max_variants`` trims the space for quick checks."""
    positions, densities = uniform_cloud(n_points, seed=seed)
    tree = Octree.build(positions, densities, leaf_capacity=leaf_capacity)
    tree.validate()
    ulist = build_ulist(tree)
    variants = generate_variants()
    if max_variants is not None:
        # Keep the reference variant in the trimmed set: it anchors the fit.
        trimmed = variants[:max_variants]
        if reference_variant() not in trimmed:
            trimmed.append(reference_variant())
        variants = trimmed

    study = FmmEnergyStudy(tree, ulist)
    result = study.run(variants)

    mean_ulist = ulist.neighbours.size / len(ulist)
    text = "\n".join(
        [
            f"geometry: n={tree.n_points} points, {tree.n_leaves} leaves "
            f"(capacity {leaf_capacity}), mean |U(B)| = {mean_ulist:.1f}",
            "",
            result.describe(),
            "",
            "paper targets: naive estimates ~33% low on average; fitted cache "
            "cost 187 pJ/B; corrected median error 4.1% on ~160 L1/L2-only kernels.",
        ]
    )
    return ExperimentResult(
        experiment_id="fmm",
        title="§V-C — FMM U-list cache-energy study",
        text=text,
        values={
            "n_variants": float(len(result.observations)),
            "n_l1l2_variants": float(len(result.l1l2_observations)),
            "naive_mean_signed_error": result.naive_summary.mean_signed,
            "eps_cache_fit_pj": to_picojoules(result.eps_cache_fit),
            "corrected_median_error": result.corrected_summary.median_abs,
            "corrected_p90_error": result.corrected_summary.p90_abs,
        },
    )
