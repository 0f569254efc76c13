"""Check registration, validation, and parameter expansion."""

from __future__ import annotations

import pytest

from repro.perfreg import Metric, PerfCheck, all_checks, expand_checks
from repro.perfreg.registry import (
    UnknownCheckError,
    instance_id,
)


class MultiCheck(PerfCheck):
    name = "synthetic.multi"
    area = "synthetic"
    params = {"workers": (0, 4), "mode": ("fast",)}
    metrics = (Metric("throughput_rps", "req/s"),)

    def run(self, ctx):
        return {"throughput_rps": 1.0}


class PlainCheck(PerfCheck):
    name = "synthetic.plain"
    area = "synthetic"
    metrics = (Metric("speedup", "x"),)

    def run(self, ctx):
        return {"speedup": 1.0}


REGISTRY = {MultiCheck.name: MultiCheck, PlainCheck.name: PlainCheck}


class TestInstanceId:
    def test_no_params_is_bare_name(self):
        assert instance_id("a.b", {}) == "a.b"

    def test_keys_are_sorted(self):
        assert (
            instance_id("a.b", {"z": 1, "a": "x"}) == "a.b[a=x,z=1]"
        )


class TestExpansion:
    def test_cartesian_product_one_instance_per_point(self):
        instances = expand_checks(registry=REGISTRY)
        ids = [inst.instance_id for inst in instances]
        assert ids == [
            "synthetic.multi[mode=fast,workers=0]",
            "synthetic.multi[mode=fast,workers=4]",
            "synthetic.plain",
        ]

    def test_params_reach_the_instance(self):
        instances = expand_checks(["synthetic.multi"], registry=REGISTRY)
        assert [inst.params for inst in instances] == [
            {"mode": "fast", "workers": 0},
            {"mode": "fast", "workers": 4},
        ]

    def test_none_point_keeps_the_bare_instance(self):
        class GrownCheck(PlainCheck):
            name = "synthetic.grown"
            params = {"wire": (None, "binary")}

        instances = expand_checks(registry={GrownCheck.name: GrownCheck})
        assert [inst.instance_id for inst in instances] == [
            "synthetic.grown",
            "synthetic.grown[wire=binary]",
        ]
        assert [inst.params for inst in instances] == [{}, {"wire": "binary"}]

    def test_empty_patterns_select_everything(self):
        assert len(expand_checks([], registry=REGISTRY)) == 3
        assert len(expand_checks(None, registry=REGISTRY)) == 3


class TestMatching:
    def test_bare_name_selects_all_parameter_points(self):
        instances = expand_checks(["synthetic.multi"], registry=REGISTRY)
        assert len(instances) == 2

    def test_glob_on_check_name(self):
        instances = expand_checks(["synthetic.*"], registry=REGISTRY)
        assert len(instances) == 3

    def test_exact_instance_id_with_brackets(self):
        """``[workers=0]`` must match literally, not as a glob class."""
        instances = expand_checks(
            ["synthetic.multi[mode=fast,workers=0]"], registry=REGISTRY
        )
        assert [inst.instance_id for inst in instances] == [
            "synthetic.multi[mode=fast,workers=0]"
        ]

    def test_glob_on_instance_id(self):
        instances = expand_checks(
            ["synthetic.multi[*workers=4*"], registry=REGISTRY
        )
        assert [inst.params["workers"] for inst in instances] == [4]

    def test_unmatched_pattern_is_an_error(self):
        with pytest.raises(UnknownCheckError, match="synthetic.typo"):
            expand_checks(["synthetic.typo"], registry=REGISTRY)

    def test_one_bad_pattern_poisons_the_run_even_with_good_ones(self):
        with pytest.raises(UnknownCheckError):
            expand_checks(
                ["synthetic.plain", "no.such.check"], registry=REGISTRY
            )


class TestValidation:
    def test_metric_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            Metric("x", "s", "sideways_is_better")

    def test_check_requires_dotted_name(self):
        class Nameless(PlainCheck):
            name = "flat"

        with pytest.raises(ValueError, match="<area>"):
            Nameless().validate()

    def test_check_requires_metrics(self):
        class Metricless(PlainCheck):
            metrics = ()

        with pytest.raises(ValueError, match="no metrics"):
            Metricless().validate()

    def test_duplicate_metric_names_rejected(self):
        class Doubled(PlainCheck):
            metrics = (Metric("speedup", "x"), Metric("speedup", "x"))

        with pytest.raises(ValueError, match="twice"):
            Doubled().validate()

    def test_params_must_be_nonempty_tuples(self):
        class BadParams(PlainCheck):
            params = {"n": [1, 2]}

        with pytest.raises(ValueError, match="non-empty tuple"):
            BadParams().validate()


class TestProductionRegistry:
    def test_shipped_checks_are_registered(self):
        names = set(all_checks())
        assert {
            "batch.sweep",
            "experiments.fmm",
            "experiments.fig4",
            "cachesim.fmm_batch_lru",
            "service.closed_loop",
            "service.open_loop",
            "service.micro_batching",
            "service.worker_pool",
        } <= names

    def test_micro_batching_tracks_the_socket_path(self):
        ids = [
            inst.instance_id
            for inst in expand_checks(["service.micro_batching"])
        ]
        assert ids == [
            "service.micro_batching",
            "service.micro_batching[wire=binary]",
        ]

    def test_shipped_checks_validate(self):
        for cls in all_checks().values():
            cls().validate()

    def test_shipped_areas_cover_the_three_trajectories(self):
        areas = {cls().area for cls in all_checks().values()}
        assert {"batch", "cachesim", "service"} <= areas

    def test_fmm_study_check_times_every_phase(self):
        """The study's phases at the experiment's default size, with the
        fitted cache cost the sanity check grades."""
        from repro.perfreg.checks import measure_fmm_study

        times, eps_cache_pj = measure_fmm_study(n_points=4000)
        assert set(times) == {
            "tree_ms", "validate_ms", "ulist_ms", "study_ms", "total_ms"
        }
        phases = [times[k] for k in ("tree_ms", "validate_ms", "ulist_ms", "study_ms")]
        assert min(phases) > 0
        assert times["total_ms"] == pytest.approx(sum(phases))
        assert eps_cache_pj == pytest.approx(189.744, abs=1e-3)
        [inst] = expand_checks(["experiments.fmm"])
        assert inst.instance_id == "experiments.fmm[n_points=64000]"
        assert inst.check.area == "batch"

    def test_fig4_check_times_and_traces_the_sweep(self):
        """Both passes start from an empty panel memo and leave it empty;
        the sanity value is the sweep's GPU double flop fraction."""
        from repro.experiments._sweeps import _PANEL_MEMO
        from repro.perfreg.checks import measure_fig4_sweep

        values, fraction = measure_fig4_sweep(points_per_octave=2)
        assert set(values) == {"sweep_ms", "campaign_peak_mb"}
        assert values["sweep_ms"] > 0 and values["campaign_peak_mb"] > 0
        assert fraction == pytest.approx(0.99316, abs=1e-5)
        assert not _PANEL_MEMO
        [inst] = expand_checks(["experiments.fig4"])
        assert inst.instance_id == "experiments.fig4[points_per_octave=64]"
        assert inst.check.area == "batch"
