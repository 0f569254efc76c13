"""The harness end-to-end on a fake clock — the acceptance criterion.

An injected 2x slowdown must flip the verdict to ``fail`` (exit 2)
against the rolling baseline, while ±5% jitter stays ``pass`` — the
ISSUE's acceptance bar, demonstrated here without real time: the
synthetic check times a no-op on a :class:`FakeClock` whose ``step``
*is* the measured duration.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Mapping

import pytest

import repro

from repro.perfreg import (
    Metric,
    PerfCheck,
    SanityError,
    Tolerance,
    load_records,
    run_checks,
)
from repro.perfreg.check import HIGHER_IS_BETTER
from repro.perfreg.env import env_fingerprint
from repro.perfreg.harness import baseline_table
from repro.perfreg.trajectory import bench_path

from tests.perfreg.conftest import FakeClock, TimedCheck


def _run(root, registry, clock, **kwargs):
    kwargs.setdefault("reps", 3)
    kwargs.setdefault("warmup", 1)
    return run_checks(
        None, root=root, registry=registry, clock=clock, **kwargs
    )


def _seed_green(root, registry, clock, runs=4):
    for _ in range(runs):
        result = _run(root, registry, clock)
        assert result.exit_code == 0
    return result


class TestFakeClockAcceptance:
    def test_two_x_slowdown_fails_with_exit_2(
        self, tmp_path, timed_registry, fake_clock
    ):
        _seed_green(tmp_path, timed_registry, fake_clock)

        fake_clock.step = 2.0  # every timed section now takes twice as long
        result = _run(tmp_path, timed_registry, fake_clock)

        assert result.verdict == "fail"
        assert result.exit_code == 2
        (outcome,) = result.outcomes
        (verdict,) = outcome.verdicts
        assert verdict.verdict == "fail"
        assert verdict.ratio == pytest.approx(1.0)  # +100% elapsed time
        assert verdict.baseline == pytest.approx(1.0)
        assert "fail threshold" in verdict.reason

    def test_five_percent_jitter_stays_green(
        self, tmp_path, timed_registry, fake_clock
    ):
        _seed_green(tmp_path, timed_registry, fake_clock)

        fake_clock.step = 1.05
        assert _run(tmp_path, timed_registry, fake_clock).exit_code == 0
        fake_clock.step = 0.95
        assert _run(tmp_path, timed_registry, fake_clock).exit_code == 0

    def test_mid_band_regression_warns_with_exit_1(
        self, tmp_path, timed_registry, fake_clock
    ):
        _seed_green(tmp_path, timed_registry, fake_clock)

        fake_clock.step = 1.18  # between warn (10%) and fail (25%)
        result = _run(tmp_path, timed_registry, fake_clock)
        assert result.verdict == "warn"
        assert result.exit_code == 1

    def test_failed_run_does_not_poison_the_baseline(
        self, tmp_path, timed_registry, fake_clock
    ):
        """A red run is recorded but never becomes reference history."""
        _seed_green(tmp_path, timed_registry, fake_clock)
        fake_clock.step = 2.0
        assert _run(tmp_path, timed_registry, fake_clock).exit_code == 2

        fake_clock.step = 1.0  # back to normal: still graded vs green past
        assert _run(tmp_path, timed_registry, fake_clock).exit_code == 0
        (base,) = baseline_table(
            None, root=tmp_path, registry=timed_registry
        )
        assert base.value == pytest.approx(1.0)

    def test_first_run_bootstraps_green(
        self, tmp_path, timed_registry, fake_clock
    ):
        result = _run(tmp_path, timed_registry, fake_clock)
        assert result.exit_code == 0
        (outcome,) = result.outcomes
        assert "bootstrap" in outcome.verdicts[0].reason

    def test_custom_tolerance_is_honoured(
        self, tmp_path, timed_registry, fake_clock
    ):
        _seed_green(tmp_path, timed_registry, fake_clock)
        fake_clock.step = 1.05  # 5% over: fails under a 2%/4% band
        result = _run(
            tmp_path,
            timed_registry,
            fake_clock,
            tolerance=Tolerance(warn_ratio=0.02, fail_ratio=0.04),
        )
        assert result.exit_code == 2


class TestTrajectoryPersistence:
    def test_records_land_in_the_area_file_with_monotone_ids(
        self, tmp_path, timed_registry, fake_clock
    ):
        _seed_green(tmp_path, timed_registry, fake_clock, runs=3)
        records = load_records(bench_path(tmp_path, "synthetic"))
        assert [r.run_id for r in records] == [1, 2, 3]
        assert all(r.instance == "synthetic.sleepy" for r in records)
        assert all(r.verdict == "pass" for r in records)
        assert records[0].metrics["elapsed_s"].median == pytest.approx(1.0)
        assert records[0].reps == 3 and records[0].warmup == 1
        assert records[0].env  # fingerprint travels with the record

    def test_dry_run_appends_nothing(
        self, tmp_path, timed_registry, fake_clock
    ):
        result = _run(
            tmp_path, timed_registry, fake_clock, dry_run=True
        )
        assert result.exit_code == 0
        assert not bench_path(tmp_path, "synthetic").exists()


class TestLifecycle:
    def test_setup_run_teardown_counts(self, tmp_path, fake_clock):
        calls = {"setup": 0, "run": 0, "teardown": 0}

        class Counting(TimedCheck):
            def setup(self, ctx):
                calls["setup"] += 1

            def run(self, ctx):
                calls["run"] += 1
                return super().run(ctx)

            def teardown(self, ctx):
                calls["teardown"] += 1

        _run(
            tmp_path, {Counting.name: Counting}, fake_clock,
            reps=3, warmup=2,
        )
        assert calls == {"setup": 1, "run": 5, "teardown": 1}

    def test_teardown_runs_even_when_sanity_fails(
        self, tmp_path, fake_clock
    ):
        torn_down = []

        class Broken(TimedCheck):
            def sanity(self, ctx, values):
                raise SanityError("wrong answer")

            def teardown(self, ctx):
                torn_down.append(True)

        result = _run(tmp_path, {Broken.name: Broken}, fake_clock)
        assert torn_down == [True]
        (outcome,) = result.outcomes
        assert outcome.status == "sanity_failed"
        assert result.exit_code == 2

    def test_sanity_failure_leaves_no_record(self, tmp_path, fake_clock):
        """A wrong answer must never become baseline history."""

        class Broken(TimedCheck):
            def sanity(self, ctx, values):
                raise SanityError("wrong answer")

        _run(tmp_path, {Broken.name: Broken}, fake_clock)
        assert not bench_path(tmp_path, "synthetic").exists()

    def test_missing_metric_is_a_sanity_failure(self, tmp_path, fake_clock):
        class Mute(TimedCheck):
            def run(self, ctx):
                return {}

        result = _run(tmp_path, {Mute.name: Mute}, fake_clock)
        (outcome,) = result.outcomes
        assert outcome.status == "sanity_failed"
        assert "elapsed_s" in outcome.reason

    def test_skip_reason_produces_no_record_and_passes(
        self, tmp_path, fake_clock
    ):
        class Gated(TimedCheck):
            def skip_reason(self, params):
                return "needs 4 cores, have 1"

        result = _run(tmp_path, {Gated.name: Gated}, fake_clock)
        (outcome,) = result.outcomes
        assert outcome.status == "skipped"
        assert outcome.verdict == "pass"
        assert result.exit_code == 0
        assert not bench_path(tmp_path, "synthetic").exists()


class TestWaivers:
    def test_waiver_downgrades_fail_to_warn_visibly(
        self, tmp_path, timed_registry, fake_clock
    ):
        _seed_green(tmp_path, timed_registry, fake_clock)
        (tmp_path / ".perfreg-waivers").write_text(
            "synthetic.sleepy elapsed_s -- tracked regression, issue 42\n"
        )

        fake_clock.step = 2.0
        result = _run(tmp_path, timed_registry, fake_clock)
        assert result.verdict == "warn"
        assert result.exit_code == 1
        (outcome,) = result.outcomes
        (verdict,) = outcome.verdicts
        assert "waived: tracked regression, issue 42" in verdict.reason
        # The measured regression stays visible through the waiver.
        assert verdict.ratio == pytest.approx(1.0)

    def test_waiver_never_touches_a_pass(
        self, tmp_path, timed_registry, fake_clock
    ):
        (tmp_path / ".perfreg-waivers").write_text(
            "synthetic.* * -- blanket excuse\n"
        )
        result = _run(tmp_path, timed_registry, fake_clock)
        assert result.verdict == "pass"
        assert "waived" not in result.outcomes[0].verdicts[0].reason


class TestHigherIsBetterDirection:
    def test_throughput_drop_fails(self, tmp_path, fake_clock):
        class Throughput(PerfCheck):
            name = "synthetic.throughput"
            area = "synthetic"
            metrics = (Metric("rps", "req/s", HIGHER_IS_BETTER),)
            value = 100.0

            def run(self, ctx) -> Mapping[str, float]:
                return {"rps": Throughput.value}

        registry = {Throughput.name: Throughput}
        for _ in range(3):
            assert _run(tmp_path, registry, fake_clock).exit_code == 0

        Throughput.value = 50.0  # throughput halves: a regression
        assert _run(tmp_path, registry, fake_clock).exit_code == 2
        Throughput.value = 200.0  # doubling is an improvement, not a fail
        assert _run(tmp_path, registry, fake_clock).exit_code == 0


class TestProvenance:
    """A record names the commit of the code it measured, wherever the
    trajectory root lives."""

    @staticmethod
    def _package_head() -> str:
        package = Path(repro.__file__).resolve().parent
        try:
            return subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=package, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("the repro package is not in a git checkout")

    def test_fingerprint_ignores_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        head = self._package_head()
        monkeypatch.chdir(tmp_path)
        assert env_fingerprint()["git_sha"].removesuffix("-dirty") == head

    def test_record_under_a_non_git_root_stamps_the_code_sha(
        self, tmp_path, timed_registry, fake_clock
    ):
        head = self._package_head()
        _run(tmp_path, timed_registry, fake_clock)
        (record,) = load_records(bench_path(tmp_path, "synthetic"))
        assert record.env["git_sha"].removesuffix("-dirty") == head
