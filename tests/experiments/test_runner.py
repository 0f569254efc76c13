"""ExperimentRunner: content-addressed caching and parallel execution."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentRunner, cache_key


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("table2") == cache_key("table2")

    def test_distinguishes_experiments(self):
        assert cache_key("table2") != cache_key("table3")

    def test_distinguishes_kwargs(self):
        assert cache_key("fig4", {"points_per_octave": 1}) != cache_key(
            "fig4", {"points_per_octave": 2}
        )

    def test_jobs_does_not_change_the_key(self):
        # Parallelism changes wall time, never values.
        assert cache_key("fig4", {"jobs": 8}) == cache_key("fig4", {})

    def test_is_a_sha256_hex_digest(self):
        key = cache_key("table2")
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")


class TestCaching:
    def test_miss_then_hit(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        first = runner.run("table2")
        assert list(tmp_path.glob("*.json"))  # populated on the miss
        second = runner.run("table2")
        assert second == first

    def test_hit_replays_from_disk_not_recompute(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run("table2")
        # Poison the cache entry: a replayed (not recomputed) result
        # carries the sentinel back out.
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["title"] = "CACHE-REPLAY-SENTINEL"
        path.write_text(json.dumps(payload))
        assert runner.run("table2").title == "CACHE-REPLAY-SENTINEL"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run("table2")
        path = next(tmp_path.glob("*.json"))
        path.write_text("{not json")
        result = runner.run("table2")  # silently recomputes
        assert result.experiment_id == "table2"

    def test_no_cache_dir_means_no_files(self, tmp_path):
        runner = ExperimentRunner()
        result = runner.run("table2")
        assert result.experiment_id == "table2"
        assert not list(tmp_path.iterdir())

    def test_kwargs_partition_the_cache(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run("fig4", points_per_octave=1)
        assert len(list(tmp_path.glob("*.json"))) == 1
        runner.run("fig4", points_per_octave=2)
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestRunMany:
    def test_preserves_input_order(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        results = runner.run_many(["table3", "table2"])
        assert [r.experiment_id for r in results] == ["table3", "table2"]

    def test_mixed_hits_and_misses(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run("table2")
        results = runner.run_many(["table2", "table3"])
        assert [r.experiment_id for r in results] == ["table2", "table3"]
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_unknown_id_fails_before_running_anything(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        with pytest.raises(ExperimentError):
            runner.run_many(["table2", "no-such-experiment"])
        assert not list(tmp_path.glob("*.json"))

    def test_parallel_execution_matches_serial(self, tmp_path):
        serial = ExperimentRunner().run_many(["table2", "table3"])
        parallel = ExperimentRunner(jobs=2).run_many(["table2", "table3"])
        assert parallel == serial

    def test_parallel_run_populates_cache(self, tmp_path):
        runner = ExperimentRunner(jobs=2, cache_dir=tmp_path)
        runner.run_many(["table2", "table3"])
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestKwargFiltering:
    """Broadcast kwargs reach only the experiments whose signature names
    them, and never fragment a cache entry."""

    def test_unsupported_kwarg_is_dropped(self):
        # table2 takes no max_variants; the call must not TypeError.
        result = ExperimentRunner().run("table2", max_variants=5)
        assert result.experiment_id == "table2"

    def test_dropped_kwarg_shares_the_cache_entry(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run("table2")
        runner.run("table2", max_variants=5)
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_run_many_broadcasts_selectively(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        results = runner.run_many(["table2", "table3"], max_variants=4)
        assert [r.experiment_id for r in results] == ["table2", "table3"]

    def test_supported_kwarg_still_partitions(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run("fig4", points_per_octave=1)
        runner.run("fig4", points_per_octave=2)
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestJobsForwarding:
    def test_jobs_reaches_only_experiments_that_accept_it(self, monkeypatch):
        """The FMM study takes no ``jobs``: a runner with a job budget
        still runs it, with the values of a one-job runner."""
        import repro.experiments.registry as registry

        seen = []
        real = registry.run_experiment

        def spy(experiment_id, **kwargs):
            seen.append(kwargs)
            return real(experiment_id, **kwargs)

        monkeypatch.setattr("repro.experiments.runner.run_experiment", spy)
        kwargs = {"n_points": 600, "max_variants": 4}
        parallel = ExperimentRunner(jobs=2).run("fmm", **kwargs)
        serial = ExperimentRunner().run("fmm", **kwargs)
        assert seen == [kwargs, kwargs]
        assert parallel == serial


class TestValidation:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ExperimentError):
            ExperimentRunner(jobs=0)

    def test_rejects_cache_dir_that_is_a_file(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.raises(ExperimentError):
            ExperimentRunner(cache_dir=blocker)
