"""The embedded metrics registry behind the ``stats`` request."""

from __future__ import annotations

import pytest

import asyncio

from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.server import ModelServer, ServerConfig


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(7.0)
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value == pytest.approx(8.0)


class TestHistogram:
    def test_exact_aggregates(self):
        hist = Histogram()
        for value in (1.0, 5.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(9.0)
        assert hist.min == 1.0
        assert hist.max == 5.0
        assert hist.mean == pytest.approx(3.0)

    def test_percentiles_nearest_rank(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == 51.0
        assert hist.percentile(99) == 100.0
        assert hist.percentile(0) == 1.0

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(50) == 0.0

    def test_reservoir_is_bounded_but_count_exact(self):
        hist = Histogram(sample_size=8)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100
        # The window holds only the most recent 8 observations.
        assert hist.percentile(0) == 92.0

    def test_track_values_tallies_integers(self):
        hist = Histogram(track_values=True)
        for size in (1, 4, 4, 8, 8, 8):
            hist.observe(size)
        snapshot = hist.snapshot()
        assert snapshot["values"] == {"1": 1, "4": 2, "8": 3}

    def test_snapshot_without_tracking_has_no_values(self):
        hist = Histogram()
        hist.observe(1.0)
        snapshot = hist.snapshot()
        assert "values" not in snapshot
        assert set(snapshot) == {
            "count", "mean", "min", "max", "p50", "p90", "p99",
        }

    def test_empty_snapshot_is_all_zero(self):
        snapshot = Histogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] == 0.0
        assert snapshot["max"] == 0.0
        assert snapshot["p99"] == 0.0


class TestRegistry:
    def test_instruments_are_memoised_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(2.0)
        registry.histogram("latency").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"requests": 3}
        assert snapshot["gauges"] == {"depth": 2.0}
        assert snapshot["histograms"]["latency"]["count"] == 1

    def test_snapshot_is_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("batch", track_values=True).observe(4)
        json.dumps(registry.snapshot())


class TestPercentilesBatch:
    """The single-sort percentile path behind every stats snapshot."""

    def test_batch_matches_scalar_percentiles(self):
        h = Histogram()
        for v in (5.0, 1.0, 4.0, 2.0, 3.0):
            h.observe(v)
        qs = (0.0, 25.0, 50.0, 90.0, 99.0, 100.0)
        assert h.percentiles(qs) == [h.percentile(q) for q in qs]

    def test_empty_batch_is_all_zero(self):
        assert Histogram().percentiles((50.0, 90.0, 99.0)) == [0.0, 0.0, 0.0]

    def test_cache_invalidated_by_observe(self):
        h = Histogram()
        h.observe(1.0)
        assert h.percentile(99.0) == 1.0  # builds the sorted cache
        h.observe(100.0)
        assert h.percentile(99.0) == 100.0  # cache was dirtied

    def test_snapshot_percentiles_consistent(self):
        h = Histogram()
        for v in range(200):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["p50"] == h.percentile(50.0)
        assert snap["p90"] == h.percentile(90.0)
        assert snap["p99"] == h.percentile(99.0)
        assert snap["p50"] <= snap["p90"] <= snap["p99"]


class TestServingMetricsSurface:
    """The ``stats`` op surfaces the zero-copy hot path's instruments:
    wire-framing counters, the plan-cache block, and (with workers)
    the ring-transport block."""

    @staticmethod
    def _run(coro):
        return asyncio.run(coro)

    @staticmethod
    def _server(**overrides) -> ModelServer:
        config = {"cache_size": 0, "flush_window": 0.0}
        config.update(overrides)
        return ModelServer(ServerConfig(**config))

    def test_fresh_server_exposes_wire_counters_at_zero(self):
        async def scenario():
            server = self._server()
            await server.start()
            try:
                response = await server.handle_request(
                    {"id": 1, "op": "stats"}
                )
            finally:
                await server.stop()
            return response["result"]

        stats = self._run(scenario())
        counters = stats["counters"]
        assert counters["wire_binary_connections_total"] == 0
        assert counters["wire_ndjson_connections_total"] == 0
        config = stats["config"]
        assert config["wire"] == "auto"

    def test_plan_cache_block_tracks_in_loop_engine(self):
        async def scenario():
            server = self._server()
            await server.start()
            try:
                curve = {
                    "op": "curve",
                    "machine": "i7-950-double",
                    "kind": "roofline",
                }
                await server.handle_request({"id": 1, **curve})
                await server.handle_request({"id": 2, **curve})
                response = await server.handle_request(
                    {"id": 3, "op": "stats"}
                )
            finally:
                await server.stop()
            return response["result"]["plan_cache"]

        plan_cache = self._run(scenario())
        assert plan_cache["misses"] == 1
        assert plan_cache["hits"] == 1
        assert plan_cache["size"] == 1
        assert plan_cache["hit_ratio"] == 0.5
        assert plan_cache["capacity"] > 0

    def test_worker_stats_expose_ring_block(self):
        async def scenario():
            server = self._server(workers=1)
            await server.start()
            try:
                await server.pool.ready()
                await server.handle_request(
                    {
                        "id": 1,
                        "op": "curve",
                        "machine": "i7-950-double",
                        "kind": "roofline",
                    }
                )
                response = await server.handle_request(
                    {"id": 2, "op": "stats"}
                )
            finally:
                await server.stop()
            return response["result"]

        stats = self._run(scenario())
        ring = stats["workers"]["ring"]
        assert set(ring) == {"slot_size", "jobs", "fallbacks"}
        assert ring["jobs"] + ring["fallbacks"] >= 1
