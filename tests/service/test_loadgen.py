"""The closed-loop load generator behind ``bench-serve``."""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.service import ModelServer, ServerConfig, loadgen
from repro.service.loadgen import (
    LoadReport,
    bench_serving,
    intensity_sequence,
)


class TestIntensitySequence:
    def test_deterministic(self):
        assert np.array_equal(intensity_sequence(64), intensity_sequence(64))

    def test_unique_mode_has_no_repeats(self):
        grid = intensity_sequence(256, unique=True)
        assert np.unique(grid).size == 256

    def test_pooled_mode_repeats(self):
        grid = intensity_sequence(256, unique=False)
        assert np.unique(grid).size <= 16

    def test_range_is_the_paper_grid(self):
        grid = intensity_sequence(512)
        assert grid.min() >= 2.0**-3
        assert grid.max() <= 2.0**6


class TestBenchServing:
    def test_small_batched_run(self):
        report = bench_serving(
            ServerConfig(max_batch=8, flush_window=0.002, cache_size=0),
            requests=96,
            concurrency=24,
        )
        assert isinstance(report, LoadReport)
        assert report.requests == 96
        assert report.errors == 0
        assert report.throughput > 0
        assert report.p99_ms >= report.p50_ms >= 0
        # Batching actually happened: far fewer engine calls than requests.
        assert report.engine_calls < 96
        assert report.mean_batch > 1.0
        assert sum(
            int(size) * count
            for size, count in report.batch_size_counts.items()
        ) == 96

    def test_unbatched_run_calls_engine_per_request(self):
        report = bench_serving(
            ServerConfig(max_batch=1, flush_window=0.0, cache_size=0),
            requests=32,
            concurrency=8,
        )
        assert report.errors == 0
        assert report.engine_calls == 32

    def test_cache_participates_when_enabled(self):
        report = bench_serving(
            ServerConfig(max_batch=8, cache_size=256),
            requests=64,
            concurrency=8,
            unique_intensities=False,
        )
        assert report.errors == 0
        assert report.cache_hit_ratio > 0

    def test_describe_is_readable(self):
        report = bench_serving(
            ServerConfig(max_batch=8, cache_size=0), requests=32, concurrency=8
        )
        text = report.describe()
        assert "throughput" in text
        assert "p99" in text
        assert "batch sizes" in text

    def test_rejects_degenerate_parameters(self):
        # requests=0 is a valid (empty) run since the perfreg harness
        # landed; negative counts and zero concurrency stay errors.
        with pytest.raises(ValueError):
            bench_serving(requests=-1)
        with pytest.raises(ValueError):
            bench_serving(requests=8, concurrency=0)


class TestBatchingOverTheSocket:
    """64 callers on one binary connection must still micro-batch.

    A wave of replies settles its callers in one loop iteration only if
    the client reads every buffered reply frame per wakeup and the
    server sends each iteration's replies in one write; otherwise the
    requests reach the server one per iteration and every flush sees a
    batch of one.  The wave bound is 64 callers / 2 machine keys.
    """

    @pytest.mark.parametrize("router_backends", [0, 2])
    def test_binary_wire_keeps_batches_full(self, router_backends):
        report = bench_serving(
            ServerConfig(flush_window=0.0, cache_size=0),
            requests=2000,
            concurrency=64,
            wire="binary",
            router_backends=router_backends,
        )
        assert report.errors == 0
        assert report.requests == 2000
        assert report.mean_batch >= 8


class TestBuildRequests:
    def test_scalar_stream_matches_original_generator(self):
        from repro.service.loadgen import build_requests, intensity_sequence

        machines = ["gtx580-double", "i7-950-double"]
        reqs = build_requests(16, machines=machines, model="energy",
                              metric="energy_per_flop",
                              unique_intensities=True, workload="scalar")
        grid = intensity_sequence(16, unique=True)
        assert all(r["op"] == "eval" for r in reqs)
        assert [r["machine"] for r in reqs[:4]] == [
            machines[0], machines[1], machines[0], machines[1]
        ]
        assert [r["intensity"] for r in reqs] == [float(x) for x in grid]

    def test_streams_are_deterministic(self):
        from repro.service.loadgen import build_requests

        for workload in ("scalar", "mixed", "heavy"):
            a = build_requests(64, machines=["gtx580-double"], model="capped",
                               metric="energy_per_flop",
                               unique_intensities=True, workload=workload)
            b = build_requests(64, machines=["gtx580-double"], model="capped",
                               metric="energy_per_flop",
                               unique_intensities=True, workload=workload)
            assert a == b

    def test_mixed_cycle_composition(self):
        from repro.service.loadgen import build_requests

        reqs = build_requests(64, machines=["gtx580-double"], model="capped",
                              metric="energy_per_flop",
                              unique_intensities=True, workload="mixed")
        ops = [r["op"] for r in reqs]
        # Fixed 8-slot cycle: 4 scalars, 1 grid, 2 curves, 1 analysis.
        assert ops.count("curve") == 16
        assert sum(1 for r in reqs
                   if r["op"] == "eval" and "intensities" in r) == 8
        analyses = [op for op in ops
                    if op in ("balance", "tradeoff", "greenup", "describe")]
        assert len(analyses) == 8
        assert set(analyses) == {"balance", "tradeoff", "greenup", "describe"}

    def test_heavy_is_denser_than_mixed(self):
        from repro.service.loadgen import build_requests

        def curve_ppo(workload):
            reqs = build_requests(8, machines=["gtx580-double"],
                                  model="capped", metric="energy_per_flop",
                                  unique_intensities=True, workload=workload)
            return next(r["points_per_octave"] for r in reqs
                        if r["op"] == "curve")

        assert curve_ppo("heavy") > curve_ppo("mixed")

    def test_rejects_unknown_workload(self):
        from repro.service.loadgen import build_requests

        with pytest.raises(ValueError):
            build_requests(8, machines=["gtx580-double"], model="energy",
                           metric="energy_per_flop", unique_intensities=True,
                           workload="nope")


class TestOpenLoop:
    def test_open_loop_report(self):
        report = bench_serving(
            ServerConfig(max_batch=8, flush_window=0.001, cache_size=0),
            requests=64,
            concurrency=8,
            open_loop_rate=2000.0,
        )
        assert report.mode == "open"
        assert report.errors == 0
        assert report.requests == 64
        assert report.offered_rps > 0
        assert report.p99_ms >= report.p50_ms
        text = report.describe()
        assert "open loop" in text
        assert "offered" in text

    def test_latency_includes_dispatch_lateness(self):
        """Coordinated-omission guard: a server stall is billed to the
        requests that *should* have been issued during it."""
        import asyncio

        from repro.service.loadgen import run_open_loop
        from repro.service.server import ModelServer, ServerConfig

        class StallingClient:
            """One connection: requests serialize, the first one stalls."""

            def __init__(self, server):
                self._server = server
                self._lock = asyncio.Lock()
                self.calls = 0

            async def call(self, body):
                async with self._lock:
                    self.calls += 1
                    if self.calls == 1:
                        await asyncio.sleep(0.25)  # quarter-second stall
                    return await self._server.handle_request(dict(body))

        async def scenario():
            server = ModelServer(ServerConfig(cache_size=0))
            try:
                return await run_open_loop(
                    server, rate=1000.0, requests=50,
                    machines=["gtx580-double"], model="energy",
                    metric="energy_per_flop", unique_intensities=True,
                    workload="scalar", client=StallingClient(server),
                )
            finally:
                await server.stop()

        report = asyncio.run(scenario())
        # All 50 arrivals land inside the stall window (~50 ms of
        # schedule vs a 250 ms stall) and queue behind it; measuring
        # from *intended* arrival bills the stall to each of them.  A
        # closed loop would have stopped issuing and reported one slow
        # request instead.
        assert report.p50_ms > 100.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            bench_serving(requests=8, open_loop_rate=0.0)
        with pytest.raises(ValueError):
            bench_serving(requests=8, open_loop_rate=-5.0)


class TestFailFast:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"config": ServerConfig(workers=2)},
            {"config": ServerConfig(deadline_batching=True)},
            {"config": ServerConfig(plan_cache_size=4)},
            {"config": ServerConfig(plan_cache_size=0)},
            # Even an all-defaults config describes a local server.
            {"config": ServerConfig()},
        ],
    )
    def test_target_refuses_local_server_knobs(self, kwargs):
        with pytest.raises(ValueError, match="external --target"):
            bench_serving(requests=8, target="127.0.0.1:9999", wire="ndjson", **kwargs)

    @pytest.mark.parametrize("target", ["no-port", ":9", "host:", "host:9x"])
    def test_target_must_be_host_port(self, target):
        with pytest.raises(ValueError):
            bench_serving(requests=8, target=target, wire="ndjson")

    def test_unreachable_target_fails_with_context(self):
        # Bind-then-close yields a port that refuses connections
        # immediately — the error arrives fast, not after a hang.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        started = time.monotonic()
        with pytest.raises(ConnectionError, match="could not connect"):
            bench_serving(requests=8, target=f"127.0.0.1:{port}", wire="ndjson")
        assert time.monotonic() - started < loadgen.TARGET_CONNECT_TIMEOUT


@pytest.fixture
def external_server():
    """A started :class:`ModelServer` on its own thread and event loop —
    an "already running" server for ``target=`` runs to drive."""
    loop = asyncio.new_event_loop()
    server = ModelServer(ServerConfig(cache_size=0))
    started = threading.Event()

    def serve() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10.0)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        loop.close()


class TestTopologies:
    """One small run through every topology ``bench_serving`` builds."""

    REQUESTS = 64

    def _run(self, config=None, **kwargs):
        report = bench_serving(
            config, requests=self.REQUESTS, concurrency=8, **kwargs
        )
        assert report.errors == 0
        assert report.requests == self.REQUESTS
        return report

    def test_inproc(self):
        report = self._run(ServerConfig(max_batch=8, cache_size=0))
        assert report.wire == "inproc"
        assert report.bytes_sent == report.bytes_received == 0
        assert (report.router_backends, report.target) == (0, "")
        assert report.engine_calls > 0

    @pytest.mark.parametrize("wire", ["ndjson", "binary"])
    def test_direct_tcp(self, wire):
        report = self._run(wire=wire)
        assert report.wire == wire
        assert report.bytes_sent > 0 and report.bytes_received > 0
        assert (report.router_backends, report.replication) == (0, 0)
        assert report.target == ""
        assert report.engine_calls > 0

    def test_router_merges_every_backend(self, monkeypatch):
        merged = []
        merge = loadgen._merge_server_stats

        def spy(servers):
            merged.append(len(servers))
            return merge(servers)

        monkeypatch.setattr(loadgen, "_merge_server_stats", spy)
        report = self._run(wire="binary", router_backends=2, replication=2)
        assert report.wire == "binary"
        assert (report.router_backends, report.replication) == (2, 2)
        assert report.target == ""
        assert merged == [2]
        # Scalar evals: every request is one batched point somewhere.
        assert sum(
            int(size) * count
            for size, count in report.batch_size_counts.items()
        ) == self.REQUESTS

    def test_target(self, external_server):
        host, port = external_server.address
        report = self._run(wire="binary", target=f"{host}:{port}")
        assert report.wire == "binary"
        assert report.target == f"{host}:{port}"
        assert report.router_backends == 0
        assert report.bytes_sent > 0
        # Pipeline statistics live in the remote process.
        assert report.engine_calls == 0
        served = external_server.stats()["counters"]["requests_total"]
        assert served == self.REQUESTS
