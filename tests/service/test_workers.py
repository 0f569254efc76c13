"""The sharded worker-pool execution tier.

The load-bearing assertions:

* routing is a pure function of the machine name — stable across
  processes and runs, so per-shard caches stay hot;
* identical request streams through ``workers=0``, ``1``, and ``4``
  servers produce **byte-identical** response payloads (the pool is an
  execution placement choice, never a semantic one);
* a killed worker surfaces as a ``worker_crashed`` error marked
  ``retriable`` and the shard respawns — the next job succeeds;
* graceful drain completes in-flight worker jobs and joins every
  worker process (no zombies), including under SIGTERM;
* the per-shard queue bound refuses excess jobs with ``overloaded``.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal

import numpy as np
import pytest

from repro._canon import canonical_json
from repro.exceptions import ServiceError
from repro.service.engine import EvalEngine
from repro.service import workers as workers_module
from repro.service.loadgen import build_requests
from repro.service.server import ModelServer, ServerConfig
from repro.service.shmring import SLOT_SIZE, RingArena
from repro.service.workers import (
    WorkerCrashError,
    WorkerPool,
    _stable_shard,
)
from repro.service.router import RouterServer

MACHINES = ("gtx580-double", "i7-950-double")

#: Grid points whose pickled eval_batch job (~9 bytes a float) is
#: larger than one ring slot, so the job must spill.
SPILL_POINTS = SLOT_SIZE // 6


def run(coro):
    return asyncio.run(coro)


def make_server(**overrides) -> ModelServer:
    config = {"cache_size": 0, "flush_window": 0.0}
    config.update(overrides)
    return ModelServer(ServerConfig(**config))


class TestRouting:
    def test_route_key_machine_ignores_model(self):
        # The router keys its ring on the machine name, the same key
        # the server hands the pool, whatever the model.
        router = RouterServer(["127.0.0.1:9"])
        for model in ("energy", "time", None):
            request = {"op": "eval", "machine": "m1", "model": model}
            assert router.routing_key(request) == "m1"
        assert router.routing_key({"op": "balance", "machine": "m1"}) == "m1"

    def test_stable_shard_is_deterministic_and_in_range(self):
        for n in (1, 2, 4, 7):
            for key in ("gtx580-double", "i7-950-double", "a\x1fb"):
                shard = _stable_shard(key, n)
                assert shard == _stable_shard(key, n)
                assert 0 <= shard < n

    def test_known_assignments_do_not_drift(self):
        # Pinned values: a routing change silently invalidates every
        # shard's warm cache on upgrade, so make it loud instead.
        assert _stable_shard("gtx580-double", 4) == 2
        assert _stable_shard("i7-950-double", 4) == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestWorkerPool:
    """Direct pool-level behavior (one spawned pool per test)."""

    def test_jobs_match_in_process_engine(self):
        engine = EvalEngine()
        grid = [0.25, 1.0, 3.0, 17.0]

        async def scenario():
            pool = WorkerPool(2)
            try:
                await pool.ready()
                batch = await pool.submit(
                    "eval_batch",
                    ("gtx580-double", "energy", "energy_per_flop", grid),
                    "gtx580-double",
                )
                curve = await pool.submit(
                    "op",
                    ("curve", {"machine_key": "i7-950-double",
                               "kind": "roofline", "lo": 0.5, "hi": 512.0,
                               "points_per_octave": 16, "normalized": True}),
                    "i7-950-double",
                )
                balance = await pool.submit(
                    "op",
                    ("balance", {"machine_key": "gtx580-double"}),
                    "gtx580-double",
                )
                stats = pool.stats()
            finally:
                await pool.close()
            return batch, curve, balance, stats

        batch, curve, balance, stats = run(scenario())
        expected = engine.eval_batch(
            "gtx580-double", "energy", "energy_per_flop", grid
        )
        assert batch.tolist() == expected.tolist()  # bit-identical
        assert curve == engine.curve(
            "i7-950-double", "roofline", points_per_octave=16
        )
        assert isinstance(curve["values"], list)
        assert balance == engine.balance("gtx580-double")
        assert stats["workers"] == 2
        assert sum(s["jobs"] for s in stats["shards"]) == 3
        assert all(s["crashes"] == 0 for s in stats["shards"])

    def test_shm_path_is_value_transparent(self):
        """Bodies larger than a ring slot spill and round-trip unchanged."""
        engine = EvalEngine()
        grid = [0.5 + 0.001 * i for i in range(SPILL_POINTS)]

        async def scenario():
            pool = WorkerPool(1)
            try:
                await pool.ready()
                values = await pool.submit(
                    "eval_batch",
                    ("gtx580-double", "energy", "energy_per_flop", grid),
                    "k",
                )
                return values, pool.stats()
            finally:
                await pool.close()

        values, stats = run(scenario())
        expected = engine.eval_batch(
            "gtx580-double", "energy", "energy_per_flop", grid
        )
        assert values.tolist() == expected.tolist()
        assert stats["ring"]["fallbacks"] == 1

    def test_worker_error_codes_cross_the_boundary(self):
        async def scenario():
            pool = WorkerPool(1)
            try:
                await pool.ready()
                with pytest.raises(ServiceError) as excinfo:
                    await pool.submit(
                        "eval_batch",
                        ("no-such-machine", "energy", "energy_per_flop",
                         [1.0]),
                        "k",
                    )
                bad_machine = excinfo.value
                with pytest.raises(ServiceError) as excinfo:
                    await pool.submit("op", ("machines", {}), "k")
                bad_op = excinfo.value
            finally:
                await pool.close()
            return bad_machine, bad_op

        bad_machine, bad_op = run(scenario())
        assert bad_machine.code == "unknown_machine"
        assert not getattr(bad_machine, "retriable", False)
        assert bad_op.code == "internal"

    def test_crash_respawns_and_marks_retriable(self):
        async def scenario():
            pool = WorkerPool(1)
            try:
                await pool.ready()
                victim = pool.stats()["shards"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                with pytest.raises(WorkerCrashError) as excinfo:
                    await pool.submit(
                        "op", ("balance", {"machine_key": MACHINES[0]}), "k"
                    )
                crash = excinfo.value
                # The shard respawned: same API call now succeeds.
                after = await pool.submit(
                    "op", ("balance", {"machine_key": MACHINES[0]}), "k"
                )
                stats = pool.stats()
            finally:
                await pool.close()
            return victim, crash, after, stats

        victim, crash, after, stats = run(scenario())
        assert crash.code == "worker_crashed"
        assert crash.retriable is True
        assert after == EvalEngine().balance(MACHINES[0])
        assert stats["shards"][0]["crashes"] == 1
        assert stats["shards"][0]["pid"] != victim
        assert stats["shards"][0]["alive"]

    def test_queue_limit_refuses_with_overloaded(self):
        async def scenario():
            pool = WorkerPool(1, queue_limit=1)
            try:
                await pool.ready()
                job = ("op", ("balance", {"machine_key": MACHINES[0]}), "k")
                results = await asyncio.gather(
                    pool.submit(*job), pool.submit(*job), pool.submit(*job),
                    return_exceptions=True,
                )
            finally:
                await pool.close()
            return results

        results = run(scenario())
        rejected = [
            r for r in results
            if isinstance(r, ServiceError) and r.code == "overloaded"
        ]
        accepted = [r for r in results if isinstance(r, dict)]
        assert len(rejected) == 2
        assert len(accepted) == 1

    def test_close_joins_every_worker(self):
        async def scenario():
            pool = WorkerPool(2)
            await pool.ready()
            procs = [shard.process for shard in pool._shards]
            await pool.close()
            return procs

        procs = run(scenario())
        for proc in procs:
            assert not proc.is_alive()
            assert proc.exitcode == 0


class TestServerEquivalence:
    """Satellite: worker count is invisible in the response bytes."""

    # Mixed workload (scalar + grid evals, all four curve kinds, every
    # analysis op) plus malformed requests — errors must match too.
    STREAM = build_requests(
        48,
        machines=list(MACHINES),
        model="capped",
        metric="energy_per_flop",
        unique_intensities=True,
        workload="mixed",
    ) + [
        {"op": "eval", "machine": "no-such-machine", "model": "energy",
         "metric": "energy_per_flop", "intensity": 1.0},
        {"op": "curve", "machine": MACHINES[0], "kind": "nope"},
        {"op": "machines"},
        {"op": "nonsense"},
    ]

    @staticmethod
    async def _drive(workers: int) -> bytes:
        server = make_server(workers=workers, flush_window=0.001)
        try:
            sequential = [
                await server.handle_request(dict(body))
                for body in TestServerEquivalence.STREAM
            ]
            concurrent = await asyncio.gather(*(
                server.handle_request(dict(body))
                for body in TestServerEquivalence.STREAM
            ))
        finally:
            await server.stop()
        return canonical_json([sequential, concurrent])

    def test_workers_0_1_4_byte_identical(self):
        async def scenario():
            return [await self._drive(n) for n in (0, 1, 4)]

        payloads = run(scenario())
        assert payloads[0] == payloads[1] == payloads[2]


class TestServerWorkerFailures:
    def test_crash_reply_envelope_is_retriable(self):
        async def scenario():
            server = make_server(workers=1)
            try:
                await server.pool.ready()
                os.kill(server.pool.stats()["shards"][0]["pid"],
                        signal.SIGKILL)
                failed = await server.handle_request(
                    {"op": "balance", "machine": MACHINES[0]}
                )
                recovered = await server.handle_request(
                    {"op": "balance", "machine": MACHINES[0]}
                )
            finally:
                await server.stop()
            return failed, recovered

        failed, recovered = run(scenario())
        assert failed["ok"] is False
        assert failed["error"]["code"] == "worker_crashed"
        assert failed["error"]["retriable"] is True
        assert recovered["ok"] is True

    def test_worker_stats_surface_in_server_stats(self):
        async def scenario():
            server = make_server(workers=2)
            try:
                await server.pool.ready()
                await server.handle_request(
                    {"op": "balance", "machine": MACHINES[0]}
                )
                stats = server.stats()
            finally:
                await server.stop()
            return stats

        stats = run(scenario())
        assert stats["config"]["workers"] == 2
        assert stats["workers"]["workers"] == 2
        assert len(stats["workers"]["shards"]) == 2
        assert stats["counters"]["worker_jobs_total"] >= 1
        assert "worker_job_ms" in stats["histograms"]
        assert "worker_ipc_overhead_ms" in stats["histograms"]


class TestGracefulDrain:
    """Satellite: SIGTERM with a worker job in flight loses nothing."""

    def test_sigterm_completes_inflight_curve(self):
        async def scenario():
            server = make_server(workers=1)
            await server.pool.ready()
            procs = [shard.process for shard in server.pool._shards]

            loop = asyncio.get_running_loop()
            terminated = asyncio.Event()
            loop.add_signal_handler(signal.SIGTERM, terminated.set)
            try:
                # A 10k-point curve (1000/octave over 10 octaves), in
                # flight on the worker when SIGTERM lands.
                request = asyncio.ensure_future(server.handle_request({
                    "op": "curve", "machine": MACHINES[0],
                    "kind": "roofline", "points_per_octave": 1000,
                }))
                await asyncio.sleep(0)  # let the job reach the pool
                os.kill(os.getpid(), signal.SIGTERM)
                await terminated.wait()
                await server.stop()  # drains, then joins the workers
                response = await request
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
            return response, procs

        response, procs = run(scenario())
        assert response["ok"] is True
        assert len(response["result"]["values"]) == 10_001
        for proc in procs:
            assert not proc.is_alive()  # joined, not zombied
            assert proc.exitcode == 0   # exited via sentinel, not kill


def _shm_entries(token: str) -> list[str]:
    """Shared-memory segments belonging to one pool, by its token."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if token in name
        )
    except FileNotFoundError:  # pragma: no cover - non-posix-shm host
        pytest.skip("/dev/shm not available on this platform")


def _payload_pickling_to(size: int) -> tuple:
    """An ``eval_batch`` payload whose pickled job body is ``size`` bytes.

    Floats pickle to 9 bytes and small ints to 2, so topping a float
    grid up with a few ints lands on any size exactly.
    """
    head = (MACHINES[0], "energy", "energy_per_flop")
    first = (size - 256) // 9
    for floats in range(first, first + 32):
        for ints in range(9):
            payload = (
                *head, [0.5 + 0.001 * i for i in range(floats)] + [1] * ints
            )
            if len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)) == size:
                return payload
    raise AssertionError(f"no payload pickles to exactly {size} bytes")


class TestRingTransport:
    """The shm ring-buffer job transport and its crash-safety story."""

    CURVE_JOB = (
        "op",
        (
            "curve",
            {
                "machine_key": MACHINES[0],
                "kind": "roofline",
                "points_per_octave": 400,
            },
        ),
        "k",
    )
    BALANCE_JOB = ("op", ("balance", {"machine_key": MACHINES[0]}), "k")

    def test_ring_carries_jobs_and_oversize_falls_back(self):
        # The grid job pickles well past one slot, so it must take the
        # per-job spill path; the balance job fits and rides the ring.
        grid = [float(i) for i in range(1, SPILL_POINTS + 1)]
        big_job = (
            "eval_batch",
            (MACHINES[0], "energy", "energy_per_flop", grid),
            "k",
        )

        async def scenario():
            pool = WorkerPool(1)
            try:
                await pool.ready()
                small = await pool.submit(*self.BALANCE_JOB)
                big = await pool.submit(*big_job)
                stats = pool.stats()
            finally:
                await pool.close()
            return small, big, stats

        small, big, stats = run(scenario())
        ring = stats["ring"]
        assert set(ring) == {"slot_size", "jobs", "fallbacks"}
        assert ring["slot_size"] == SLOT_SIZE
        assert ring["jobs"] == 2          # the ping and the balance job
        assert ring["fallbacks"] == 1     # the big grid spilled
        assert small == EvalEngine().balance(MACHINES[0])
        assert len(big) == len(grid)

    def test_ring_and_spill_transports_agree(self, monkeypatch):
        """Transport is an optimisation, never semantic: the same jobs
        answer identically whether their bodies ride the slot or spill."""
        grid = [0.25, 1.0, 3.0, 17.0]
        grid_job = (
            "eval_batch", (MACHINES[0], "energy", "energy_per_flop", grid), "k"
        )
        jobs = (self.BALANCE_JOB, self.CURVE_JOB, grid_job)

        async def run_jobs():
            pool = WorkerPool(1)
            try:
                await pool.ready()
                results = []
                for job in jobs:
                    result = await pool.submit(*job)
                    if job is grid_job:
                        result = result.tolist()
                    results.append(canonical_json(result))
                return results, pool.stats()["ring"]
            finally:
                await pool.close()

        ringed, ring_stats = run(run_jobs())
        # A slot that declines every write forces each job body to spill.
        monkeypatch.setattr(RingArena, "write", lambda self, payload: None)
        spilled, spill_stats = run(run_jobs())

        engine = EvalEngine()
        expected = [
            canonical_json(engine.balance(MACHINES[0])),
            canonical_json(
                engine.curve(MACHINES[0], "roofline", points_per_octave=400)
            ),
            canonical_json(
                engine.eval_batch(
                    MACHINES[0], "energy", "energy_per_flop", grid
                ).tolist()
            ),
        ]
        assert ringed == spilled == expected
        assert ring_stats["fallbacks"] == 0
        assert spill_stats["jobs"] == 0
        assert spill_stats["fallbacks"] == 1 + len(jobs)  # ping included

    def test_body_one_byte_over_slot_capacity_spills(self):
        """The slot boundary is exact and past it there is only the
        spill segment — which the receiver unlinks after reading."""
        engine = EvalEngine()
        fits = _payload_pickling_to(RingArena.capacity)
        over = _payload_pickling_to(RingArena.capacity + 1)

        async def scenario():
            pool = WorkerPool(1)
            token = pool.shm_token
            try:
                await pool.ready()
                at_capacity = await pool.submit("eval_batch", fits, "k")
                ring_after_fit = dict(pool.stats()["ring"])
                past_capacity = await pool.submit("eval_batch", over, "k")
                ring_after_over = dict(pool.stats()["ring"])
                spills_live = [
                    name for name in _shm_entries(token)
                    if name.startswith("rs-")
                ]
            finally:
                await pool.close()
            return (at_capacity, past_capacity, ring_after_fit,
                    ring_after_over, spills_live, _shm_entries(token))

        (at_capacity, past_capacity, ring_after_fit, ring_after_over,
         spills_live, leftovers) = run(scenario())
        assert at_capacity.tolist() == engine.eval_batch(*fits).tolist()
        assert past_capacity.tolist() == engine.eval_batch(*over).tolist()
        # ping + the at-capacity job rode the slot...
        assert ring_after_fit == {
            "slot_size": SLOT_SIZE, "jobs": 2, "fallbacks": 0
        }
        # ...and one byte more spilled.
        assert ring_after_over["jobs"] == 2
        assert ring_after_over["fallbacks"] == 1
        assert spills_live == []
        assert leftovers == []

    def test_crash_mid_spill_leaves_no_shm_orphans(self):
        """Regression: a worker killed with a spilled job in flight must
        not leak its job/reply segments, and respawn must replace the
        ring arenas rather than strand them."""
        grid = [0.5 + 0.001 * i for i in range(SPILL_POINTS)]
        spill_job = (
            "eval_batch", (MACHINES[0], "energy", "energy_per_flop", grid), "k"
        )

        async def scenario():
            pool = WorkerPool(1)
            token = pool.shm_token
            try:
                await pool.ready()
                arenas_before = _shm_entries(token)
                victim = pool.stats()["shards"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                with pytest.raises(WorkerCrashError):
                    await pool.submit(*spill_job)
                spills_after_crash = [
                    name for name in _shm_entries(token)
                    if name.startswith("rs-")
                ]
                # The shard respawned and serves again.
                after = await pool.submit(*self.BALANCE_JOB)
                arenas_after = _shm_entries(token)
                fallbacks = pool.stats()["ring"]["fallbacks"]
            finally:
                await pool.close()
            leftovers = _shm_entries(token)
            return (arenas_before, spills_after_crash, after, arenas_after,
                    fallbacks, leftovers)

        (arenas_before, spills_after_crash, after, arenas_after, fallbacks,
         leftovers) = run(scenario())
        # Two arenas (job + reply) exist while the pool runs...
        assert len(arenas_before) == 2
        # ...the crashed job spilled, and its segments were reclaimed...
        assert fallbacks == 1
        assert spills_after_crash == []
        # ...the respawned shard got *fresh* arenas (epoch bumped)...
        assert len(arenas_after) == 2
        assert set(arenas_after) != set(arenas_before)
        assert after == EvalEngine().balance(MACHINES[0])
        # ...and close() leaves nothing of this pool behind.
        assert leftovers == []

    def test_close_unlinks_ring_arenas(self):
        async def scenario():
            pool = WorkerPool(2)
            token = pool.shm_token
            await pool.ready()
            live = _shm_entries(token)
            await pool.close()
            return token, live

        token, live = run(scenario())
        assert len(live) == 4  # two shards x (job + reply) arenas
        assert _shm_entries(token) == []

    def test_plan_cache_size_reaches_workers(self):
        """The knob travels to the worker engine: a disabled plan
        cache still answers curves correctly."""

        async def scenario():
            pool = WorkerPool(1, plan_cache_size=0)
            try:
                await pool.ready()
                first = await pool.submit(*self.CURVE_JOB)
                second = await pool.submit(*self.CURVE_JOB)
            finally:
                await pool.close()
            return first, second

        first, second = run(scenario())
        assert canonical_json(first) == canonical_json(second)
        assert len(first["values"]) == 4001


class TestFloatBuffersAcrossThePool:
    """Grids and curves cross the pool as float64 buffers: a heavy
    curve reply fits the ring slot, and a grid job is one ndarray."""

    def test_curve_reply_rides_ring_and_grid_job_is_an_ndarray(
        self, monkeypatch
    ):
        shipped: list[bytes] = []
        ship = workers_module._ship

        def recording_ship(data, ring, name):
            shipped.append(bytes(data))
            return ship(data, ring, name)

        # Only the parent's job bodies pass here; the spawned worker
        # imports its own, unpatched module.
        monkeypatch.setattr(workers_module, "_ship", recording_ship)
        curve = {"op": "curve", "machine": MACHINES[0], "kind": "roofline",
                 "points_per_octave": 2000}
        grid = [0.5 + 0.001 * i for i in range(8192)]
        grid_request = {"op": "eval", "machine": MACHINES[0],
                        "model": "power", "metric": "power",
                        "intensities": grid}

        async def scenario():
            server = make_server(workers=1)
            try:
                await server.pool.ready()
                before = server.pool.stats()["ring"]
                arrays: dict = {}
                curve_reply = await server.handle_request(
                    dict(curve), arrays=arrays
                )
                after_curve = server.pool.stats()["ring"]
                grid_reply = await server.handle_request(dict(grid_request))
                after_grid = server.pool.stats()["ring"]
            finally:
                await server.stop()
            return (curve_reply, arrays, grid_reply, before, after_curve,
                    after_grid)

        (curve_reply, arrays, grid_reply, before, after_curve,
         after_grid) = run(scenario())
        engine = EvalEngine()
        reply_body = len(pickle.dumps(
            engine.curve_arrays(MACHINES[0], "roofline",
                                points_per_octave=2000),
            pickle.HIGHEST_PROTOCOL,
        ))
        # The 20 001-point reply outgrew a 256 KiB slot but fits this one.
        assert len(arrays["values"]) == 20001
        assert 1 << 18 < reply_body <= RingArena.capacity
        assert curve_reply["ok"]
        assert after_curve == {**before, "jobs": before["jobs"] + 1}
        assert after_grid == {**before, "jobs": before["jobs"] + 2}
        # The grid job pickled as one float64 buffer, ~8 B a point.
        job = pickle.loads(shipped[-1])
        assert isinstance(job[3], np.ndarray) and job[3].dtype == np.float64
        assert 8 * len(grid) < len(shipped[-1]) < 8 * len(grid) + 512
        assert grid_reply["result"]["values"] == engine.eval_batch(
            MACHINES[0], "power", "power", grid
        ).tolist()
