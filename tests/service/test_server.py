"""The model server end to end: pipeline, transports, failure modes.

The load-bearing assertions:

* N concurrent scalar ``eval`` requests cost at most ⌈N / max_batch⌉
  vectorised engine calls and return results **bit-identical** to serial
  scalar evaluation (micro-batching never changes a value);
* admission control refuses excess work with ``overloaded`` instead of
  queueing without bound;
* per-request deadlines produce ``deadline_exceeded`` and orphaned batch
  slots are dropped cleanly;
* shutdown drains: admitted work finishes, new work is refused.
"""

from __future__ import annotations

import asyncio
import math
import socket

import numpy as np
import pytest

from repro._canon import canonical_json
from repro.exceptions import ServiceError
from repro.machines.catalog import get_machine
from repro.service.client import AsyncServiceClient, InProcessClient, ServiceClient
from repro.service.engine import EVAL_METRICS, MODELS
from repro.service.frontend import WireFrontend
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import MAX_LINE_BYTES, decode, encode, ok_response
from repro.service.server import ModelServer, ServerConfig

MACHINES = ("gtx580-double", "i7-950-double")


def run(coro):
    return asyncio.run(coro)


def make_server(**overrides) -> ModelServer:
    config = {"cache_size": 0, "flush_window": 0.0}
    config.update(overrides)
    return ModelServer(ServerConfig(**config))


def scalar_reference(machine: str, model: str, metric: str, x: float) -> float:
    """Ground truth: the core model's scalar method, no serving stack."""
    return float(getattr(MODELS[model](get_machine(machine)), metric)(x))


class TestMicroBatchingSemantics:
    """Satellite: batching bounds + bit-identity, per request type."""

    def test_engine_calls_bounded_by_ceil(self):
        n, max_batch = 40, 8

        async def scenario():
            server = make_server(max_batch=max_batch)
            client = InProcessClient(server)
            grid = [0.25 * (i + 1) for i in range(n)]
            values = await asyncio.gather(*(
                client.eval(MACHINES[0], "energy_per_flop", model="energy",
                            intensity=x)
                for x in grid
            ))
            await server.stop()
            return server, grid, values

        server, grid, values = run(scenario())
        assert server.engine.batch_calls <= math.ceil(n / max_batch)
        reference = [
            scalar_reference(MACHINES[0], "energy", "energy_per_flop", x)
            for x in grid
        ]
        assert values == reference  # bit-identical, not approx

    @pytest.mark.parametrize(
        "model,metric",
        [(m, metric) for m, metrics in EVAL_METRICS.items() for metric in metrics],
    )
    def test_batched_round_trip_bit_identical(self, model, metric):
        """Every (model, metric) the protocol serves, on two machines."""
        grid = [0.25, 1.0, 3.0, 17.0, 128.0]

        async def scenario():
            server = make_server(max_batch=16)
            client = InProcessClient(server)
            values = await asyncio.gather(*(
                client.eval(machine, metric, model=model, intensity=x)
                for machine in MACHINES for x in grid
            ))
            await server.stop()
            return values

        values = run(scenario())
        reference = [
            scalar_reference(machine, model, metric, x)
            for machine in MACHINES for x in grid
        ]
        assert values == reference

    def test_grid_eval_matches_scalar_loop(self):
        grid = [0.5, 2.0, 8.0]

        async def scenario():
            server = make_server()
            client = InProcessClient(server)
            values = await client.eval(
                MACHINES[0], "time_per_flop", model="time", intensities=grid
            )
            await server.stop()
            return values

        values = run(scenario())
        assert values == [
            scalar_reference(MACHINES[0], "time", "time_per_flop", x)
            for x in grid
        ]

    def test_batch_size_distribution_in_stats(self):
        async def scenario():
            server = make_server(max_batch=8)
            client = InProcessClient(server)
            await asyncio.gather(*(
                client.eval(MACHINES[0], "power", model="power",
                            intensity=float(i + 1))
                for i in range(8)
            ))
            stats = server.stats()
            await server.stop()
            return stats

        stats = run(scenario())
        hist = stats["histograms"]["batch_size"]
        assert hist["count"] == 1
        assert hist["values"] == {"8": 1}
        assert stats["engine_batch_calls"] == 1


class TestBackpressure:
    def test_excess_requests_get_overloaded(self):
        limit, total = 4, 10

        async def scenario():
            # A huge batch plus a long window parks admitted requests in
            # the batcher, holding their admission slots deterministically.
            server = make_server(
                queue_limit=limit, max_batch=1024, flush_window=60.0
            )
            tasks = [
                asyncio.ensure_future(server.handle_request({
                    "op": "eval", "machine": MACHINES[0], "model": "time",
                    "metric": "time_per_flop", "intensity": float(i + 1),
                    "id": i,
                }))
                for i in range(total)
            ]
            await asyncio.sleep(0)  # let every task reach admission
            await server.stop()  # drains the admitted batch
            responses = await asyncio.gather(*tasks)
            return server, responses

        server, responses = run(scenario())
        ok = [r for r in responses if r.get("ok")]
        refused = [r for r in responses if not r.get("ok")]
        assert len(ok) == limit
        assert len(refused) == total - limit
        for response in refused:
            assert response["error"]["code"] == "overloaded"
            assert "retry" in response["error"]["message"]
        assert server.metrics.counter("overloaded_total").value == total - limit

    def test_control_plane_bypasses_admission(self):
        async def scenario():
            server = make_server(queue_limit=1, max_batch=1024,
                                 flush_window=60.0)
            blocked = asyncio.ensure_future(server.handle_request({
                "op": "eval", "machine": MACHINES[0], "model": "time",
                "metric": "time_per_flop", "intensity": 1.0,
            }))
            await asyncio.sleep(0)
            ping = await server.handle_request({"op": "ping"})
            stats = await server.handle_request({"op": "stats"})
            await server.stop()
            await blocked
            return ping, stats

        ping, stats = run(scenario())
        assert ping["result"]["pong"] is True
        assert stats["result"]["inflight"] == 1
        assert stats["result"]["pending_batched"] == 1


class TestDeadlines:
    def test_deadline_expiry_yields_typed_error(self):
        async def scenario():
            server = make_server(max_batch=1024, flush_window=60.0)
            response = await server.handle_request({
                "op": "eval", "machine": MACHINES[0], "model": "time",
                "metric": "time_per_flop", "intensity": 1.0,
                "timeout_ms": 20, "id": 1,
            })
            # The orphaned batch slot must be dropped without error.
            await server.stop()
            return server, response

        server, response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline_exceeded"
        assert server.metrics.counter("deadline_exceeded_total").value == 1

    def test_generous_deadline_does_not_fire(self):
        async def scenario():
            server = make_server(max_batch=4)
            client = InProcessClient(server)
            value = await client.eval(
                MACHINES[0], "time_per_flop", model="time",
                intensity=2.0, timeout_ms=5000,
            )
            await server.stop()
            return value

        value = run(scenario())
        assert value == scalar_reference(
            MACHINES[0], "time", "time_per_flop", 2.0
        )

    def test_default_timeout_from_config(self):
        async def scenario():
            server = make_server(
                max_batch=1024, flush_window=60.0, default_timeout=0.02
            )
            response = await server.handle_request({
                "op": "eval", "machine": MACHINES[0], "model": "time",
                "metric": "time_per_flop", "intensity": 1.0,
            })
            await server.stop()
            return response

        response = run(scenario())
        assert response["error"]["code"] == "deadline_exceeded"

    def test_invalid_timeout_rejected(self):
        async def scenario():
            server = make_server()
            response = await server.handle_request({
                "op": "eval", "machine": MACHINES[0], "model": "time",
                "metric": "time_per_flop", "intensity": 1.0,
                "timeout_ms": -5,
            })
            await server.stop()
            return response

        response = run(scenario())
        assert response["error"]["code"] == "bad_request"
        assert "timeout_ms" in response["error"]["message"]


class TestCaching:
    def test_repeat_request_is_served_from_cache(self):
        request = {"op": "balance", "machine": MACHINES[0]}

        async def scenario():
            server = make_server(cache_size=64)
            first = await server.handle_request(dict(request))
            second = await server.handle_request(dict(request))
            stats = server.stats()
            await server.stop()
            return first, second, stats

        first, second, stats = run(scenario())
        assert first["result"] == second["result"]
        assert "cached" not in first
        assert second["cached"] is True
        assert stats["cache"]["hits"] == 1
        assert stats["counters"]["cache_hits_total"] == 1

    def test_field_order_and_id_do_not_split_entries(self):
        async def scenario():
            server = make_server(cache_size=64)
            await server.handle_request({
                "op": "eval", "machine": MACHINES[0], "model": "energy",
                "metric": "energy_per_flop", "intensity": 2.0, "id": 1,
            })
            hit = await server.handle_request({
                "intensity": 2.0, "metric": "energy_per_flop",
                "model": "energy", "machine": MACHINES[0], "op": "eval",
                "id": 2, "timeout_ms": 9999,
            })
            await server.stop()
            return hit

        hit = run(scenario())
        assert hit["cached"] is True
        assert hit["id"] == 2  # envelope id still echoed verbatim

    def test_stats_and_ping_never_cached(self):
        async def scenario():
            server = make_server(cache_size=64)
            await server.handle_request({"op": "ping"})
            await server.handle_request({"op": "ping"})
            stats = server.stats()
            await server.stop()
            return stats

        stats = run(scenario())
        assert stats["cache"]["size"] == 0

    def test_cache_disabled_by_config(self):
        request = {"op": "balance", "machine": MACHINES[0]}

        async def scenario():
            server = make_server(cache_size=0)
            await server.handle_request(dict(request))
            second = await server.handle_request(dict(request))
            await server.stop()
            return second

        second = run(scenario())
        assert "cached" not in second


class TestErrorReplies:
    @pytest.mark.parametrize(
        "request_body,expected_code,fragment",
        [
            ({"op": "eval", "machine": "warp-drive", "model": "time",
              "metric": "time_per_flop", "intensity": 1.0},
             "unknown_machine", "warp-drive"),
            ({"op": "teleport"}, "unknown_op", "teleport"),
            ({"op": "eval", "machine": MACHINES[0], "model": "time",
              "metric": "zorkmids", "intensity": 1.0},
             "bad_request", "zorkmids"),
            ({"op": "eval", "machine": MACHINES[0], "model": "time",
              "metric": "time_per_flop"},
             "bad_request", "intensity"),
            ({"op": "eval", "machine": MACHINES[0], "model": "time",
              "metric": "time_per_flop", "intensities": []},
             "bad_request", "non-empty"),
            ({"op": "eval", "machine": MACHINES[0], "model": "time",
              "metric": "time_per_flop", "intensity": True},
             "bad_request", "intensity"),
            ({"op": 7}, "bad_request", "op"),
        ],
    )
    def test_machine_readable_codes(self, request_body, expected_code, fragment):
        async def scenario():
            server = make_server()
            response = await server.handle_request(request_body)
            await server.stop()
            return response

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == expected_code
        assert fragment in response["error"]["message"]

    def test_errors_counted(self):
        async def scenario():
            server = make_server()
            await server.handle_request({"op": "teleport"})
            await server.stop()
            return server

        server = run(scenario())
        assert server.metrics.counter("errors_total").value == 1

    def test_in_process_client_raises_typed_errors(self):
        async def scenario():
            server = make_server()
            client = InProcessClient(server)
            with pytest.raises(ServiceError) as excinfo:
                await client.balance("warp-drive")
            await server.stop()
            return excinfo.value

        error = run(scenario())
        assert error.code == "unknown_machine"


class TestShutdown:
    def test_draining_server_refuses_new_work(self):
        async def scenario():
            server = make_server()
            await server.stop()
            refused = await server.handle_request({
                "op": "balance", "machine": MACHINES[0],
            })
            ping = await server.handle_request({"op": "ping"})
            return refused, ping

        refused, ping = run(scenario())
        assert refused["error"]["code"] == "shutting_down"
        assert ping["result"]["pong"] is True  # health checks still answer

    def test_stop_hangs_up_tcp_connections(self):
        async def scenario():
            server = make_server()
            host, port = await server.start()
            client = await AsyncServiceClient.connect(host, port)
            try:
                assert await client.ping() is True
                await server.stop()
                handlers = [
                    task for task in asyncio.all_tasks()
                    if "_on_connection" in repr(task)
                ]
                with pytest.raises(ServiceError):
                    async with asyncio.timeout(5.0):
                        await client.ping()
            finally:
                await client.close()
            return handlers

        assert run(scenario()) == []

    def test_stop_drains_admitted_work(self):
        async def scenario():
            server = make_server(max_batch=1024, flush_window=60.0)
            task = asyncio.ensure_future(server.handle_request({
                "op": "eval", "machine": MACHINES[0], "model": "time",
                "metric": "time_per_flop", "intensity": 2.0,
            }))
            await asyncio.sleep(0)
            assert server.batcher.pending_requests == 1
            await server.stop()
            return await task

        response = run(scenario())
        assert response["ok"] is True
        assert response["result"]["value"] == scalar_reference(
            MACHINES[0], "time", "time_per_flop", 2.0
        )


class TestAccessLog:
    def test_structured_records_emitted(self):
        records = []

        async def scenario():
            server = make_server(cache_size=64, access_log=records.append)
            client = InProcessClient(server)
            await client.balance(MACHINES[0])
            await client.balance(MACHINES[0])
            with pytest.raises(ServiceError):
                await client.balance("warp-drive")
            await server.stop()

        run(scenario())
        assert [r["status"] for r in records] == [
            "ok", "ok", "unknown_machine"
        ]
        assert records[0]["op"] == "balance"
        assert records[0]["machine"] == MACHINES[0]
        assert records[0]["cached"] is False
        assert records[1]["cached"] is True
        assert all(r["ms"] >= 0 for r in records)


class TestStatsRequest:
    def test_stats_payload_shape(self):
        async def scenario():
            server = make_server(cache_size=32)
            client = InProcessClient(server)
            await client.eval(MACHINES[0], "power", model="power",
                              intensity=2.0)
            stats = await client.stats()
            await server.stop()
            return stats

        stats = run(scenario())
        assert stats["counters"]["requests_total"] >= 1
        assert stats["histograms"]["request_latency_ms"]["count"] >= 1
        assert stats["cache"]["maxsize"] == 32
        assert stats["config"]["max_batch"] == 64
        assert stats["draining"] is False
        assert stats["inflight"] >= 0


class TestTCPTransport:
    def test_async_client_concurrent_round_trip(self):
        grid = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

        async def scenario():
            server = make_server(max_batch=8)
            host, port = await server.start()
            async with await AsyncServiceClient.connect(host, port) as client:
                values = await asyncio.gather(*(
                    client.eval(machine, "energy_per_flop", model="energy",
                                intensity=x)
                    for machine in MACHINES for x in grid
                ))
                pong = await client.ping()
                catalog = await client.machines()
                with pytest.raises(ServiceError) as excinfo:
                    await client.balance("warp-drive")
            await server.stop()
            return values, pong, catalog, excinfo.value

        values, pong, catalog, error = run(scenario())
        reference = [
            scalar_reference(machine, "energy", "energy_per_flop", x)
            for machine in MACHINES for x in grid
        ]
        assert values == reference  # bit-identical through JSON too
        assert pong is True
        assert {entry["key"] for entry in catalog} >= set(MACHINES)
        assert error.code == "unknown_machine"

    def test_structured_ops_over_the_wire(self):
        async def scenario():
            server = make_server(cache_size=64)
            host, port = await server.start()
            async with await AsyncServiceClient.connect(host, port) as client:
                balance = await client.balance(MACHINES[0])
                curve = await client.curve(MACHINES[0], "roofline", lo=1.0,
                                           hi=8.0, points_per_octave=2)
                tradeoff = await client.tradeoff(
                    MACHINES[0], intensity=0.5, f=1.5, m=4.0
                )
                greenup = await client.greenup(
                    MACHINES[0], intensity=0.5, m=4.0
                )
                described = await client.describe(MACHINES[0])
            await server.stop()
            return balance, curve, tradeoff, greenup, described

        balance, curve, tradeoff, greenup, described = run(scenario())
        assert balance["b_eps"] > 0
        assert len(curve["intensities"]) == len(curve["values"])
        assert tradeoff["speedup"] > 0
        assert greenup["threshold_closed"] > 1.0
        assert described["name"]

    def test_malformed_line_gets_error_reply_not_disconnect(self):
        async def scenario():
            server = make_server()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"{this is not json}\n")
            await writer.drain()
            import json
            bad = json.loads(await reader.readline())
            writer.write(
                b'{"op":"ping","id":1}\n'
            )
            await writer.drain()
            good = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return bad, good

        bad, good = run(scenario())
        assert bad["ok"] is False
        assert bad["error"]["code"] == "bad_request"
        assert good["ok"] is True  # the connection survived

    def test_sync_client_round_trip(self):
        async def scenario():
            server = make_server(cache_size=64)
            host, port = await server.start()

            def blocking_session():
                with ServiceClient(host, port) as client:
                    assert client.ping() is True
                    value = client.eval(
                        MACHINES[0], "power", model="power", intensity=2.0
                    )
                    values = client.eval(
                        MACHINES[0], "power", model="power",
                        intensities=[1.0, 2.0],
                    )
                    stats = client.stats()
                    return value, values, stats

            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(None, blocking_session)
            await server.stop()
            return result

        value, values, stats = run(scenario())
        assert value == scalar_reference(MACHINES[0], "power", "power", 2.0)
        assert values[1] == value
        assert stats["counters"]["requests_total"] >= 2


#: Every request verb, called the same way on the async and sync clients.
VERB_CALLS = {
    "eval": ((MACHINES[0], "power"), {"model": "power", "intensity": 2.0}),
    "curve": ((MACHINES[0], "roofline"),
              {"lo": 1.0, "hi": 8.0, "points_per_octave": 2}),
    "balance": ((MACHINES[0],), {}),
    "tradeoff": ((MACHINES[0],), {"intensity": 0.5, "f": 1.5, "m": 4.0}),
    "greenup": ((MACHINES[0],), {"intensity": 0.5, "m": 4.0}),
    "describe": ((MACHINES[1],), {}),
    "machines": ((), {}),
    "ping": ((), {}),
}


@pytest.mark.parametrize("verb", [*VERB_CALLS, "eval_grid", "stats"])
def test_sync_verb_returns_what_async_verb_returns(verb):
    """The sync client's verbs come from the same builder table as the
    async ones; same arguments, same return value."""
    if verb == "eval_grid":
        name, args, kwargs = "eval", (MACHINES[0], "power"), {
            "model": "power", "intensities": [1.0, 2.0, 4.0]}
    elif verb == "stats":
        name, args, kwargs = "stats", (), {}
    else:
        name, (args, kwargs) = verb, VERB_CALLS[verb]

    async def scenario():
        server = make_server()
        host, port = await server.start()
        async with await AsyncServiceClient.connect(host, port) as client:
            async_result = await getattr(client, name)(*args, **kwargs)

        def blocking():
            with ServiceClient(host, port) as client:
                return getattr(client, name)(*args, **kwargs)

        sync_result = await asyncio.get_running_loop().run_in_executor(
            None, blocking
        )
        await server.stop()
        return async_result, sync_result

    async_result, sync_result = run(scenario())
    if name == "stats":  # live counters differ; the shape must not
        assert set(sync_result) == set(async_result)
    else:
        assert sync_result == async_result
        assert type(sync_result) is type(async_result)


class TestCacheAcrossFramings:
    """One response-cache entry serves binary, NDJSON and in-process
    hits alike, whichever framing filled it (and remembered, or not,
    its NDJSON encoding)."""

    BODIES = (
        {"op": "eval", "machine": MACHINES[0], "model": "power",
         "metric": "power", "intensities": [0.25 * i for i in range(1, 65)]},
        {"op": "curve", "machine": MACHINES[1], "kind": "archline",
         "points_per_octave": 16},
        {"op": "balance", "machine": MACHINES[0]},
    )

    @staticmethod
    async def over_binary(host, port, body):
        async with await AsyncServiceClient.connect(
            host, port, wire="binary"
        ) as client:
            assert client.wire == "binary"
            return await client.request(dict(body))

    @staticmethod
    async def over_ndjson(host, port, body):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode({**body, "id": 1}))
        await writer.drain()
        line = await reader.readline()
        writer.close()
        await writer.wait_closed()
        return decode(line)

    @pytest.mark.parametrize("first", ["binary", "ndjson"])
    def test_one_entry_serves_every_framing(self, first):
        async def scenario():
            server = make_server(cache_size=64)
            host, port = await server.start()
            replies = []
            for body in self.BODIES:
                fill, hit = (
                    (self.over_binary, self.over_ndjson)
                    if first == "binary"
                    else (self.over_ndjson, self.over_binary)
                )
                filled = await fill(host, port, body)
                wired = await hit(host, port, body)
                inproc = await server.handle_request(dict(body))
                replies.append((filled, wired, inproc))
            await server.stop()
            return replies

        for filled, wired, inproc in run(scenario()):
            assert "cached" not in filled
            assert wired["cached"] is True and inproc["cached"] is True
            assert type(inproc["result"]) is dict
            payload = canonical_json(filled["result"])
            assert canonical_json(wired["result"]) == payload
            assert canonical_json(inproc["result"]) == payload


class TestClientAfterHangup:
    """A backend that hangs up between two requests must fail the second
    one promptly and retriably, not leave it waiting for a reply."""

    def test_request_after_backend_hangup_fails_fast(self):
        async def one_reply_then_hang_up(reader, writer):
            request = decode(await reader.readline())
            writer.write(encode(ok_response(request["id"], {"pong": True})))
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def scenario():
            listener = await asyncio.start_server(
                one_reply_then_hang_up, "127.0.0.1", 0
            )
            host, port = listener.sockets[0].getsockname()[:2]
            client = await AsyncServiceClient.connect(host, port)
            try:
                first = await client.ping()
                listener.close()
                await listener.wait_closed()
                async with asyncio.timeout(5.0):
                    while not client._reader_task.done():
                        await asyncio.sleep(0.01)
                with pytest.raises(ServiceError) as excinfo:
                    async with asyncio.timeout(5.0):
                        await client.ping()
            finally:
                await client.close()
            return first, excinfo.value, client._pending

        first, error, pending = run(scenario())
        assert first is True
        assert (error.code, error.retriable) == ("backend_unavailable", True)
        assert pending == {}

    def test_close_fails_requests_still_waiting(self):
        async def never_replies(reader, writer):
            await reader.read()
            writer.close()

        async def scenario():
            listener = await asyncio.start_server(
                never_replies, "127.0.0.1", 0
            )
            host, port = listener.sockets[0].getsockname()[:2]
            client = await AsyncServiceClient.connect(host, port)
            waiting = asyncio.ensure_future(client.ping())
            await asyncio.sleep(0.05)
            await client.close()
            with pytest.raises(ServiceError):
                async with asyncio.timeout(5.0):
                    await waiting
            listener.close()
            await listener.wait_closed()

        run(scenario())


class TestGridValidation:
    """A grid is checked once, on the loop, so a bad one gets the same
    ``bad_request`` envelope whether the loop or a worker evaluates."""

    BAD_GRIDS = ([None, 1.0], [[1.0, 2.0], [3.0, 4.0]], ["abc", 1.0], [])

    @pytest.mark.parametrize("workers", [0, 1])
    def test_bad_grids_answer_bad_request_for_any_worker_count(self, workers):
        async def scenario():
            server = make_server(workers=workers)
            try:
                return [
                    await server.handle_request(
                        {"id": 1, "op": "eval", "machine": MACHINES[0],
                         "model": "power", "metric": "power",
                         "intensities": grid}
                    )
                    for grid in self.BAD_GRIDS
                ]
            finally:
                await server.stop()

        expected = {
            "ok": False,
            "id": 1,
            "error": {
                "code": "bad_request",
                "message": "intensities must be a non-empty array of numbers",
            },
        }
        assert run(scenario()) == [expected] * len(self.BAD_GRIDS)

    def test_arrays_and_number_lists_answer_alike(self):
        grid = [1, 2.0, 4]
        good = (grid, tuple(grid), np.array(grid), np.array(grid, dtype=int))
        bad = (np.array([[1.0, 2.0]]), np.array([True, False]), np.array([]))

        async def scenario():
            server = make_server()
            try:
                return [
                    await server.handle_request(
                        {"op": "eval", "machine": MACHINES[0],
                         "model": "power", "metric": "power",
                         "intensities": form}
                    )
                    for form in (*good, *bad)
                ]
            finally:
                await server.stop()

        replies = run(scenario())
        served, refused = replies[: len(good)], replies[len(good):]
        assert served[0]["ok"] and len(served[0]["result"]["values"]) == 3
        assert all(reply == served[0] for reply in served)
        assert [r["error"]["code"] for r in refused] == ["bad_request"] * 3


class TestLongNdjsonReplies:
    """A reply line longer than 1 MiB is read whole over NDJSON."""

    def test_large_curve_over_ndjson_equals_binary(self):
        body = {"op": "curve", "machine": MACHINES[0], "kind": "roofline",
                "points_per_octave": 8192}

        async def scenario():
            server = make_server()
            host, port = await server.start()
            try:
                async with asyncio.timeout(30.0):
                    async with await AsyncServiceClient.connect(
                        host, port
                    ) as ndjson:
                        over_ndjson = await ndjson.call(dict(body))
                        received = ndjson.bytes_received
                    async with await AsyncServiceClient.connect(
                        host, port, wire="binary"
                    ) as binary:
                        over_binary = await binary.call(dict(body))
            finally:
                await server.stop()
            return over_ndjson, received, over_binary

        over_ndjson, received, over_binary = run(scenario())
        assert received > 2**20
        assert len(over_ndjson["values"]) == 81921
        assert canonical_json(over_ndjson) == canonical_json(over_binary)

    def test_line_over_the_limit_fails_with_a_clear_error(self):
        async def scenario():
            server = make_server()
            host, port = await server.start()
            try:
                client = await AsyncServiceClient.connect(
                    host, port, limit=4096
                )
                try:
                    with pytest.raises(ServiceError) as excinfo:
                        async with asyncio.timeout(10.0):
                            await client.curve(
                                MACHINES[0], "roofline", points_per_octave=64
                            )
                finally:
                    await client.close()
            finally:
                await server.stop()
            return excinfo.value

        error = run(scenario())
        assert "read limit" in error.message


class TestLongNdjsonRequests:
    """The server reads a request line up to the 1 MiB line bound over
    NDJSON (not asyncio's 64 KiB default) and answers a longer one."""

    @pytest.mark.parametrize("n_points", [12_000, 30_000])
    def test_large_grid_over_ndjson_equals_binary(self, n_points):
        grid = np.geomspace(0.125, 256.0, n_points).tolist()
        body = {"op": "eval", "machine": MACHINES[0], "model": "power",
                "metric": "power", "intensities": grid}

        async def scenario():
            server = make_server()
            host, port = await server.start()
            try:
                async with asyncio.timeout(30.0):
                    async with await AsyncServiceClient.connect(
                        host, port
                    ) as ndjson:
                        over_ndjson = await ndjson.call(dict(body))
                        sent = ndjson.bytes_sent
                    async with await AsyncServiceClient.connect(
                        host, port, wire="binary"
                    ) as binary:
                        over_binary = await binary.call(dict(body))
            finally:
                await server.stop()
            return over_ndjson, sent, over_binary

        over_ndjson, sent, over_binary = run(scenario())
        assert sent > 64 * 1024
        assert len(over_ndjson["values"]) == n_points
        assert canonical_json(over_ndjson) == canonical_json(over_binary)

    def test_line_over_the_bound_gets_one_bad_request_and_a_close(self):
        line = b'{"op":"stats","pad":"' + b"x" * MAX_LINE_BYTES + b'"}\n'

        def send_and_read_all(host: str, port: int) -> bytes:
            with socket.create_connection((host, port), timeout=10.0) as sock:
                try:
                    sock.sendall(line)
                except OSError:
                    pass  # the server may hang up before reading it all
                received = b""
                while True:
                    try:
                        chunk = sock.recv(65536)
                    except ConnectionResetError:
                        break  # unread request bytes make the close a reset
                    if not chunk:
                        break
                    received += chunk
                return received

        async def scenario():
            server = make_server()
            host, port = await server.start()
            try:
                async with asyncio.timeout(30.0):
                    received = await asyncio.to_thread(
                        send_and_read_all, host, port
                    )
                    # The listener still serves after the hangup.
                    async with await AsyncServiceClient.connect(
                        host, port
                    ) as client:
                        stats = await client.call({"op": "stats"})
            finally:
                await server.stop()
            return received, stats

        received, stats = run(scenario())
        assert received.count(b"\n") == 1
        assert decode(received) == {
            "ok": False,
            "error": {
                "code": "bad_request",
                "message": f"line exceeds {MAX_LINE_BYTES} bytes",
            },
        }
        assert stats["counters"]["errors_total"] == 1


class _Raising(WireFrontend):
    """A pipeline with a bug: every request raises ``TypeError``."""

    def __init__(self):
        self._init_frontend(
            metrics=MetricsRegistry(), wire="auto", host="127.0.0.1", port=0
        )

    async def handle_request(self, request, *, arrays=None, encoded=False):
        raise TypeError("pipeline bug")


class TestNoRequestUnanswered:
    @pytest.mark.parametrize("wire", ["ndjson", "binary"])
    def test_raising_pipeline_answers_internal(self, wire):
        async def scenario():
            frontend = _Raising()
            host, port = await frontend.start()
            try:
                async with await AsyncServiceClient.connect(
                    host, port, wire=wire
                ) as client:
                    async with asyncio.timeout(5.0):
                        reply = await client.request({"op": "balance"})
                    assert client.wire == wire
            finally:
                await frontend._close_listener()
            return reply

        reply = run(scenario())
        assert reply["ok"] is False
        assert reply["error"] == {
            "code": "internal", "message": "TypeError: pipeline bug"
        }

    def test_unencodable_request_leaves_nothing_pending(self):
        async def scenario():
            server = make_server()
            host, port = await server.start()
            try:
                async with await AsyncServiceClient.connect(
                    host, port
                ) as client:
                    with pytest.raises(TypeError):
                        await client.request({"op": "ping", "x": object()})
                    pending = dict(client._pending)
                    async with asyncio.timeout(5.0):
                        still_served = await client.ping()
            finally:
                await server.stop()
            return pending, still_served

        pending, still_served = run(scenario())
        assert pending == {}
        assert still_served is True
