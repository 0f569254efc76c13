"""The scale-out router end to end: byte-identity, routing, failover.

The load-bearing assertion is the **byte-identity invariant**: the
canonical response bytes a client reads must not depend on topology —
how many backends sit behind the router, the replication factor, which
replica answered, or which framing the client negotiated.  The matrix
here drives identical request streams through {direct server} x
{1 backend, 3 backends} x {replication 1, 2} x {ndjson, binary} and
compares *encoded envelope bytes*, not parsed values.  (Backends run
with the response cache off: the ``cached: true`` marker is
backend-local telemetry — a direct client re-asking the same server
sees it too — so it is deliberately outside the invariant.)

Around that core:

* health: ``down_after`` consecutive failures demote a backend in the
  failover order (placement never changes), first success promotes it;
* failover: a stopped backend is retried on the next replica and the
  client sees the same bytes it would have read from a healthy ring;
* the :class:`~repro.service.client.RetryPolicy` satellite: seeded
  jitter, capped growth, retriable-only retries, sync and async.
"""

from __future__ import annotations

import asyncio

import pytest

from repro._canon import canonical_json
from repro.exceptions import ServiceError
from repro.service.client import AsyncServiceClient, RetryPolicy
from repro.service.protocol import decode, encode, ok_response
from repro.service.router import (
    HealthMonitor,
    RouterConfig,
    RouterServer,
    parse_backend,
)
from repro.service.server import ModelServer, ServerConfig

MACHINES = ("gtx580-double", "i7-950-double", "gtx580-single")
CATALOG_MACHINES = (
    "gtx580-double", "gtx580-single", "i7-950-double", "i7-950-single",
    "keckler-fermi",
)


def run(coro):
    return asyncio.run(coro)


def make_backend(**overrides) -> ModelServer:
    config = {"cache_size": 0, "flush_window": 0.0, "port": 0}
    config.update(overrides)
    return ModelServer(ServerConfig(**config))


def request_stream() -> list[dict]:
    """A mixed, deterministic request stream with stable ids."""
    requests = []
    rid = 0
    for machine in MACHINES:
        for intensity in (0.25, 2.0, 64.0):
            requests.append({
                "id": f"r{rid}", "op": "eval", "machine": machine,
                "model": "capped", "metric": "energy_per_flop",
                "intensity": intensity,
            })
            rid += 1
        requests.append({
            "id": f"r{rid}", "op": "curve", "machine": machine,
            "kind": "archline", "points_per_octave": 20,
        })
        rid += 1
    # Error paths must be byte-stable through the re-wrap too.
    requests.append({"id": f"r{rid}", "op": "eval", "machine": "no-such",
                     "model": "energy", "metric": "energy_per_flop",
                     "intensity": 1.0})
    requests.append({"id": f"r{rid + 1}", "op": "frobnicate"})
    return requests


async def collect_bytes(host: int, port: int, wire: str) -> list[bytes]:
    """Canonical encoded bytes of every response, in request order."""
    client = await AsyncServiceClient.connect(host, port, wire=wire)
    try:
        replies = await asyncio.gather(*(
            client.request(dict(request)) for request in request_stream()
        ))
        return [encode(reply) for reply in replies]
    finally:
        await client.close()


async def start_backends(n: int) -> tuple[list[ModelServer], list[str]]:
    backends, addresses = [], []
    for _ in range(n):
        backend = make_backend()
        host, port = await backend.start()
        backends.append(backend)
        addresses.append(f"{host}:{port}")
    return backends, addresses


class TestByteIdentity:
    def test_topology_never_changes_bytes(self):
        """The full matrix against a direct-server baseline."""

        async def scenario():
            baseline_server = make_backend()
            host, port = await baseline_server.start()
            baseline = await collect_bytes(host, port, "ndjson")
            assert await collect_bytes(host, port, "binary") == baseline
            await baseline_server.stop()

            for n_backends in (1, 3):
                for replication in (1, 2):
                    backends, addresses = await start_backends(n_backends)
                    router = RouterServer(
                        addresses,
                        RouterConfig(replication=replication),
                    )
                    rhost, rport = await router.start()
                    try:
                        for wire in ("ndjson", "binary"):
                            routed = await collect_bytes(rhost, rport, wire)
                            assert routed == baseline, (
                                f"bytes diverged at backends={n_backends} "
                                f"replication={replication} wire={wire}"
                            )
                    finally:
                        await router.stop()
                        for backend in backends:
                            await backend.stop()

        run(scenario())

    def test_replica_choice_never_changes_bytes(self):
        """With replication=2, the answer from replica 2 (primary dead)
        is byte-identical to the answer replica 1 would have given."""

        async def scenario():
            backends, addresses = await start_backends(2)
            router = RouterServer(
                addresses,
                RouterConfig(replication=2, base_delay=0.001),
            )
            rhost, rport = await router.start()
            dead = None
            try:
                healthy = await collect_bytes(rhost, rport, "ndjson")
                # Kill the first request's primary, so at least that key
                # fails over to the surviving replica (ring placement
                # hashes ephemeral ports: a fixed backend may be the
                # primary of no key in the stream).
                primary = router.ring.replicas(
                    router.routing_key(request_stream()[0])
                )[0]
                dead = backends[addresses.index(primary)]
                await dead.stop()
                degraded = await collect_bytes(rhost, rport, "ndjson")
                assert degraded == healthy
                assert router.metrics.counter("failovers_total").value > 0
            finally:
                await router.stop()
                for backend in backends:
                    if backend is not dead:
                        await backend.stop()

        run(scenario())


async def raw_lines(host: str, port: int, requests: list[dict]) -> list[bytes]:
    """Each request's reply line as read off the socket, one at a time."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = []
        for request in requests:
            writer.write(encode(request))
            await writer.drain()
            lines.append(await reader.readline())
        return lines
    finally:
        writer.close()
        await writer.wait_closed()


class TestNdjsonBackendHop:
    """NDJSON on both hops with the backends' response cache on: the
    router forwards the backend's result bytes instead of re-encoding
    them, and nothing a client reads may change because of it."""

    @staticmethod
    def requests() -> list[dict]:
        """Cacheable requests, each sent twice (miss, then hit), with
        id types the reply splitter does and does not handle."""
        bodies = [
            {"op": "eval", "machine": "gtx580-double", "model": "energy",
             "metric": "energy_per_flop", "intensity": 2.0},
            {"op": "eval", "machine": "i7-950-double", "model": "power",
             "metric": "power", "intensities": [0.5 * i for i in range(1, 41)]},
            {"op": "curve", "machine": "gtx580-single", "kind": "archline",
             "points_per_octave": 20},
            {"op": "describe", "machine": "i7-950-double"},
            {"op": "machines"},
            {"op": "eval", "machine": "no-such", "model": "energy",
             "metric": "energy_per_flop", "intensity": 1.0},
        ]
        ids = [7, "s-1", -3, None, 0, "x"]
        requests = []
        for body, request_id in zip(bodies, ids):
            for _ in range(2):
                request = dict(body)
                if request_id is not None:
                    request["id"] = request_id
                requests.append(request)
        return requests

    def test_routed_lines_equal_direct_lines_on_miss_and_hit(self):
        async def scenario():
            direct = make_backend(cache_size=64)
            dhost, dport = await direct.start()
            backends = [make_backend(cache_size=64) for _ in range(2)]
            addresses = [
                "%s:%d" % await backend.start() for backend in backends
            ]
            router = RouterServer(
                addresses, RouterConfig(backend_wire="ndjson")
            )
            rhost, rport = await router.start()
            try:
                expected = await raw_lines(dhost, dport, self.requests())
                routed = await raw_lines(rhost, rport, self.requests())
                binary = await AsyncServiceClient.connect(
                    rhost, rport, wire="binary"
                )
                try:
                    binary_replies = [
                        await binary.request(request)
                        for request in self.requests()
                    ]
                finally:
                    await binary.close()
                backend_wires = {
                    info["wire"]
                    for info in router.stats()["backends"].values()
                    if info["wire"] is not None
                }
            finally:
                await router.stop()
                for backend in (direct, *backends):
                    await backend.stop()
            return expected, routed, binary, binary_replies, backend_wires

        expected, routed, binary, binary_replies, backend_wires = run(
            scenario()
        )
        assert backend_wires == {"ndjson"}
        assert routed == expected
        # Every cacheable request was answered from a cache the second
        # time, on both paths, and the marker survived the splice.
        assert [b'"cached":true' in line for line in expected] == [
            False, True, False, True, False, True, False, True, False, True,
            False, False,
        ]
        assert binary.wire == "binary"
        for reply, line in zip(binary_replies, expected):
            direct = decode(line)
            assert reply["ok"] == direct["ok"]
            if direct["ok"]:
                assert canonical_json(reply["result"]) == canonical_json(
                    direct["result"]
                )
            else:
                assert reply["error"] == direct["error"]

    @pytest.mark.parametrize("with_replica", [False, True])
    def test_backend_closing_mid_line(self, with_replica):
        """A torn reply line is a transport failure: a retriable
        ``backend_unavailable``, or a failover to a healthy replica."""
        async def torn(reader, writer):
            line = await reader.readline()
            if line:
                reply = encode(ok_response(decode(line)["id"], {"v": 1.0}))
                writer.write(reply[: len(reply) // 2])
                await writer.drain()
            writer.close()

        async def scenario():
            backends, replica = [], []
            if with_replica:
                backends = [make_backend(cache_size=64)]
                replica = ["%s:%d" % await backends[0].start()]
            # Bind the torn listener until some machine's first replica
            # is it, so the tear is always hit (and, with a replica,
            # failed over): placement hashes the ephemeral port.
            tried = []
            for _ in range(20):
                listener = await asyncio.start_server(torn, "127.0.0.1", 0)
                addresses = [
                    "%s:%d" % listener.sockets[0].getsockname()[:2], *replica
                ]
                router = RouterServer(
                    addresses,
                    RouterConfig(
                        backend_wire="ndjson",
                        replication=len(addresses),
                        base_delay=0.001,
                        health_interval=60.0,
                    ),
                )
                machine = next(
                    (
                        key for key in CATALOG_MACHINES
                        if router.ring.replicas(router.routing_key(
                            {"machine": key}))[0] == addresses[0]
                    ),
                    None,
                )
                if machine is not None:
                    break
                tried.append(addresses[0])
                listener.close()
                await listener.wait_closed()
            else:
                for backend in backends:
                    await backend.stop()
                raise AssertionError(
                    f"no catalog machine has the torn listener as first "
                    f"replica after {len(tried)} binds {tried} "
                    f"(replica {replica})"
                )
            request = {"id": 5, "op": "describe", "machine": machine}
            rhost, rport = await router.start()
            try:
                [line] = await raw_lines(rhost, rport, [request])
                counters = router.stats()["counters"]
            finally:
                await router.stop()
                for backend in backends:
                    await backend.stop()
                listener.close()
                await listener.wait_closed()
            return decode(line), counters

        reply, counters = run(scenario())
        assert reply["id"] == 5
        assert counters["retries_total"] >= 1
        if with_replica:
            assert counters["failovers_total"] >= 1
            assert reply["ok"] is True
            assert reply["result"]["name"]
        else:
            assert reply["ok"] is False
            assert reply["error"]["code"] == "backend_unavailable"
            assert reply["error"]["retriable"] is True


class TestRouting:
    def test_same_machine_sticks_to_one_backend(self):
        async def scenario():
            backends, addresses = await start_backends(3)
            router = RouterServer(addresses, RouterConfig())
            rhost, rport = await router.start()
            client = await AsyncServiceClient.connect(rhost, rport)
            try:
                for _ in range(6):
                    await client.eval(
                        "gtx580-double", "energy_per_flop",
                        model="energy", intensity=2.0,
                    )
                stats = await client.stats()
                served = [
                    info["requests_total"]
                    for info in stats["backends"].values()
                    if info.get("requests_total")
                ]
                # One backend took all 6 evals (probe pings ride along).
                assert max(served) >= 6
            finally:
                await client.close()
                await router.stop()
                for backend in backends:
                    await backend.stop()

        run(scenario())

    def test_router_rejects_bad_requests_locally(self):
        async def scenario():
            backends, addresses = await start_backends(1)
            router = RouterServer(addresses, RouterConfig())
            rhost, rport = await router.start()
            client = await AsyncServiceClient.connect(rhost, rport)
            try:
                reply = await client.request({"id": "x"})
                assert reply["error"]["code"] == "bad_request"
                pong = await client.request({"op": "ping", "id": "p"})
                assert pong["result"] == {"pong": True}
            finally:
                await client.close()
                await router.stop()
                for backend in backends:
                    await backend.stop()

        run(scenario())

    def test_parse_backend(self):
        assert parse_backend("10.0.0.1:8733") == "10.0.0.1:8733"
        with pytest.raises(ValueError):
            parse_backend("no-port")
        with pytest.raises(ValueError):
            parse_backend("host:notaport")


class TestHealth:
    def test_mark_down_after_consecutive_failures_then_recovery(self):
        async def probe(backend: str) -> bool:
            return True

        monitor = HealthMonitor(probe, ["a:1", "b:2"], down_after=3)
        for _ in range(2):
            monitor.record_failure("a:1")
        assert monitor.is_healthy("a:1")
        monitor.record_failure("a:1")
        assert not monitor.is_healthy("a:1")
        assert monitor.healthy_first(["a:1", "b:2"]) == ["b:2", "a:1"]
        # A success interleaved before down_after resets the streak.
        monitor.record_success("a:1")
        assert monitor.is_healthy("a:1")
        state = monitor.snapshot()["a:1"]
        assert state["mark_downs"] == 1 and state["mark_ups"] == 1

    def test_failure_streak_resets_on_success(self):
        monitor = HealthMonitor(lambda b: None, ["a:1"], down_after=3)
        for _ in range(2):
            monitor.record_failure("a:1")
        monitor.record_success("a:1")
        for _ in range(2):
            monitor.record_failure("a:1")
        assert monitor.is_healthy("a:1")

    def test_probe_round_feeds_the_state_machine(self):
        answers = {"a:1": True, "b:2": False}

        async def probe(backend: str) -> bool:
            return answers[backend]

        async def scenario():
            monitor = HealthMonitor(probe, answers, down_after=2)
            for _ in range(2):
                await monitor.probe_once()
            assert monitor.is_healthy("a:1")
            assert not monitor.is_healthy("b:2")
            answers["b:2"] = True
            await monitor.probe_once()
            assert monitor.is_healthy("b:2")

        run(scenario())

    def test_healthy_first_is_stable(self):
        monitor = HealthMonitor(lambda b: None, ["a:1", "b:2", "c:3"],
                                down_after=1)
        monitor.record_failure("b:2")
        assert monitor.healthy_first(["c:3", "b:2", "a:1"]) == [
            "c:3", "a:1", "b:2",
        ]

    def test_unknown_backends_read_healthy(self):
        monitor = HealthMonitor(lambda b: None)
        assert monitor.is_healthy("never-seen:1")


class TestRetryPolicy:
    def test_backoff_is_seeded_and_capped(self):
        a = RetryPolicy(base_delay=0.1, max_delay=0.3, seed=7)
        b = RetryPolicy(base_delay=0.1, max_delay=0.3, seed=7)
        seq_a = [a.backoff(n) for n in range(1, 8)]
        seq_b = [b.backoff(n) for n in range(1, 8)]
        assert seq_a == seq_b
        for attempt, delay in enumerate(seq_a, start=1):
            cap = min(0.1 * 2.0 ** (attempt - 1), 0.3)
            assert 0.5 * cap <= delay < cap

    def test_only_retriable_service_errors_retry(self):
        policy = RetryPolicy(attempts=3)
        retriable = ServiceError("backend_unavailable", "x", retriable=True)
        final = ServiceError("bad_request", "x")
        assert policy.should_retry(retriable, 1)
        assert policy.should_retry(retriable, 2)
        assert not policy.should_retry(retriable, 3)  # attempts exhausted
        assert not policy.should_retry(final, 1)
        assert not policy.should_retry(RuntimeError("x"), 1)

    def test_run_sync_retries_then_succeeds(self):
        policy = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ServiceError("backend_unavailable", "down",
                                   retriable=True)
            return "ok"

        assert policy.run_sync(flaky) == "ok"
        assert len(calls) == 3

    def test_run_sync_gives_up_after_attempts(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0)

        def always_down():
            raise ServiceError("backend_unavailable", "down", retriable=True)

        with pytest.raises(ServiceError):
            policy.run_sync(always_down)

    def test_run_async_retries(self):
        policy = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)
        calls = []

        async def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise ServiceError("overloaded", "busy", retriable=True)
            return 42

        assert run(policy.run_async(flaky)) == 42
        assert len(calls) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestLongBackendReplies:
    """A reply line over 1 MiB crosses an NDJSON backend hop whole."""

    def test_large_curve_over_ndjson_hop_equals_direct_binary(self):
        body = {"op": "curve", "machine": MACHINES[0], "kind": "roofline",
                "points_per_octave": 8192}

        async def scenario():
            backend = make_backend()
            host, port = await backend.start()
            router = RouterServer(
                [f"{host}:{port}"], RouterConfig(backend_wire="ndjson")
            )
            rhost, rport = await router.start()
            try:
                async with asyncio.timeout(30.0):
                    async with await AsyncServiceClient.connect(
                        rhost, rport
                    ) as routed:
                        via_router = await routed.call(dict(body))
                    async with await AsyncServiceClient.connect(
                        host, port, wire="binary"
                    ) as direct:
                        expected = await direct.call(dict(body))
            finally:
                await router.stop()
                await backend.stop()
            return via_router, expected

        via_router, expected = run(scenario())
        assert len(expected["values"]) == 81921
        assert canonical_json(via_router) == canonical_json(expected)
