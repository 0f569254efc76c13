"""The scale-out router: one listener fanning out to many servers.

:class:`RouterServer` speaks the full client-facing wire surface —
NDJSON and negotiated binary framing, via the shared
:class:`~repro.service.frontend.WireFrontend` — and forwards every
request over TCP to one of N replicated
:class:`~repro.service.server.ModelServer` instances, chosen by the
consistent-hash ring in :mod:`repro.service.router.ring`.

**Byte-identity invariant.**  Canonical response payloads do not depend
on topology, replication factor, or which replica answered:

* Placement only selects *which* backend computes; every backend holds
  the same machine registry and the serving pipeline is already
  byte-identical across worker counts and framings (PR 5/PR 7 tests).
* The router never rewrites a backend ``result`` — it re-wraps it in a
  fresh envelope via the same :func:`~repro.service.protocol.ok_response`
  / :func:`~repro.service.protocol.error_response` constructors the
  server uses, substituting only the client's request id.  On an
  NDJSON backend hop the result arrives as the backend's own encoded
  bytes (:class:`~repro.service.protocol.RawJSON`); an NDJSON client
  gets those bytes spliced into its line, and only a binary or
  in-process caller pays to decode them.
* Failover retries are full re-sends of the original request; whichever
  replica finally answers produces the same canonical payload.

**Failover.**  A request's candidate order is its ring replica list,
healthy backends first (health only *reorders*; the ring alone decides
membership, so placement stays topology-stable).  Transport failures
(connect refused, connection dropped mid-request) and replies marked
``"retriable": true`` move to the next candidate after a capped,
jittered, seeded backoff; any other reply — success or a definitive
error like ``bad_request`` — is returned as-is on first receipt.

**Forwarded vs local ops.**  ``ping`` and ``stats`` answer locally
(they describe *this* process: liveness, ring, per-backend health and
latency).  Everything else — including ``machines`` and other keyless
ops, which route on a stable synthetic key — is forwarded.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.exceptions import ServiceError
from repro.service.client import AsyncServiceClient, RetryPolicy
from repro.service.frontend import WireFrontend
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    BACKEND_UNAVAILABLE,
    BAD_REQUEST,
    RawJSON,
    decoded,
    ok_response,
    error_response,
)
from repro.service.router.health import HealthMonitor
from repro.service.router.ring import DEFAULT_VNODES, HashRing
from repro.service.wire import WIRE_BINARY, WIRE_NDJSON
from repro.units import to_milliseconds

__all__ = ["BackendHandle", "RouterConfig", "RouterServer", "parse_backend"]


def parse_backend(spec: str) -> str:
    """Normalise a ``HOST:PORT`` backend spec; raises ``ValueError``."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"backend must be HOST:PORT, got {spec!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"backend port must be an integer, got {spec!r}")
    if not 0 < port_num < 65536:
        raise ValueError(f"backend port out of range: {spec!r}")
    return f"{host}:{port_num}"


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs for one :class:`RouterServer`.

    Attributes
    ----------
    host, port:
        Client-facing TCP bind address; port ``0`` lets the OS pick.
    wire:
        Client-side framing policy (``auto``/``binary``/``ndjson``),
        same semantics as the server's knob.
    backend_wire:
        Framing the router *offers* its backends: ``binary`` (default)
        negotiates the zero-copy framing and degrades silently against
        NDJSON-only servers; ``ndjson`` never offers.
    replication:
        Distinct replicas per key (clamped to the backend count).
    vnodes:
        Virtual ring points per backend.
    attempts, base_delay, max_delay, retry_seed:
        Failover retry budget and backoff shape (see
        :class:`~repro.service.client.RetryPolicy`).
    health_interval, down_after, probe_timeout:
        Probe cadence, consecutive-failure mark-down threshold, and
        per-probe deadline in seconds.
    connect_timeout:
        Per-backend TCP connect deadline in seconds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    wire: str = "auto"
    backend_wire: str = WIRE_BINARY
    replication: int = 1
    vnodes: int = DEFAULT_VNODES
    attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 0.5
    retry_seed: int = 0
    health_interval: float = 1.0
    down_after: int = 3
    probe_timeout: float = 2.0
    connect_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.backend_wire not in (WIRE_BINARY, WIRE_NDJSON):
            raise ValueError(
                f"backend_wire must be {WIRE_BINARY!r} or {WIRE_NDJSON!r}, "
                f"got {self.backend_wire!r}"
            )
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )


class BackendHandle:
    """One backend's connection plus its router-side instruments.

    A single multiplexing :class:`~repro.service.client.AsyncServiceClient`
    carries all in-flight requests to the backend; it is (re)built
    lazily under a lock, and discarded on the first transport failure
    so the next attempt reconnects from scratch.
    """

    def __init__(
        self,
        backend: str,
        *,
        metrics: MetricsRegistry,
        wire: str = WIRE_BINARY,
        connect_timeout: float = 5.0,
    ):
        host, _, port = backend.rpartition(":")
        self.backend = backend
        self.host = host
        self.port = int(port)
        self._wire = wire
        self._connect_timeout = connect_timeout
        self._client: AsyncServiceClient | None = None
        self._connect_lock = asyncio.Lock()
        self.requests = metrics.counter(f"backend.requests_total[{backend}]")
        self.transport_errors = metrics.counter(
            f"backend.transport_errors_total[{backend}]"
        )
        self.latency = metrics.histogram(f"backend.latency_ms[{backend}]")

    async def _ensure_client(self) -> AsyncServiceClient:
        client = self._client
        if client is not None:
            return client
        async with self._connect_lock:
            if self._client is None:
                async with asyncio.timeout(self._connect_timeout):
                    self._client = await AsyncServiceClient.connect(
                        self.host, self.port, wire=self._wire
                    )
            return self._client

    async def _discard(self, client: AsyncServiceClient) -> None:
        async with self._connect_lock:
            if self._client is client:
                self._client = None
        try:
            await client.close()
        except (ConnectionError, OSError):
            pass

    async def call(self, request: dict[str, Any]) -> dict[str, Any]:
        """Forward one request; returns the backend's envelope.

        Raises :class:`ServiceError` on transport failure (connect,
        send, or the connection dying before the reply) — *never* for
        an error envelope, which is an answer, not a failure.  A
        success result from an NDJSON backend stays encoded
        (:class:`~repro.service.protocol.RawJSON`).
        """
        started = time.perf_counter()
        try:
            client = await self._ensure_client()
            reply = await client.request_encoded(dict(request))
        except (
            ServiceError,
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
        ) as exc:
            self.transport_errors.inc()
            if self._client is not None:
                await self._discard(self._client)
            raise ServiceError(
                BACKEND_UNAVAILABLE,
                f"backend {self.backend} unavailable: {exc}",
                retriable=True,
            ) from exc
        self.requests.inc()
        self.latency.observe(to_milliseconds(time.perf_counter() - started))
        return reply

    @property
    def wire(self) -> str | None:
        """Negotiated backend framing, once connected."""
        return self._client.wire if self._client is not None else None

    async def close(self) -> None:
        if self._client is not None:
            await self._discard(self._client)

    def snapshot(self) -> dict[str, Any]:
        return {
            "requests_total": self.requests.value,
            "transport_errors_total": self.transport_errors.value,
            "latency_ms": self.latency.snapshot(),
            "wire": self.wire,
        }


class RouterServer(WireFrontend):
    """Consistent-hash scale-out router over replicated model servers.

    Usage mirrors :class:`~repro.service.server.ModelServer`::

        router = RouterServer(["127.0.0.1:7071", "127.0.0.1:7072"],
                              RouterConfig(replication=2))
        host, port = await router.start()
        ...
        await router.stop()

    Membership and replication are fixed for the router's life.
    """

    def __init__(
        self,
        backends: Iterable[str],
        config: RouterConfig | None = None,
    ):
        self.config = config or RouterConfig()
        backend_ids = [parse_backend(b) for b in backends]
        if not backend_ids:
            raise ValueError("router needs at least one backend")
        self.metrics = MetricsRegistry()
        self._init_frontend(
            metrics=self.metrics,
            wire=self.config.wire,
            host=self.config.host,
            port=self.config.port,
        )
        self.ring = HashRing(
            backend_ids,
            vnodes=self.config.vnodes,
            replication=self.config.replication,
        )
        self._handles: dict[str, BackendHandle] = {
            b: BackendHandle(
                b,
                metrics=self.metrics,
                wire=self.config.backend_wire,
                connect_timeout=self.config.connect_timeout,
            )
            for b in backend_ids
        }
        self.health = HealthMonitor(
            self._probe,
            backend_ids,
            interval=self.config.health_interval,
            down_after=self.config.down_after,
        )
        self.retry = RetryPolicy(
            attempts=self.config.attempts,
            base_delay=self.config.base_delay,
            max_delay=self.config.max_delay,
            seed=self.config.retry_seed,
        )
        self._requests_total = self.metrics.counter("requests_total")
        self._retries_total = self.metrics.counter("retries_total")
        self._failovers_total = self.metrics.counter("failovers_total")
        self._latency = self.metrics.histogram("latency_ms")
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        address = await super().start()
        self.health.start()
        return address

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting, settle in-flight forwards, close backends."""
        await self.health.stop()
        await self._close_listener(cancel_connections=not drain)
        for handle in self._handles.values():
            await handle.close()

    # ------------------------------------------------------------------
    # Health probe
    # ------------------------------------------------------------------

    async def _probe(self, backend: str) -> bool:
        try:
            async with asyncio.timeout(self.config.probe_timeout):
                reply = await self._handles[backend].call({"op": "ping"})
        except (ServiceError, asyncio.TimeoutError, TimeoutError):
            return False
        return bool(reply.get("ok"))

    # ------------------------------------------------------------------
    # Request pipeline
    # ------------------------------------------------------------------

    def routing_key(self, request: dict[str, Any]) -> str:
        """The placement key for one request.

        Requests with a ``machine`` key on its name, exactly like the
        worker pool's shards; keyless ops (``machines``…) route on a
        synthetic per-op key so they still land deterministically.
        """
        machine = request.get("machine")
        if isinstance(machine, str) and machine:
            return machine
        op = request.get("op")
        return f"\x00op:{op}" if isinstance(op, str) else "\x00op:"

    async def handle_request(
        self,
        request: dict[str, Any],
        *,
        arrays: dict[str, Any] | None = None,
        encoded: bool = False,
    ) -> dict[str, Any]:
        """Answer one decoded request envelope (never raises).

        ``arrays`` is accepted for frontend compatibility but never
        filled: the router only holds decoded lists, and
        :func:`~repro.service.wire.encode_frame` lifts those into raw
        sections on binary connections — byte-identical either way.
        ``encoded=True`` (an NDJSON connection) leaves a forwarded
        backend result as the :class:`~repro.service.protocol.RawJSON`
        it arrived as; otherwise it is decoded here.
        """
        started = time.perf_counter()
        self._requests_total.inc()
        request_id = request.get("id")
        op = request.get("op")
        if not isinstance(op, str):
            return error_response(
                request_id, BAD_REQUEST, "missing required field 'op'"
            )
        if op == "ping":
            return ok_response(request_id, {"pong": True})
        if op == "stats":
            return ok_response(request_id, self.stats())
        response = await self._forward(request, self.routing_key(request))
        self._latency.observe(to_milliseconds(time.perf_counter() - started))
        return response if encoded else decoded(response)

    def _candidates(self, key: str) -> list[str]:
        return self.health.healthy_first(self.ring.replicas(key))

    async def _forward(
        self, request: dict[str, Any], key: str
    ) -> dict[str, Any]:
        """Send ``request`` to its replicas with failover retries."""
        request_id = request.get("id")
        candidates = self._candidates(key)
        if not candidates:
            return error_response(
                request_id,
                BACKEND_UNAVAILABLE,
                "no backends on the ring",
                retriable=True,
            )
        # At least one try per replica even when attempts is smaller —
        # failing over to an untried healthy replica is the whole point.
        tries = max(self.retry.attempts, len(candidates))
        last_error: ServiceError | None = None
        for attempt in range(1, tries + 1):
            backend = candidates[(attempt - 1) % len(candidates)]
            handle = self._handles[backend]
            if attempt > 1:
                self._retries_total.inc()
                if backend != candidates[0]:
                    self._failovers_total.inc()
                await asyncio.sleep(self.retry.backoff(attempt - 1))
            try:
                reply = await handle.call(request)
            except ServiceError as exc:
                self.health.record_failure(backend)
                last_error = exc
                continue
            self.health.record_success(backend)
            error = reply.get("error") if isinstance(reply, dict) else None
            if (
                isinstance(error, dict)
                and error.get("retriable")
                and attempt < tries
            ):
                last_error = ServiceError(
                    str(error.get("code", BACKEND_UNAVAILABLE)),
                    str(error.get("message", "retriable backend error")),
                    retriable=True,
                )
                continue
            return self._rewrap(reply, request_id)
        assert last_error is not None
        return error_response(
            request_id,
            last_error.code,
            last_error.message,
            retriable=True,
        )

    @staticmethod
    def _rewrap(reply: Any, request_id: Any) -> dict[str, Any]:
        """Rebuild a backend envelope around the client's request id.

        Routed through the same envelope constructors the server uses,
        so field order — and therefore the encoded bytes — match a
        direct server response exactly.  An encoded result is trusted,
        not parsed: the backends are this package's servers, and
        :func:`~repro.service.protocol.decode_reply` only leaves a
        result encoded when the line has the exact shape they write.
        """
        if not isinstance(reply, dict):
            return error_response(
                request_id,
                BACKEND_UNAVAILABLE,
                "malformed backend reply",
                retriable=True,
            )
        if reply.get("ok"):
            result = reply.get("result")
            if not isinstance(result, (dict, RawJSON)):
                return error_response(
                    request_id,
                    BACKEND_UNAVAILABLE,
                    "malformed backend reply",
                    retriable=True,
                )
            return ok_response(
                request_id, result, cached=bool(reply.get("cached"))
            )
        error = reply.get("error") or {}
        return error_response(
            request_id,
            str(error.get("code", BACKEND_UNAVAILABLE)),
            str(error.get("message", "unknown backend error")),
            retriable=bool(error.get("retriable")),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Router-side view: ring, health, per-backend instruments."""
        health = self.health.snapshot()
        backends = {
            backend: {**health[backend], **self._handles[backend].snapshot()}
            for backend in self.ring.backends
        }
        snapshot = self.metrics.snapshot()
        snapshot["role"] = "router"
        snapshot["uptime_s"] = time.perf_counter() - self._started
        snapshot["ring"] = self.ring.describe()
        snapshot["backends"] = backends
        snapshot["config"] = {
            "wire": self.config.wire,
            "backend_wire": self.config.backend_wire,
            "replication": self.config.replication,
            "vnodes": self.config.vnodes,
            "attempts": self.config.attempts,
            "health_interval": self.config.health_interval,
            "down_after": self.config.down_after,
        }
        return snapshot
