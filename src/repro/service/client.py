"""Clients for the model server: async TCP, sync TCP, and in-process.

Three transports, one surface:

* :class:`AsyncServiceClient` — asyncio TCP client that multiplexes any
  number of concurrent requests over a single connection by request id.
  Concurrency on the client side is what lets the server's micro-batcher
  do its job, so this is the client the load generator uses.
* :class:`ServiceClient` — blocking TCP client (plain sockets, no
  asyncio) for scripts and REPL use; one request at a time.
* :class:`InProcessClient` — calls a :class:`~repro.service.server.
  ModelServer` directly with no serialisation, for embedding the
  service in another asyncio application (and for tests/benchmarks
  that want the pipeline without the socket).

All of them raise :class:`~repro.exceptions.ServiceError` (carrying the
wire error code) for error replies, and return the ``result`` dict of
success replies.  Pass a :class:`RetryPolicy` to any client to retry
``"retriable": true`` error replies (worker crashes mid-request, a
backend mid-restart behind the router) with capped, jittered,
deterministic backoff instead of surfacing them raw; non-retriable
errors always surface immediately.  The scale-out router reuses the
same policy object for its replica failover.

The TCP clients accept ``wire="binary"`` to request the struct-packed
binary framing of :mod:`repro.service.wire` at connect time.  The
negotiation is a plain NDJSON ``hello`` exchange, so a binary-capable
client pointed at an NDJSON-only (or binary-refusing) server degrades
transparently to NDJSON — same envelopes, same results, byte-identical
canonical payloads.  ``client.wire`` reports what was negotiated, and
``bytes_sent`` / ``bytes_received`` count the wire traffic either way.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import time
from typing import Any, Awaitable, Callable

import numpy as np

from repro.exceptions import ServiceError
from repro.service import wire as wireformat
from repro.service.protocol import (
    BACKEND_UNAVAILABLE,
    INTERNAL,
    decode,
    decode_reply,
    decoded,
    encode,
    unwrap,
)
from repro.service.wire import WIRE_BINARY, WIRE_NDJSON

__all__ = [
    "AsyncServiceClient",
    "InProcessClient",
    "RetryPolicy",
    "ServiceClient",
]


class RetryPolicy:
    """Capped jittered backoff for ``"retriable": true`` error replies.

    One policy instance owns a seeded :func:`numpy.random.default_rng`,
    so the jitter sequence — and therefore the exact retry timing — is
    reproducible for a given seed and call order (no wall-clock or
    stdlib ``random`` involvement).  The delay before retry *n* (1-based)
    is ``min(base_delay * 2**(n-1), max_delay)`` scaled by a uniform
    jitter in ``[0.5, 1.0)``; jitter matters, because lockstep retries
    from many clients against one recovering backend are the failure
    mode backoff exists to avoid.

    ``attempts`` counts total tries including the first, so
    ``attempts=1`` disables retrying while keeping the code path
    uniform.  Only errors whose envelope carried ``"retriable": true``
    (surfaced as ``ServiceError.retriable``) are retried; everything
    else — bad requests, deadline overruns, transport failures —
    propagates on the first occurrence.
    """

    def __init__(
        self,
        *,
        attempts: int = 3,
        base_delay: float = 0.02,
        max_delay: float = 0.5,
        seed: int = 0,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if base_delay < 0.0 or max_delay < 0.0:
            raise ValueError("delays must be non-negative")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        cap = min(self.base_delay * 2.0 ** (attempt - 1), self.max_delay)
        return float(cap * (0.5 + 0.5 * self._rng.random()))

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether try number ``attempt`` (1-based) may be repeated."""
        return (
            attempt < self.attempts
            and isinstance(exc, ServiceError)
            and bool(getattr(exc, "retriable", False))
        )

    def run_sync(self, attempt_fn: Callable[[], Any]) -> Any:
        """Call ``attempt_fn`` with retries; blocking sleeps between."""
        attempt = 1
        while True:
            try:
                return attempt_fn()
            except ServiceError as exc:
                if not self.should_retry(exc, attempt):
                    raise
            time.sleep(self.backoff(attempt))
            attempt += 1

    async def run_async(
        self, attempt_fn: Callable[[], Awaitable[Any]]
    ) -> Any:
        """Await ``attempt_fn`` with retries; non-blocking sleeps."""
        attempt = 1
        while True:
            try:
                return await attempt_fn()
            except ServiceError as exc:
                if not self.should_retry(exc, attempt):
                    raise
            await asyncio.sleep(self.backoff(attempt))
            attempt += 1


def _check_wire(wire: str) -> None:
    if wire not in (WIRE_NDJSON, WIRE_BINARY):
        raise ValueError(
            f"wire must be {WIRE_NDJSON!r} or {WIRE_BINARY!r}, got {wire!r}"
        )


class _RequestAPI:
    """Shared convenience verbs; transports implement :meth:`call`."""

    async def call(self, request: dict[str, Any]) -> dict[str, Any]:
        raise NotImplementedError

    async def eval(
        self,
        machine: str,
        metric: str,
        *,
        model: str = "time",
        intensity: float | None = None,
        intensities: list[float] | None = None,
        timeout_ms: float | None = None,
    ) -> float | list[float]:
        """Point (``intensity``) or grid (``intensities``) evaluation."""
        request: dict[str, Any] = {
            "op": "eval",
            "machine": machine,
            "model": model,
            "metric": metric,
        }
        if (intensity is None) == (intensities is None):
            raise ValueError(
                "provide exactly one of intensity / intensities"
            )
        if intensity is not None:
            request["intensity"] = intensity
        else:
            request["intensities"] = list(intensities)  # type: ignore[arg-type]
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        result = await self.call(request)
        return result["value"] if intensity is not None else result["values"]

    async def curve(
        self, machine: str, kind: str, **params: Any
    ) -> dict[str, Any]:
        return await self.call(
            {"op": "curve", "machine": machine, "kind": kind, **params}
        )

    async def balance(self, machine: str) -> dict[str, Any]:
        return await self.call({"op": "balance", "machine": machine})

    async def tradeoff(
        self, machine: str, *, intensity: float, f: float, m: float
    ) -> dict[str, Any]:
        return await self.call(
            {
                "op": "tradeoff",
                "machine": machine,
                "intensity": intensity,
                "f": f,
                "m": m,
            }
        )

    async def greenup(
        self, machine: str, *, intensity: float, m: float
    ) -> dict[str, Any]:
        return await self.call(
            {"op": "greenup", "machine": machine, "intensity": intensity, "m": m}
        )

    async def describe(self, machine: str) -> dict[str, Any]:
        return await self.call({"op": "describe", "machine": machine})

    async def machines(self) -> list[dict[str, str]]:
        return (await self.call({"op": "machines"}))["machines"]

    async def stats(self) -> dict[str, Any]:
        return await self.call({"op": "stats"})

    async def ping(self) -> bool:
        return bool((await self.call({"op": "ping"})).get("pong"))


class InProcessClient(_RequestAPI):
    """Direct pipeline access to a co-resident :class:`ModelServer`.

    No serialisation happens on this path, so result dicts may be
    shared with the server's response cache — treat them as immutable
    (copy before mutating).
    """

    def __init__(self, server: Any, *, retry: RetryPolicy | None = None):
        self._server = server
        self._retry = retry

    async def _call_once(self, request: dict[str, Any]) -> dict[str, Any]:
        return unwrap(await self._server.handle_request(request))

    async def call(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._retry is None:
            return await self._call_once(request)
        return await self._retry.run_async(lambda: self._call_once(request))


class AsyncServiceClient(_RequestAPI):
    """Multiplexing asyncio TCP client.

    Use :meth:`connect` to construct::

        client = await AsyncServiceClient.connect(host, port)
        values = await asyncio.gather(
            *(client.eval("gtx580-double", "power", model="power",
                          intensity=x) for x in grid)
        )
        await client.close()

    Every in-flight request carries a unique ``id``; a background reader
    task routes each response line to its waiter, so requests issued
    concurrently genuinely overlap on the server (and micro-batch).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        wire: str = WIRE_NDJSON,
        retry: RetryPolicy | None = None,
    ):
        _check_wire(wire)
        self._reader = reader
        self._writer = writer
        self._retry = retry
        self.wire = wire
        self.bytes_sent = 0
        self.bytes_received = 0
        self._pending: dict[int, asyncio.Future] = {}
        # id 0 is reserved for the hello exchange connect() may have
        # performed before this instance existed.
        self._next_id = 1
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        limit: int = wireformat.MAX_FRAME_BYTES,
        wire: str = WIRE_NDJSON,
        retry: RetryPolicy | None = None,
    ) -> "AsyncServiceClient":
        """Connect, negotiating binary framing when ``wire="binary"``.

        The negotiation happens here, before the multiplexing read loop
        starts: one NDJSON ``hello`` request, one NDJSON reply.  Any
        reply other than a binary acceptance — an ``ndjson`` answer, an
        ``unknown_op`` from a pre-binary server — leaves the connection
        on NDJSON; check ``client.wire`` for the outcome.

        ``limit`` bounds one NDJSON reply line; by default it is the
        binary frame bound, so a reply either framing can carry is read
        whole.  A longer line fails every pending request with an
        error that names the read limit, and ends the connection.
        """
        _check_wire(wire)
        reader, writer = await asyncio.open_connection(host, port, limit=limit)
        negotiated = WIRE_NDJSON
        hello_sent = hello_received = 0
        if wire == WIRE_BINARY:
            line = encode(wireformat.hello_request(0))
            writer.write(line)
            await writer.drain()
            reply = await reader.readline()
            if not reply:
                writer.close()
                raise ServiceError(
                    INTERNAL, "connection closed during wire negotiation"
                )
            hello_sent, hello_received = len(line), len(reply)
            negotiated = wireformat.negotiated_wire(decode(reply))
        client = cls(reader, writer, wire=negotiated, retry=retry)
        client.bytes_sent += hello_sent
        client.bytes_received += hello_received
        return client

    async def _read_loop(self) -> None:
        try:
            if self.wire == WIRE_BINARY:
                await wireformat.FrameReader().run(
                    self._reader, self._on_frame
                )
            else:
                await self._read_lines()
        except (
            ConnectionError,
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ServiceError,
        ):
            pass
        finally:
            self._fail_pending("connection closed")

    async def _read_lines(self) -> None:
        while True:
            try:
                line = await self._reader.readline()
            except ValueError:
                # Over the reader's limit; the rest of the line is
                # still on the wire, so the stream cannot go on.
                self._fail_pending(
                    "a reply line exceeded the read limit set at "
                    "connect(); connection abandoned"
                )
                break
            if not line:
                break
            self.bytes_received += len(line)
            self._settle(decode_reply(line))

    def _on_frame(self, response: dict[str, Any], size: int) -> None:
        self.bytes_received += size
        self._settle(response)

    def _settle(self, response: dict[str, Any]) -> None:
        future = self._pending.pop(response.get("id"), None)
        if future is not None and not future.done():
            future.set_result(response)

    def _fail_pending(self, reason: str) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ServiceError(INTERNAL, reason))
        self._pending.clear()

    async def request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Send one request; return the full response envelope."""
        return decoded(await self.request_encoded(request))

    async def request_encoded(
        self, request: dict[str, Any]
    ) -> dict[str, Any]:
        """:meth:`request`, but an NDJSON success result stays a
        :class:`~repro.service.protocol.RawJSON` — the router's variant,
        which forwards the bytes instead of decoding them."""
        if self._closed:
            raise ServiceError(INTERNAL, "client is closed")
        if self._reader_task.done():
            # The reader already failed everything pending; nothing
            # would ever settle a reply registered now.  The request
            # was never sent, so another connection may take it.
            raise ServiceError(
                BACKEND_UNAVAILABLE, "connection closed", retriable=True
            )
        request_id = self._next_id
        self._next_id += 1
        request = {**request, "id": request_id}
        # Encoded before the reply is awaited: a request that cannot be
        # encoded raises here and leaves nothing pending.
        if self.wire == WIRE_BINARY:
            data = wireformat.encode_frame(
                wireformat.KIND_REQUEST, request_id, request
            )
        else:
            data = encode(request)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self.bytes_sent += len(data)
        try:
            self._writer.write(data)
            await self._writer.drain()
        except BaseException:
            self._pending.pop(request_id, None)
            raise
        return await future

    async def _call_once(self, request: dict[str, Any]) -> dict[str, Any]:
        return unwrap(await self.request_encoded(request))

    async def call(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._retry is None:
            return await self._call_once(request)
        return await self._retry.run_async(lambda: self._call_once(request))

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_pending("client is closed")
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()


class ServiceClient:
    """Blocking TCP client: one request at a time over one socket.

    Mirrors the async surface with synchronous methods: its request
    verbs are :class:`_RequestAPI`'s, run to completion over a blocking
    :meth:`call`.  Not thread-safe — use one instance per thread, or
    the async client.
    Pass ``wire="binary"`` to negotiate binary framing; the client
    falls back to NDJSON against servers that refuse or predate it
    (``client.wire`` reports the outcome).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        wire: str = WIRE_NDJSON,
        retry: RetryPolicy | None = None,
    ):
        _check_wire(wire)
        self._retry = retry
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self.wire = WIRE_NDJSON
        self.bytes_sent = 0
        self.bytes_received = 0
        self._next_id = 1  # id 0 is reserved for the hello exchange
        if wire == WIRE_BINARY:
            line = encode(wireformat.hello_request(0))
            self._file.write(line)
            self._file.flush()
            reply = self._file.readline()
            if not reply:
                raise ServiceError(
                    INTERNAL, "connection closed during wire negotiation"
                )
            self.bytes_sent += len(line)
            self.bytes_received += len(reply)
            self.wire = wireformat.negotiated_wire(decode(reply))

    def _read_exactly(self, n: int) -> bytes:
        data = self._file.read(n)
        if data is None or len(data) != n:
            raise ServiceError(INTERNAL, "connection closed by server")
        return data

    def request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Send one request; return the full response envelope."""
        request_id = self._next_id
        self._next_id += 1
        request = {**request, "id": request_id}
        if self.wire == WIRE_BINARY:
            data = wireformat.encode_frame(
                wireformat.KIND_REQUEST, request_id, request
            )
            self._file.write(data)
            self._file.flush()
            self.bytes_sent += len(data)
            header = self._read_exactly(wireformat.HEADER_SIZE)
            kind, nsections, body_len, _seq = wireformat.parse_header(header)
            body = self._read_exactly(body_len)
            self.bytes_received += len(header) + len(body)
            return wireformat.decode_body(kind, nsections, body)
        data = encode(request)
        self._file.write(data)
        self._file.flush()
        self.bytes_sent += len(data)
        line = self._file.readline()
        if not line:
            raise ServiceError(INTERNAL, "connection closed by server")
        self.bytes_received += len(line)
        return decode(line, limit=wireformat.MAX_FRAME_BYTES)

    def _call_once(self, request: dict[str, Any]) -> dict[str, Any]:
        return unwrap(self.request(request))

    def call(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._retry is None:
            return self._call_once(request)
        return self._retry.run_sync(lambda: self._call_once(request))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _BlockingCall:
    """Answers an async verb's ``await self.call(...)`` with a blocking
    client's ``call``, so the verb's coroutine never suspends."""

    __slots__ = ("call_blocking",)

    def __init__(self, client: ServiceClient):
        self.call_blocking = client.call

    async def call(self, request: dict[str, Any]) -> dict[str, Any]:
        return self.call_blocking(request)


def _blocking_verb(verb: Callable[..., Awaitable[Any]]) -> Callable[..., Any]:
    """The blocking form of one of :class:`_RequestAPI`'s verbs: same
    signature, request and return value, run to completion in place."""

    @functools.wraps(verb)
    def blocking(self: ServiceClient, *args: Any, **kwargs: Any) -> Any:
        coro = verb(_BlockingCall(self), *args, **kwargs)
        try:
            coro.send(None)
        except StopIteration as done:
            return done.value
        coro.close()
        raise RuntimeError(f"{verb.__name__} awaited something besides call")

    blocking.__qualname__ = f"ServiceClient.{verb.__name__}"
    return blocking


#: The request verbs, declared once on :class:`_RequestAPI`.
_VERBS = (
    "eval", "curve", "balance", "tradeoff", "greenup", "describe",
    "machines", "stats", "ping",
)
for _name in _VERBS:
    setattr(ServiceClient, _name, _blocking_verb(getattr(_RequestAPI, _name)))
