"""Shared TCP front end: NDJSON lines plus negotiated binary framing.

Two processes in this stack accept client connections on the serving
protocol — the :class:`~repro.service.server.ModelServer` itself and
the scale-out :class:`~repro.service.router.RouterServer` in front of
replicated server instances.  Both must speak the *identical* wire
surface: newline-delimited JSON by default, the struct-packed binary
framing of :mod:`repro.service.wire` after a first-request ``hello``
negotiation, per-request answer tasks so a slow request never
head-of-line-blocks the connection, one socket write per loop
iteration for every reply that iteration produced, and one structured
``bad_frame`` error before closing a corrupt framed stream.

:class:`WireFrontend` is that surface, factored out once.  A subclass
provides the request pipeline (:meth:`handle_request`) and the
transport behaviour — negotiation policy, connection accounting,
framing mechanics — comes from here, so the router cannot drift from
the server it fronts.  The ``arrays`` zero-copy sink contract is
preserved: binary connections pass a sink dict into
:meth:`handle_request`; pipelines that have ndarray series in hand
deposit them for raw float64 sections, pipelines that only have lists
(the router forwarding a backend reply) simply leave the sink empty
and :func:`~repro.service.wire.encode_frame` lifts eligible list
fields instead — byte-identical canonical payloads either way.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.exceptions import ServiceError
from repro.service import wire as wireformat
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    BAD_REQUEST,
    INTERNAL,
    MAX_LINE_BYTES,
    decode,
    encode,
    error_response,
    ok_response,
)

__all__ = ["WireFrontend", "sniff_hello"]


class _Outbox:
    """One connection's send path: a loop iteration's payloads, one write.

    A micro-batch settles all of its callers in one loop iteration, so
    their replies are queued here together and leave in one
    ``writer.write`` scheduled with ``call_soon`` — a lone payload is
    written as is, only two or more are joined.  Payloads leave in the
    order they were sent, and each sender still awaits ``drain()`` for
    backpressure (3.11's ``drain`` admits concurrent waiters), so no
    per-connection write lock is needed.
    """

    __slots__ = ("_writer", "_queued")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._queued: list[bytes] = []

    def flush(self) -> None:
        """Write everything queued so far as one write."""
        if not self._queued:
            return
        queued, self._queued = self._queued, []
        try:
            self._writer.write(
                queued[0] if len(queued) == 1 else b"".join(queued)
            )
        except (ConnectionError, OSError):
            pass  # peer went away; nothing to answer to

    def close(self) -> None:
        """Write what is queued, then hang up."""
        self.flush()
        self._writer.close()

    async def send(self, payload: bytes) -> bool:
        """Queue ``payload`` for this iteration's write; False once the
        peer has gone away."""
        self._queued.append(payload)
        if len(self._queued) == 1:
            asyncio.get_running_loop().call_soon(self.flush)
        try:
            await self._writer.drain()
        except (ConnectionError, OSError):
            return False
        return True


class WireFrontend:
    """TCP listener speaking NDJSON + negotiated binary framing.

    Subclasses call :meth:`_init_frontend` during construction and
    implement::

        async def handle_request(
            self, request, *, arrays=None, encoded=False
        ) -> dict

    which should never raise — every failure becomes an error envelope.
    One that raises anyway is answered with an ``internal`` error, so
    no request is left waiting.
    NDJSON connections pass ``encoded=True``: the pipeline may then
    return a success ``result`` as an already-encoded
    :class:`~repro.service.protocol.RawJSON`, which
    :func:`~repro.service.protocol.encode` splices into the line.
    """

    def _init_frontend(
        self,
        *,
        metrics: MetricsRegistry,
        wire: str,
        host: str,
        port: int,
    ) -> None:
        if wire not in ("auto", "binary", "ndjson"):
            raise ValueError(
                f"wire must be 'auto', 'binary', or 'ndjson', got {wire!r}"
            )
        self.metrics = metrics
        self._wire_policy = wire
        self._bind_host = host
        self._bind_port = port
        self._tcp_server: asyncio.AbstractServer | None = None
        #: Per-request answer tasks, across every connection.
        self._conn_tasks: set[asyncio.Task] = set()
        #: Open connections: handler task -> its send path.
        self._connections: dict[asyncio.Task, _Outbox] = {}
        self._frontend_errors = metrics.counter("errors_total")
        # Pre-created so both framing counters exist (at zero) in every
        # stats payload, whichever framings connections actually used.
        self._wire_binary_conns = metrics.counter(
            "wire_binary_connections_total"
        )
        self._wire_ndjson_conns = metrics.counter(
            "wire_ndjson_connections_total"
        )

    async def handle_request(
        self,
        request: dict[str, Any],
        *,
        arrays: dict[str, Any] | None = None,
        encoded: bool = False,
    ) -> dict[str, Any]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Listener lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | None:
        """(host, port) the TCP listener is bound to, once started."""
        if self._tcp_server is None or not self._tcp_server.sockets:
            return None
        host, port = self._tcp_server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind the TCP listener; returns the bound (host, port)."""
        if self._tcp_server is not None:
            raise ServiceError(INTERNAL, "server already started")
        # The NDJSON reader admits a whole MAX_LINE_BYTES line (asyncio's
        # default limit is 64 KiB); decode answers anything longer.
        self._tcp_server = await asyncio.start_server(
            self._on_connection,
            self._bind_host,
            self._bind_port,
            limit=MAX_LINE_BYTES,
        )
        address = self.address
        assert address is not None
        return address

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI daemon verbs' main loop)."""
        if self._tcp_server is None:
            await self.start()
        assert self._tcp_server is not None
        await self._tcp_server.serve_forever()

    async def _close_listener(
        self, *, cancel_connections: bool = False
    ) -> None:
        """Stop accepting, settle per-request tasks, hang up every open
        connection and wait for its handler, release the port."""
        if self._tcp_server is not None:
            self._tcp_server.close()
        if cancel_connections:
            for task in list(self._conn_tasks):
                task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for outbox in self._connections.values():
            outbox.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._tcp_server is not None:
            try:
                await self._tcp_server.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._tcp_server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read request lines, answering each from its own task so slow
        requests never head-of-line-block fast ones on the connection.

        The *first* line may be a ``hello`` negotiating the binary
        framing; on acceptance the connection hands over to
        :meth:`_binary_loop` and never returns to NDJSON.
        """
        outbox = _Outbox(writer)
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[handler] = outbox
        handler.add_done_callback(self._connections.pop)
        request_tasks: set[asyncio.Task] = set()
        self.metrics.counter("connections_total").inc()
        upgraded = False
        first = True
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the read limit: the rest of the line is still
                    # unread, so there is no next line to resync on.
                    await self._line_error(outbox)
                    break
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                if first:
                    first = False
                    hello = sniff_hello(line)
                    if hello is not None:
                        upgraded = await self._negotiate(hello, outbox)
                        if upgraded:
                            self._wire_binary_conns.inc()
                            await self._binary_loop(
                                reader, outbox, request_tasks
                            )
                            break
                        continue
                self._spawn(self._answer_line(line, outbox), request_tasks)
        finally:
            if not upgraded:
                self._wire_ndjson_conns.inc()
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            outbox.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _negotiate(
        self,
        hello: dict[str, Any],
        outbox: _Outbox,
    ) -> bool:
        """Answer one ``hello`` (in NDJSON); returns whether the
        connection upgrades to binary framing."""
        offered = hello.get("wire")
        accept = (
            self._wire_policy in ("auto", "binary")
            and isinstance(offered, list)
            and wireformat.WIRE_BINARY in offered
        )
        if accept:
            result = {
                "wire": wireformat.WIRE_BINARY,
                "version": wireformat.WIRE_VERSION,
            }
        else:
            result = {"wire": wireformat.WIRE_NDJSON}
        sent = await outbox.send(encode(ok_response(hello.get("id"), result)))
        return sent and accept

    async def _binary_loop(
        self,
        reader: asyncio.StreamReader,
        outbox: _Outbox,
        request_tasks: set[asyncio.Task],
    ) -> None:
        """Frame read loop for an upgraded connection.

        Any malformed or truncated frame gets one structured
        ``bad_frame`` error and ends the loop — the caller closes the
        connection, because a corrupt framed stream has no resync
        point.  Clean EOF *between* frames is a normal hangup.
        """
        frames = wireformat.FrameReader()
        try:
            # Request grids stay float64 arrays: the pipeline wants an
            # array, and a list would only be converted back.
            await frames.run(
                reader,
                lambda request, _size: self._spawn(
                    self._answer_frame(request, outbox), request_tasks
                ),
                lists=False,
            )
            return
        except ServiceError as exc:
            message = exc.message
        except (asyncio.IncompleteReadError, TimeoutError):
            part = "header" if frames.seq is None else "body"
            message = f"truncated frame {part}"
        except (ConnectionError, OSError):
            return
        self._frontend_errors.inc()
        envelope = error_response(None, wireformat.BAD_FRAME, message)
        await outbox.send(
            wireformat.encode_frame(
                wireformat.KIND_RESPONSE, frames.seq or 0, envelope
            )
        )

    def _spawn(self, answer: Any, request_tasks: set[asyncio.Task]) -> None:
        """Run one request's ``answer`` coroutine as its own task."""
        task = asyncio.ensure_future(answer)
        request_tasks.add(task)
        self._conn_tasks.add(task)
        task.add_done_callback(request_tasks.discard)
        task.add_done_callback(self._conn_tasks.discard)

    async def _line_error(self, outbox: _Outbox) -> None:
        """Answer an NDJSON line too long to read as :func:`decode`
        answers an oversize line."""
        self._frontend_errors.inc()
        await outbox.send(
            encode(
                error_response(
                    None, BAD_REQUEST, f"line exceeds {MAX_LINE_BYTES} bytes"
                )
            )
        )

    def _internal_error(
        self, request: dict[str, Any], exc: Exception
    ) -> dict[str, Any]:
        """The answer to a request whose pipeline raised: a bug there
        must still reply, or the client would wait forever."""
        self._frontend_errors.inc()
        return error_response(
            request.get("id"), INTERNAL, f"{type(exc).__name__}: {exc}"
        )

    async def _answer_line(self, line: bytes, outbox: _Outbox) -> None:
        try:
            request = decode(line)
        except ServiceError as exc:
            response = error_response(None, exc.code, exc.message)
        else:
            try:
                response = await self.handle_request(request, encoded=True)
            except Exception as exc:  # noqa: BLE001 - the serving boundary
                response = self._internal_error(request, exc)
        await outbox.send(encode(response))

    async def _answer_frame(
        self, request: dict[str, Any], outbox: _Outbox
    ) -> None:
        arrays: dict[str, Any] = {}
        try:
            response = await self.handle_request(request, arrays=arrays)
        except Exception as exc:  # noqa: BLE001 - the serving boundary
            response = self._internal_error(request, exc)
        request_id = request.get("id")
        seq = (
            request_id
            if isinstance(request_id, int)
            and not isinstance(request_id, bool)
            and 0 <= request_id < 2**64
            else 0
        )
        try:
            payload = wireformat.encode_frame(
                wireformat.KIND_RESPONSE,
                seq,
                response,
                arrays=arrays if response.get("ok") else None,
            )
        except ServiceError as exc:  # pragma: no cover - oversize result
            payload = wireformat.encode_frame(
                wireformat.KIND_RESPONSE,
                seq,
                error_response(request_id, exc.code, exc.message),
            )
        await outbox.send(payload)


def sniff_hello(line: bytes) -> dict[str, Any] | None:
    """The decoded request if this first line is a ``hello``, else None.

    The byte-level substring check keeps the common case (an ordinary
    first request) to one cheap scan instead of a JSON parse; anything
    undecodable is left for the normal per-line error path.
    """
    if b'"hello"' not in line:
        return None
    try:
        request = decode(line)
    except ServiceError:
        return None
    if request.get("op") != wireformat.HELLO_OP:
        return None
    return request
