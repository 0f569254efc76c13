"""Versioned binary wire framing for the serving protocol.

NDJSON (:mod:`repro.service.protocol`) spends the bulk of a curve or
grid response's latency turning float arrays into decimal text and back
— pure overhead bytes in the paper's E = π·W + I/O·ε + T·π₀ accounting.
This module defines **wire format v1**: a struct-packed frame that
carries the same request/response envelopes as NDJSON, with bulk float
series shipped as raw little-endian ``float64`` payloads instead of
JSON text.

Negotiation
-----------
A connection always *starts* in NDJSON.  A client that wants binary
framing sends one ordinary NDJSON request::

    {"id": 0, "op": "hello", "wire": ["binary"]}

and the server answers in NDJSON with the framing it selected::

    {"id": 0, "ok": true, "result": {"wire": "binary", "version": 1}}

After an affirmative ``binary`` answer, **both** directions switch to
binary frames.  Every other outcome — an ``ndjson`` answer (server
configured ``wire="ndjson"``), an ``unknown_op`` error (a pre-binary
server), any malformed reply — leaves the connection in NDJSON, so a
binary-capable client degrades to byte-identical NDJSON against any
server, and an NDJSON-only client never notices the feature exists.
Framing is therefore *never* semantic: the decoded response envelopes
are identical under either framing.

Frame layout (all integers little-endian)
-----------------------------------------
::

    header — 20 bytes
      magic      2s   b"RB"
      version    u8   1
      kind       u8   1 = request, 2 = response
      flags      u16  reserved, 0
      nsections  u16  number of body sections
      body_len   u32  bytes following the header
      seq        u64  request sequence number (echoed in the response)

    section — 8-byte header, then name, then payload
      type        u8   1 = JSON envelope, 2 = float64 array
      dtype       u8   0 for JSON, 1 for "<f8"
      name_len    u16
      payload_len u32

Exactly one JSON section per frame carries the envelope (the same dict
NDJSON would carry, minus any fields lifted into array sections); each
array section re-inserts its payload into the envelope under its name —
into ``result`` for responses, at top level for requests.  The floats a
receiver obtains from ``ndarray.tolist()`` are the identical IEEE
values JSON text would have round-tripped, which is what keeps the two
framings byte-identical at the canonical-response level.

A malformed frame (bad magic/version, oversized length, sections that
overrun the body) raises :class:`~repro.exceptions.ServiceError` with
code ``bad_frame``; servers answer it with one structured error frame
and close the connection rather than resynchronise a corrupt stream.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Callable, Mapping

import numpy as np

from repro.exceptions import ServiceError
from repro.service.protocol import BAD_FRAME

__all__ = [
    "BAD_FRAME",
    "HELLO_OP",
    "WIRE_BINARY",
    "WIRE_NDJSON",
    "WIRE_VERSION",
    "HEADER_SIZE",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "MAX_FRAME_BYTES",
    "FRAME_BODY_TIMEOUT",
    "encode_frame",
    "parse_header",
    "decode_body",
    "FrameReader",
    "hello_request",
    "negotiated_wire",
]

#: The negotiation operation, sent as an NDJSON request.
HELLO_OP = "hello"

WIRE_BINARY = "binary"
WIRE_NDJSON = "ndjson"

#: Wire-format version this module speaks.
WIRE_VERSION = 1

_MAGIC = b"RB"
_HEADER = struct.Struct("<2sBBHHIQ")
HEADER_SIZE = _HEADER.size  # 20 bytes

_SECTION = struct.Struct("<BBHI")
_SECTION_JSON = 1
_SECTION_F64 = 2
_DTYPE_NONE = 0
_DTYPE_F64 = 1

KIND_REQUEST = 1
KIND_RESPONSE = 2

#: Hard frame bound — a legitimate curve/grid response is a few MB at
#: most; anything larger is a protocol violation, not a big workload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds a receiver waits for a frame body once its header arrived.
#: A sender writes header and body together, so a stalled body means a
#: dead or corrupt peer — close with an error instead of hanging.
FRAME_BODY_TIMEOUT = 60.0

#: Request/result fields lifted into array sections when they are
#: float lists/arrays of at least this many elements (below it, JSON
#: text is smaller than the section overhead is worth).
_MIN_ARRAY_SECTION = 32

#: Fields eligible for array sections, by frame kind.  Requests carry
#: grids in ``intensities``; responses carry series in ``result``.
_REQUEST_ARRAY_FIELDS = ("intensities",)
_RESPONSE_ARRAY_FIELDS = ("intensities", "values")

#: The element types of a liftable list.
_FLOAT_ONLY = frozenset({float})

#: Built once: ``json.dumps`` with any argument makes a new encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def hello_request(request_id: Any = 0) -> dict[str, Any]:
    """The NDJSON negotiation request offering binary framing."""
    return {"id": request_id, "op": HELLO_OP, "wire": [WIRE_BINARY]}


def negotiated_wire(response: Mapping[str, Any]) -> str:
    """The framing a ``hello`` reply selects; NDJSON on any doubt.

    Accepts the three realistic replies — a binary acceptance, an
    explicit ``ndjson`` refusal, and a pre-binary server's
    ``unknown_op`` error — and maps anything unrecognisable to NDJSON,
    the framing every server speaks.
    """
    if not isinstance(response, Mapping) or not response.get("ok"):
        return WIRE_NDJSON
    result = response.get("result")
    if not isinstance(result, Mapping):
        return WIRE_NDJSON
    if (
        result.get("wire") == WIRE_BINARY
        and result.get("version") == WIRE_VERSION
    ):
        return WIRE_BINARY
    return WIRE_NDJSON


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _liftable(value: Any) -> np.ndarray | None:
    """The float64 array for a liftable field value, else ``None``."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.ndim == 1:
            return value
        return None
    # One C-level pass decides (exact floats only: ints, bools and
    # numpy scalars stay JSON) and one more builds the array.
    if (
        isinstance(value, list)
        and len(value) >= _MIN_ARRAY_SECTION
        and set(map(type, value)) == _FLOAT_ONLY
    ):
        return np.fromiter(value, dtype=np.float64, count=len(value))
    return None


def encode_frame(
    kind: int,
    seq: int,
    payload: Mapping[str, Any],
    *,
    arrays: Mapping[str, np.ndarray] | None = None,
) -> bytes:
    """One binary frame for ``payload`` (an NDJSON-equivalent envelope).

    Bulk float series move into array sections two ways: callers with
    ndarrays in hand (the server's zero-copy result path) pass them via
    ``arrays``; otherwise eligible list-valued fields are lifted out of
    the envelope automatically.  Either way the receiver re-inserts
    them, so the decoded envelope is identical to the NDJSON form.
    """
    sections: list[tuple[str, np.ndarray]] = []
    if arrays:
        sections.extend(arrays.items())
    container: Any = payload
    field_names = _REQUEST_ARRAY_FIELDS
    if kind == KIND_RESPONSE:
        container = payload.get("result")
        field_names = _RESPONSE_ARRAY_FIELDS
    lifted: dict[str, Any] | None = None
    if isinstance(container, Mapping):
        for name in field_names:
            value = container.get(name)
            array = _liftable(value) if value is not None else None
            if array is not None:
                sections.append((name, array))
                if lifted is None:
                    lifted = dict(container)
                del lifted[name]
    if lifted is not None:
        if kind == KIND_RESPONSE:
            payload = {**payload, "result": lifted}
        else:
            payload = lifted
    blob = _COMPACT.encode(payload).encode("utf-8")
    parts = [
        _SECTION.pack(_SECTION_JSON, _DTYPE_NONE, 0, len(blob)),
        blob,
    ]
    for name, array in sections:
        raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
        encoded_name = name.encode("utf-8")
        parts.append(
            _SECTION.pack(
                _SECTION_F64, _DTYPE_F64, len(encoded_name), len(raw)
            )
        )
        parts.append(encoded_name)
        parts.append(raw)
    body = b"".join(parts)
    if len(body) > MAX_FRAME_BYTES:
        raise ServiceError(
            BAD_FRAME, f"frame body of {len(body)} bytes exceeds the bound"
        )
    header = _HEADER.pack(
        _MAGIC, WIRE_VERSION, kind, 0, 1 + len(sections), len(body), seq
    )
    return header + body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def parse_header(header: bytes) -> tuple[int, int, int, int]:
    """Validate a frame header; returns (kind, nsections, body_len, seq)."""
    if len(header) != HEADER_SIZE:
        raise ServiceError(
            BAD_FRAME, f"truncated frame header ({len(header)} bytes)"
        )
    magic, version, kind, _flags, nsections, body_len, seq = _HEADER.unpack(
        header
    )
    if magic != _MAGIC:
        raise ServiceError(BAD_FRAME, f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise ServiceError(
            BAD_FRAME,
            f"unsupported wire version {version} (this side speaks "
            f"{WIRE_VERSION})",
        )
    if kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise ServiceError(BAD_FRAME, f"unknown frame kind {kind}")
    if body_len > MAX_FRAME_BYTES:
        raise ServiceError(
            BAD_FRAME, f"frame body of {body_len} bytes exceeds the bound"
        )
    if nsections < 1:
        raise ServiceError(BAD_FRAME, "frame carries no sections")
    return kind, nsections, body_len, seq


def decode_body(
    kind: int, nsections: int, body: bytes, *, lists: bool = True
) -> dict[str, Any]:
    """Decode frame sections back into the NDJSON-equivalent envelope.

    Array-section payloads are re-inserted as ``.tolist()`` floats —
    the identical IEEE values JSON would have carried — into ``result``
    for responses and at top level for requests.  ``lists=False`` (the
    serving front end) re-inserts them as read-only float64 ndarrays
    instead, for consumers that want the array anyway.
    """
    offset = 0
    payload: dict[str, Any] | None = None
    arrays: list[tuple[str, Any]] = []
    for _ in range(nsections):
        if offset + _SECTION.size > len(body):
            raise ServiceError(BAD_FRAME, "section header overruns frame body")
        stype, dtype, name_len, payload_len = _SECTION.unpack_from(
            body, offset
        )
        offset += _SECTION.size
        if offset + name_len + payload_len > len(body):
            raise ServiceError(BAD_FRAME, "section payload overruns frame body")
        name = body[offset : offset + name_len].decode("utf-8")
        offset += name_len
        raw = body[offset : offset + payload_len]
        offset += payload_len
        if stype == _SECTION_JSON:
            if payload is not None:
                raise ServiceError(BAD_FRAME, "multiple JSON sections")
            try:
                decoded = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ServiceError(
                    BAD_FRAME, f"invalid JSON section: {exc}"
                ) from exc
            if not isinstance(decoded, dict):
                raise ServiceError(
                    BAD_FRAME,
                    f"JSON section must be an object, got "
                    f"{type(decoded).__name__}",
                )
            payload = decoded
        elif stype == _SECTION_F64:
            if dtype != _DTYPE_F64 or payload_len % 8:
                raise ServiceError(
                    BAD_FRAME, f"malformed float64 section {name!r}"
                )
            values = np.frombuffer(raw, dtype="<f8")
            arrays.append((name, values.tolist() if lists else values))
        else:
            raise ServiceError(BAD_FRAME, f"unknown section type {stype}")
    if offset != len(body):
        raise ServiceError(BAD_FRAME, "trailing bytes after last section")
    if payload is None:
        raise ServiceError(BAD_FRAME, "frame has no JSON envelope section")
    if arrays:
        target = payload
        if kind == KIND_RESPONSE:
            result = payload.get("result")
            if not isinstance(result, dict):
                raise ServiceError(
                    BAD_FRAME, "array sections on a response without a result"
                )
            target = result
        for name, values in arrays:
            target[name] = values
    return payload


class FrameReader:
    """One stream's binary frames, read through one buffer.

    Every complete frame a read brings is delivered before the next
    read, so a burst reaches the consumer as one wave.  A body's
    ``FRAME_BODY_TIMEOUT`` deadline is fixed when its header completes
    and armed only while the body is incomplete.  Errors are a
    ``bad_frame`` :class:`~repro.exceptions.ServiceError`,
    :class:`asyncio.IncompleteReadError` (EOF inside a frame) and
    :class:`TimeoutError` (a late body).
    """

    #: The ``seq`` of the frame whose header has been parsed and whose
    #: body is not yet delivered; ``None`` between frames.
    seq: int | None = None

    async def run(
        self,
        reader: asyncio.StreamReader,
        deliver: Callable[[dict[str, Any], int], None],
        *,
        lists: bool = True,
    ) -> None:
        """``deliver(envelope, frame_bytes)`` each frame until EOF."""
        buffer = bytearray()
        loop = asyncio.get_running_loop()
        body_len = -1  # of the frame whose body is awaited
        while True:
            start = 0
            while True:
                if body_len < 0:
                    if len(buffer) - start < HEADER_SIZE:
                        break
                    kind, nsections, body_len, self.seq = parse_header(
                        buffer[start : start + HEADER_SIZE]
                    )
                    start += HEADER_SIZE
                    deadline = loop.time() + FRAME_BODY_TIMEOUT
                end = start + body_len
                if len(buffer) < end:
                    break
                with memoryview(buffer) as view:
                    body = view[start:end].tobytes()
                envelope = decode_body(kind, nsections, body, lists=lists)
                deliver(envelope, HEADER_SIZE + body_len)
                self.seq, body_len, start = None, -1, end
            del buffer[:start]
            if body_len < 0:
                chunk = await reader.read(MAX_FRAME_BYTES)
            else:
                async with asyncio.timeout_at(deadline):
                    chunk = await reader.read(MAX_FRAME_BYTES)
            if not chunk:
                if body_len < 0 and not buffer:
                    return
                raise asyncio.IncompleteReadError(bytes(buffer), None)
            buffer += chunk
