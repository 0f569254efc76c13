"""Wire protocol: newline-delimited JSON requests and responses.

One request per line, one response per line, UTF-8 JSON objects.  A
request names an operation plus its parameters::

    {"id": 7, "op": "eval", "machine": "gtx580-double",
     "model": "energy", "metric": "energy_per_flop", "intensity": 2.0}

and gets back either a success envelope::

    {"id": 7, "ok": true, "result": {"value": 3.21e-10}}

or an error envelope with a machine-readable code::

    {"id": 7, "ok": false,
     "error": {"code": "unknown_machine", "message": "..."}}

``id`` is opaque to the server and echoed verbatim — clients use it to
multiplex concurrent requests over one connection.  ``timeout_ms`` is a
per-request deadline.  ``priority`` is accepted for compatibility: it
must be an integer (default 0) or the request is a ``bad_request``, but
no server decision reads it.  None of these three fields participates
in response caching: they never change a request's result bytes.

Error codes
-----------
``bad_request``
    Malformed JSON, missing/invalid fields, out-of-domain parameters.
``unknown_machine`` / ``unknown_op``
    The named machine or operation does not exist.
``overloaded``
    Admission control rejected the request — the 429 of this protocol;
    carries ``"retriable": true`` (nothing ran), so retry with
    backoff.  Produced by the depth limit (queue full) and the
    cost-based work budget alike: the envelope is identical, so router
    failover composes with every admission mode.
``deadline_exceeded``
    The per-request deadline expired before a result was ready.
``shutting_down``
    The server is draining; open requests finish, new ones are refused
    with ``"retriable": true`` — another replica can take them.
``worker_crashed``
    A worker process died mid-job and has been respawned; the error
    object carries ``"retriable": true`` — the job may or may not have
    executed, so the client decides whether to resubmit.
``bad_frame``
    A malformed binary frame arrived on a connection negotiated to the
    binary wire format (see :mod:`repro.service.wire`).  The server
    sends one structured error with this code and closes the
    connection: a corrupt framed stream cannot be resynchronised.
``internal``
    Unexpected server-side failure.

Wire negotiation
----------------
A connection speaks NDJSON until a ``hello`` request negotiates
otherwise: ``{"op": "hello", "wire": ["binary"]}`` answered with
``{"wire": "binary", "version": 1}`` switches both directions to the
binary framing defined in :mod:`repro.service.wire`.  Servers without
binary support answer ``unknown_op``; clients treat that (and any
non-binary answer) as "stay on NDJSON".  ``hello`` only exists on TCP
connections — the in-process pipeline has no framing to negotiate.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro._canon import content_hash
from repro.exceptions import ServiceError

__all__ = [
    "BAD_REQUEST",
    "UNKNOWN_MACHINE",
    "UNKNOWN_OP",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "SHUTTING_DOWN",
    "WORKER_CRASHED",
    "BAD_FRAME",
    "INTERNAL",
    "BACKEND_UNAVAILABLE",
    "CACHEABLE_OPS",
    "ENVELOPE_FIELDS",
    "ERROR_CODES",
    "ERROR_FIELDS",
    "MAX_LINE_BYTES",
    "OPS",
    "RETRIABLE_CODES",
    "RawJSON",
    "encode",
    "decode",
    "decode_reply",
    "decoded",
    "ok_response",
    "error_response",
    "unwrap",
    "request_cache_key",
]

BAD_REQUEST = "bad_request"
UNKNOWN_MACHINE = "unknown_machine"
UNKNOWN_OP = "unknown_op"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
SHUTTING_DOWN = "shutting_down"
WORKER_CRASHED = "worker_crashed"
BAD_FRAME = "bad_frame"
INTERNAL = "internal"
BACKEND_UNAVAILABLE = "backend_unavailable"

#: Every error code the protocol defines.  This — not any consumer's
#: private list — is the schema; replint RL009 checks every producer
#: and consumer in the service layer against it.
ERROR_CODES = frozenset(
    {
        BAD_REQUEST,
        UNKNOWN_MACHINE,
        UNKNOWN_OP,
        OVERLOADED,
        DEADLINE_EXCEEDED,
        SHUTTING_DOWN,
        WORKER_CRASHED,
        BAD_FRAME,
        INTERNAL,
        BACKEND_UNAVAILABLE,
    }
)

#: Codes whose error envelopes MUST carry ``"retriable": true``: the
#: request may be resubmitted verbatim (nothing ran, or another
#: replica can take it).  Producers building one of these codes
#: without the marker break client failover — RL009 flags them.
RETRIABLE_CODES = frozenset(
    {OVERLOADED, SHUTTING_DOWN, WORKER_CRASHED, BACKEND_UNAVAILABLE}
)

#: Operations whose responses are pure functions of the request body.
#: ``stats`` and ``ping`` are intentionally absent: both describe the
#: server's mutable state, not the model.
CACHEABLE_OPS = frozenset(
    {"eval", "curve", "balance", "tradeoff", "greenup", "machines", "describe"}
)

#: The complete operation vocabulary (requests name exactly one).
OPS = CACHEABLE_OPS | frozenset({"hello", "ping", "stats"})

#: Keys that may appear in a response envelope.  ``wire``/``version``
#: are the hello-negotiation reply, which rides outside the normal
#: success/error shape (see "Wire negotiation" above).
ENVELOPE_FIELDS = frozenset(
    {"id", "ok", "result", "error", "cached", "wire", "version"}
)

#: Keys that may appear in an error object.
ERROR_FIELDS = frozenset({"code", "message", "retriable"})

#: Hard per-line bound — a single request never legitimately approaches
#: this; anything larger is a protocol violation, not a big workload.
MAX_LINE_BYTES = 1_048_576

#: Envelope/bookkeeping fields excluded from the cache key.
_NON_SEMANTIC_FIELDS = ("id", "timeout_ms", "priority")


class RawJSON:
    """A success ``result`` held as its compact JSON encoding.

    ``data`` is exactly what :func:`encode` would write for the value:
    ``json.dumps(value, separators=(",", ":"))`` in UTF-8.  An envelope
    may carry one as its ``result``; :func:`encode` splices the bytes
    into the line instead of re-encoding them, and :func:`unwrap`
    decodes them on demand.  Only a hop that serialises the reply back
    into NDJSON ever sees one — every API that hands results to callers
    returns plain dicts.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    @classmethod
    def of(cls, value: Any) -> "RawJSON":
        """The encoding of ``value``."""
        return cls(_COMPACT.encode(value).encode("utf-8"))

    def value(self) -> Any:
        """The decoded result; ``internal`` error if it is not JSON."""
        try:
            return json.loads(self.data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(INTERNAL, f"invalid result JSON: {exc}") from exc


def _as_list(value: Any) -> Any:
    """JSON fallback: an ndarray (a binary request's grid) is its list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


# Built once: ``json.dumps`` with any argument makes a new encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_COMPACT_ARRAYS = json.JSONEncoder(separators=(",", ":"), default=_as_list)


def encode(payload: dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the newline terminator.

    A :class:`RawJSON` result is spliced in as is; the line is
    byte-identical to encoding the decoded envelope.  An ndarray field
    is written as the JSON list it stands for.
    """
    result = payload.get("result")
    if type(result) is RawJSON:
        fields = [
            json.dumps(key).encode("utf-8") + b":" + (
                result.data if key == "result"
                else _COMPACT_ARRAYS.encode(value).encode("utf-8")
            )
            for key, value in payload.items()
        ]
        return b"{" + b",".join(fields) + b"}\n"
    return _COMPACT_ARRAYS.encode(payload).encode("utf-8") + b"\n"


def decode(
    line: bytes | str, *, limit: int | None = MAX_LINE_BYTES
) -> dict[str, Any]:
    """Parse one protocol line into a request/response dict.

    Raises :class:`ServiceError` (``bad_request``) for anything that is
    not a single JSON object, or a bytes line longer than ``limit``
    (``None``: the caller's reader has bounded the line already).
    """
    if limit is not None and isinstance(line, bytes) and len(line) > limit:
        raise ServiceError(BAD_REQUEST, f"line exceeds {limit} bytes")
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServiceError(BAD_REQUEST, f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError(
            BAD_REQUEST, f"expected a JSON object, got {type(payload).__name__}"
        )
    return payload


_OK_HEAD = b'{"ok":true,"result":'
_ID_FIELD = b',"id":'
_CACHED_TAIL = b',"cached":true}\n'


def decode_reply(line: bytes) -> dict[str, Any]:
    """Parse one response line, leaving a success result encoded.

    A line shaped the way :func:`encode` writes an
    :func:`ok_response` with an integer id —
    ``{"ok":true,"result":{…},"id":7[,"cached":true]}`` — is split
    around its result without parsing it: the envelope comes back with
    a :class:`RawJSON` result.  Every other line (errors, string,
    boolean, negative or missing ids, no trailing newline) goes through
    :func:`decode`.  The result bytes are trusted to be the JSON a
    server of this package wrote; nothing here validates them.  Reply
    lines are not held to the request bound :data:`MAX_LINE_BYTES`: the
    client's reader limits them.
    """
    if line.startswith(_OK_HEAD) and line.endswith(b"}\n"):
        cached = line.endswith(_CACHED_TAIL)
        end = len(line) - (len(_CACHED_TAIL) if cached else 2)
        cut = line.rfind(_ID_FIELD, len(_OK_HEAD), end)
        digits = line[cut + len(_ID_FIELD) : end]
        if (
            cut > len(_OK_HEAD)
            and digits.isdigit()
            and (digits[0] != 48 or len(digits) == 1)  # no leading zero
            and line[len(_OK_HEAD)] == 123  # "{"
            and line[cut - 1] == 125  # "}"
        ):
            response: dict[str, Any] = {
                "ok": True,
                "result": RawJSON(line[len(_OK_HEAD) : cut]),
                "id": int(digits),
            }
            if cached:
                response["cached"] = True
            return response
    return decode(line, limit=None)


def ok_response(
    request_id: Any, result: dict[str, Any], *, cached: bool = False
) -> dict[str, Any]:
    """Success envelope; ``cached`` marks a response served from cache."""
    response: dict[str, Any] = {"ok": True, "result": result}
    if request_id is not None:
        response["id"] = request_id
    if cached:
        response["cached"] = True
    return response


def error_response(
    request_id: Any, code: str, message: str, *, retriable: bool = False
) -> dict[str, Any]:
    """Error envelope with a machine-readable ``code``.

    ``retriable=True`` adds ``"retriable": true`` to the error object —
    the marker worker-crash replies carry so clients can distinguish
    "resubmit as-is" from "fix the request".
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if retriable:
        error["retriable"] = True
    response: dict[str, Any] = {"ok": False, "error": error}
    if request_id is not None:
        response["id"] = request_id
    return response


def decoded(response: dict[str, Any]) -> dict[str, Any]:
    """``response`` with a :class:`RawJSON` result decoded in place."""
    result = response.get("result")
    if type(result) is RawJSON:
        response["result"] = result.value()
    return response


def unwrap(response: dict[str, Any]) -> dict[str, Any]:
    """Extract ``result`` from an envelope, raising on error replies."""
    if not isinstance(response, dict):
        raise ServiceError(INTERNAL, f"malformed response: {response!r}")
    if response.get("ok"):
        result = response.get("result")
        if type(result) is RawJSON:
            result = result.value()
        if not isinstance(result, dict):
            raise ServiceError(
                INTERNAL, f"malformed success envelope: {response!r}"
            )
        return result
    error = response.get("error") or {}
    raise ServiceError(
        error.get("code", INTERNAL),
        error.get("message", "unknown error"),
        retriable=bool(error.get("retriable", False)),
    )


def request_cache_key(request: dict[str, Any]) -> str | None:
    """Content hash of a request's semantic body, or ``None`` if the
    operation is uncacheable.

    Canonicalisation (sorted keys, fixed separators — see
    :mod:`repro._canon`) means field order on the wire never splits
    cache entries; the ``id``, ``timeout_ms`` and ``priority`` envelope
    fields are dropped because they do not affect the result.  An
    ndarray grid hashes as the list it stands for, so one entry serves
    every framing.
    """
    if request.get("op") not in CACHEABLE_OPS:
        return None
    request = {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in request.items()
        if k not in _NON_SEMANTIC_FIELDS
    }
    return content_hash(request)
