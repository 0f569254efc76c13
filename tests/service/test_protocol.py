"""Wire protocol: framing, envelopes, error codes, cache keys."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.service.protocol import (
    BAD_REQUEST,
    CACHEABLE_OPS,
    INTERNAL,
    MAX_LINE_BYTES,
    RawJSON,
    decode,
    decode_reply,
    decoded,
    encode,
    error_response,
    ok_response,
    request_cache_key,
    unwrap,
)


class TestFraming:
    def test_encode_is_one_compact_line(self):
        line = encode({"op": "ping", "id": 3})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert b" " not in line

    def test_round_trip(self):
        request = {"op": "eval", "intensity": 2.0, "id": 9}
        assert decode(encode(request)) == request

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(ServiceError) as excinfo:
            decode(b"{nope}\n")
        assert excinfo.value.code == BAD_REQUEST

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServiceError) as excinfo:
            decode(b"[1,2,3]\n")
        assert excinfo.value.code == BAD_REQUEST

    def test_decode_rejects_oversized_line(self):
        line = b'{"op":"' + b"x" * MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ServiceError) as excinfo:
            decode(line)
        assert "exceeds" in excinfo.value.message


class TestEnvelopes:
    def test_ok_response_echoes_id(self):
        response = ok_response(7, {"value": 1.0})
        assert response == {"ok": True, "result": {"value": 1.0}, "id": 7}

    def test_ok_response_marks_cache_hits(self):
        assert ok_response(None, {}, cached=True)["cached"] is True
        assert "cached" not in ok_response(None, {})

    def test_error_response_carries_code(self):
        response = error_response(2, "overloaded", "queue full")
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        assert response["id"] == 2

    def test_unwrap_returns_result(self):
        assert unwrap(ok_response(1, {"value": 3.0})) == {"value": 3.0}

    def test_unwrap_raises_typed_error(self):
        with pytest.raises(ServiceError) as excinfo:
            unwrap(error_response(1, "unknown_machine", "no such machine"))
        assert excinfo.value.code == "unknown_machine"
        assert "no such machine" in str(excinfo.value)

    def test_unwrap_rejects_malformed_envelopes(self):
        with pytest.raises(ServiceError):
            unwrap({"ok": True, "result": 42})
        with pytest.raises(ServiceError):
            unwrap("not a dict")


#: Strings that look like envelope syntax once encoded, so a splitter
#: that searched the line text instead of its structure would cut there.
_TRICKY_STRINGS = (
    ',"id":', '"result":0', ',"id":7}', ',"cached":true}\n', "}\n", "id",
    "result", "ok", "cached",
)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()  # non-ASCII included: encoded as \u escapes
    | st.sampled_from(_TRICKY_STRINGS)
)
_json_keys = st.text(max_size=8) | st.sampled_from(_TRICKY_STRINGS)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=16,
)
#: Results: JSON objects, nested ``"id"`` keys likely.
_results = st.dictionaries(
    st.sampled_from(("id", "result", "value", "values")) | _json_keys,
    _json_values,
    max_size=5,
)
_ids = st.none() | st.integers() | st.text(max_size=8)


def _same_envelope(left: dict, right: dict) -> bool:
    """Equal keys in equal order and equal JSON text (NaN-safe)."""
    return list(left) == list(right) and json.dumps(left) == json.dumps(right)


class TestEncodedResults:
    """A :class:`RawJSON` result is spliced into the line, not re-encoded,
    and :func:`decode_reply` leaves exactly the lines it can split
    safely encoded."""

    @settings(max_examples=300, deadline=None)
    @given(result=_results, request_id=_ids, cached=st.booleans())
    def test_splice_is_byte_identical(self, result, request_id, cached):
        spliced = ok_response(request_id, RawJSON.of(result), cached=cached)
        plain = ok_response(request_id, result, cached=cached)
        assert encode(spliced) == encode(plain)

    @settings(max_examples=300, deadline=None)
    @given(result=_results, request_id=_ids, cached=st.booleans())
    def test_reply_parser_matches_decode(self, result, request_id, cached):
        line = encode(ok_response(request_id, result, cached=cached))
        parsed = decode_reply(line)
        splittable = type(request_id) is int and request_id >= 0
        assert (type(parsed["result"]) is RawJSON) == splittable
        if splittable:
            assert parsed["result"].data == RawJSON.of(result).data
            assert encode(parsed) == line
        assert _same_envelope(decoded(parsed), decode(line))

    @pytest.mark.parametrize(
        "line",
        [
            encode(error_response(3, "overloaded", "full", retriable=True)),
            b'{"ok":true,"result":{"v":1},"id":"7"}\n',
            b'{"ok":true,"result":{"v":1},"id":true}\n',
            b'{"ok":true,"result":{"v":1},"id":-7}\n',
            b'{"ok":true,"result":{"v":1},"id":null}\n',
            b'{"ok":true,"result":{"v":1},"id":007}\n',
            b'{"ok":true,"result":{"id":7}}\n',
            b'{"ok":true,"result":{"id":7},"cached":true}\n',
            b'{"ok":true,"result":{"v":1},"id":7}',
            b'{"ok":true,"result":[1],"id":7}\n',
            b'{"ok": true, "result": {"v": 1}, "id": 7}\n',
        ],
    )
    def test_reply_parser_falls_back_to_decode(self, line):
        try:
            expected = decode(line)
        except ServiceError as exc:
            with pytest.raises(ServiceError) as excinfo:
                decode_reply(line)
            assert excinfo.value.code == exc.code
            return
        parsed = decode_reply(line)
        assert not isinstance(parsed.get("result"), RawJSON)
        assert _same_envelope(parsed, expected)

    def test_unwrap_decodes_on_demand(self):
        raw = RawJSON.of({"value": 2.5})
        assert unwrap(ok_response(1, raw)) == {"value": 2.5}
        with pytest.raises(ServiceError) as excinfo:
            unwrap(ok_response(1, RawJSON(b"{not json")))
        assert excinfo.value.code == INTERNAL
        with pytest.raises(ServiceError):
            unwrap(ok_response(1, RawJSON(b"[1]")))


class TestCacheKeys:
    REQUEST = {
        "op": "eval",
        "machine": "gtx580-double",
        "model": "energy",
        "metric": "energy_per_flop",
        "intensity": 2.0,
    }

    def test_field_order_does_not_split_entries(self):
        shuffled = dict(reversed(list(self.REQUEST.items())))
        assert request_cache_key(shuffled) == request_cache_key(self.REQUEST)

    def test_id_and_timeout_are_non_semantic(self):
        tagged = {**self.REQUEST, "id": 99, "timeout_ms": 50}
        assert request_cache_key(tagged) == request_cache_key(self.REQUEST)

    def test_semantic_fields_change_the_key(self):
        other = {**self.REQUEST, "intensity": 4.0}
        assert request_cache_key(other) != request_cache_key(self.REQUEST)

    def test_stats_and_ping_are_uncacheable(self):
        assert request_cache_key({"op": "stats"}) is None
        assert request_cache_key({"op": "ping"}) is None
        assert "stats" not in CACHEABLE_OPS
        assert "ping" not in CACHEABLE_OPS

    def test_every_model_op_is_cacheable(self):
        for op in ("eval", "curve", "balance", "tradeoff", "greenup",
                   "describe", "machines"):
            assert request_cache_key({"op": op}) is not None

    def test_key_is_json_safe(self):
        key = request_cache_key(self.REQUEST)
        json.dumps({"key": key})
