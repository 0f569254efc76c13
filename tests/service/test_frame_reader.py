"""The buffered binary-frame reader, on both ends of a connection.

Where reads split a frame stream is never semantic: the server
(``WireFrontend``) and ``AsyncServiceClient`` must give the same
replies, in the same order, with the same ``bytes_received``, whether
the stream arrives whole, one byte at a time, with a header split at
any offset, or cut anywhere at all.  A malformed frame still gets one
``bad_frame`` with its ``seq``, then the connection closes.

The streams are fed through an ``asyncio.StreamReader`` with a loop
iteration between chunks, so every cut is exactly where the reader
sees it.  The server's replies are compared by ``seq``: how its answer
tasks interleave follows the micro-batcher's waves, not the framing.
The client settles replies in stream order, so its order is compared.

The body deadline is pinned twice: it runs from the header's arrival,
so a trickling peer cannot extend it, and it is armed only while a
body is incomplete, so pipelined whole frames schedule no timer.
"""

from __future__ import annotations

import asyncio
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import wire as wireformat
from repro.service.client import AsyncServiceClient
from repro.service.protocol import BAD_FRAME, encode, ok_response
from repro.service.wire import (
    HEADER_SIZE,
    KIND_REQUEST,
    KIND_RESPONSE,
    decode_body,
    encode_frame,
    hello_request,
    parse_header,
)

from tests.service.test_wire import _header, start_server

KINDS = ("scalar", "grid", "curve")


def run(coro):
    return asyncio.run(coro)


class CapturingWriter:
    """The ``StreamWriter`` surface a connection uses, into a buffer."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.closed = False
        self.eof_at: float | None = None

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def write_eof(self) -> None:
        self.eof_at = time.perf_counter()

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


def request_frame(kind: str, seq: int) -> bytes:
    """One request frame for the server; ``id`` is its ``seq``."""
    x = 0.25 * seq
    if kind == "scalar":
        body = {"op": "eval", "machine": "gtx580-double", "model": "energy",
                "metric": "energy_per_flop", "intensity": x}
    elif kind == "grid":
        body = {"op": "eval", "machine": "i7-950-double", "model": "power",
                "metric": "power",
                "intensities": [x + i / 8 for i in range(40)]}
    elif kind == "curve":
        body = {"op": "curve", "machine": "gtx580-single",
                "kind": "roofline", "points_per_octave": 8 + seq % 5}
    else:  # sections overrun the body: a bad_frame naming this seq
        return _header(body_len=4, seq=seq) + b"junk"
    return encode_frame(KIND_REQUEST, seq, {**body, "id": seq})


def response_frame(kind: str, seq: int) -> bytes:
    """One reply frame for the client, answering request ``seq``."""
    x = 0.5 + seq
    if kind == "scalar":
        result = {"value": x}
    elif kind == "grid":
        result = {"values": [x / (i + 1) for i in range(40)]}
    elif kind == "curve":
        result = {"label": "roofline",
                  "intensities": [2.0 ** (i / 8) for i in range(48)],
                  "values": [x * i for i in range(48)]}
    else:
        return _header(kind=KIND_RESPONSE, body_len=4, seq=seq) + b"junk"
    return encode_frame(KIND_RESPONSE, seq, ok_response(seq, result))


def frames_of(make, kinds) -> list[bytes]:
    """One frame per kind, with ``seq`` 1, 2, ..."""
    return [make(kind, seq) for seq, kind in enumerate(kinds, 1)]


def cut(stream: bytes, offsets) -> list[bytes]:
    bounds = [0, *sorted(set(offsets)), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def frame_kinds(draw_kinds, malformed_at):
    kinds = list(draw_kinds)
    if malformed_at is not None:
        kinds.insert(min(malformed_at, len(kinds)), "malformed")
    return kinds


async def feed(reader: asyncio.StreamReader, chunks: list[bytes]) -> None:
    """Feed ``chunks`` with a loop iteration between them, then EOF."""
    for chunk in chunks:
        reader.feed_data(chunk)
        await asyncio.sleep(0)
    reader.feed_eof()


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


async def serve_chunks(server, chunks: list[bytes]):
    """One upgraded connection fed ``chunks``; returns
    ({seq: reply frame}, bytes_received, closed)."""
    reader = asyncio.StreamReader()
    writer = CapturingWriter()
    handler = asyncio.ensure_future(server._on_connection(reader, writer))
    reader.feed_data(encode(hello_request()))
    await feed(reader, chunks)
    await asyncio.wait_for(handler, timeout=30)
    data = bytes(writer.data)
    data = data[data.index(b"\n") + 1:]  # the NDJSON hello answer
    replies: dict[int, bytes] = {}
    offset = 0
    while offset < len(data):
        _, _, body_len, seq = parse_header(data[offset:offset + HEADER_SIZE])
        end = offset + HEADER_SIZE + body_len
        assert seq not in replies
        replies[seq] = data[offset:end]
        offset = end
    return replies, len(data), writer.closed


async def server_splits_agree(stream: bytes, splits: list[list[bytes]]):
    server = await start_server()
    try:
        whole = await serve_chunks(server, [stream])
        for chunks in splits:
            assert await serve_chunks(server, chunks) == whole
    finally:
        await server.stop()
    return whole


def check_server_replies(kinds, replies, closed):
    assert closed
    answered = (
        kinds.index("malformed") + 1 if "malformed" in kinds else len(kinds)
    )
    assert sorted(replies) == list(range(1, answered + 1))
    errors = []
    for seq, frame in replies.items():
        kind, nsections, _, _ = parse_header(frame[:HEADER_SIZE])
        envelope = decode_body(kind, nsections, frame[HEADER_SIZE:])
        if not envelope["ok"]:
            errors.append((seq, envelope["error"]["code"]))
    if "malformed" in kinds:
        assert errors == [(answered, BAD_FRAME)]
    else:
        assert errors == []


class TestServerSplits:
    @settings(max_examples=20, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        malformed_at=st.none() | st.integers(0, 6),
        data=st.data(),
    )
    def test_any_cut_answers_as_whole_frames(self, kinds, malformed_at, data):
        kinds = frame_kinds(kinds, malformed_at)
        stream = b"".join(frames_of(request_frame, kinds))
        offsets = data.draw(
            st.lists(st.integers(1, len(stream) - 1), max_size=12)
        )
        replies, _, closed = run(
            server_splits_agree(stream, [cut(stream, offsets)])
        )
        check_server_replies(kinds, replies, closed)

    def test_one_byte_trickle_and_every_header_split(self):
        kinds = ["scalar", "grid", "curve", "malformed", "scalar"]
        stream = b"".join(frames_of(request_frame, kinds))
        second = len(request_frame("scalar", 1))
        splits = [cut(stream, range(1, len(stream)))]
        splits += [cut(stream, [second + k]) for k in range(1, HEADER_SIZE)]
        replies, _, closed = run(server_splits_agree(stream, splits))
        check_server_replies(kinds, replies, closed)

    def test_many_frames_in_one_write(self):
        kinds = [KINDS[i % 3] for i in range(300)]
        frames = frames_of(request_frame, kinds)
        stream = b"".join(frames)
        replies, _, closed = run(server_splits_agree(stream, [frames]))
        check_server_replies(kinds, replies, closed)


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


async def client_chunks(n_requests: int, chunks: list[bytes]):
    """``n_requests`` pings answered by ``chunks``; returns (outcomes
    in settle order, bytes_received, reader finished)."""
    reader = asyncio.StreamReader()
    client = AsyncServiceClient(reader, CapturingWriter(), wire="binary")
    settled: list = []

    def record(task):
        exc = task.exception()
        settled.append(("error", exc.message) if exc else task.result())

    tasks = [
        asyncio.ensure_future(client.request({"op": "ping"}))
        for _ in range(n_requests)
    ]
    for task in tasks:
        task.add_done_callback(record)
    await asyncio.sleep(0)  # every request registered, ids 1..n
    await feed(reader, chunks)
    await asyncio.wait_for(
        asyncio.gather(*tasks, return_exceptions=True), timeout=10
    )
    finished = client._reader_task.done()
    received = client.bytes_received
    await client.close()
    return settled, received, finished


async def client_splits_agree(n: int, stream: bytes, splits):
    whole = await client_chunks(n, [stream])
    for chunks in splits:
        assert await client_chunks(n, chunks) == whole
    return whole


def check_client_replies(kinds, frames, outcome):
    settled, received, finished = outcome
    assert finished
    good = kinds.index("malformed") if "malformed" in kinds else len(kinds)
    assert [reply["id"] for reply in settled[:good]] == [
        *range(1, good + 1)
    ]
    assert settled[good:] == [("error", "connection closed")] * (
        len(kinds) - good
    )
    assert received == sum(len(frame) for frame in frames[:good])


class TestClientSplits:
    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
        malformed_at=st.none() | st.integers(0, 8),
        data=st.data(),
    )
    def test_any_cut_settles_as_whole_frames(self, kinds, malformed_at, data):
        kinds = frame_kinds(kinds, malformed_at)
        frames = frames_of(response_frame, kinds)
        stream = b"".join(frames)
        offsets = data.draw(
            st.lists(st.integers(1, len(stream) - 1), max_size=16)
        )
        outcome = run(
            client_splits_agree(len(kinds), stream, [cut(stream, offsets)])
        )
        check_client_replies(kinds, frames, outcome)

    def test_one_byte_trickle_and_every_header_split(self):
        kinds = ["curve", "scalar", "grid", "scalar", "malformed", "scalar"]
        frames = frames_of(response_frame, kinds)
        stream = b"".join(frames)
        splits = [cut(stream, range(1, len(stream)))]
        splits += [
            cut(stream, [len(frames[0]) + k]) for k in range(1, HEADER_SIZE)
        ]
        outcome = run(client_splits_agree(len(kinds), stream, splits))
        check_client_replies(kinds, frames, outcome)

    def test_many_frames_in_one_write(self):
        kinds = [KINDS[i % 3] for i in range(300)]
        frames = frames_of(response_frame, kinds)
        outcome = run(
            client_splits_agree(len(kinds), b"".join(frames), [frames])
        )
        check_client_replies(kinds, frames, outcome)


# ---------------------------------------------------------------------------
# The body deadline
# ---------------------------------------------------------------------------


class TestBodyDeadline:
    def test_trickled_body_times_out_from_its_header(self, monkeypatch):
        """One byte every 0.05 s never completes a 64-byte body in
        time; a deadline re-armed per read would never fire.  The reply
        is timed at the half-close that follows it: the handler itself
        then discards the still-trickling input for ``ERROR_LINGER``."""
        monkeypatch.setattr(wireformat, "FRAME_BODY_TIMEOUT", 0.2)

        async def trickle(reader):
            for _ in range(60):
                await asyncio.sleep(0.05)
                reader.feed_data(b"x")

        async def scenario():
            server = await start_server()
            reader = asyncio.StreamReader()
            writer = CapturingWriter()
            handler = asyncio.ensure_future(
                server._on_connection(reader, writer)
            )
            reader.feed_data(encode(hello_request()))
            await asyncio.sleep(0)
            started = time.perf_counter()
            reader.feed_data(_header(body_len=64, seq=17))
            trickler = asyncio.ensure_future(trickle(reader))
            await asyncio.wait_for(handler, timeout=5)
            elapsed = writer.eof_at - started
            trickler.cancel()
            await server.stop()
            data = bytes(writer.data)
            return elapsed, data[data.index(b"\n") + 1:], writer.closed

        elapsed, frame, closed = run(scenario())
        kind, nsections, body_len, seq = parse_header(frame[:HEADER_SIZE])
        response = decode_body(kind, nsections, frame[HEADER_SIZE:])
        assert len(frame) == HEADER_SIZE + body_len and closed
        assert response["error"]["code"] == BAD_FRAME
        assert "truncated frame body" in response["error"]["message"]
        assert seq == 17
        assert 0.15 <= elapsed < 1.0

    def test_pipelined_whole_frames_schedule_no_timer(self):
        frames = [response_frame("scalar", seq) for seq in range(1, 1001)]

        async def scenario():
            loop = asyncio.get_running_loop()
            reader = asyncio.StreamReader()
            client = AsyncServiceClient(
                reader, CapturingWriter(), wire="binary"
            )
            tasks = [
                asyncio.ensure_future(client.request({"op": "ping"}))
                for _ in frames
            ]
            await asyncio.sleep(0)
            scheduled = []

            def call_at(*args, **kwargs):
                scheduled.append(args)
                return type(loop).call_at(loop, *args, **kwargs)

            loop.call_at = call_at
            try:
                reader.feed_data(b"".join(frames))
                replies = await asyncio.gather(*tasks)
            finally:
                del loop.call_at
            received = client.bytes_received
            await client.close()
            return scheduled, replies, received

        scheduled, replies, received = run(scenario())
        assert [reply["id"] for reply in replies] == list(range(1, 1001))
        assert received == sum(len(frame) for frame in frames)
        assert scheduled == []
