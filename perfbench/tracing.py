"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into each layer's public functions.  The
wrappers are installed by the benchmark itself (:func:`instrument`);
nothing in the program under test knows it is being traced.

Every span carries a name, start and end (``perf_counter_ns``, which is
``CLOCK_MONOTONIC`` and so comparable across the benchmark's processes),
the id of the span that caused it, and a request id.  Self time is
exclusive time in the profiler sense: each thread keeps a stack of
executing spans, and a clock tick is charged only to the span on top of
it.  A coroutine counts as executing only while one of its steps runs,
so the time it spends suspended on an ``await`` is never self time —
for example the router's self time excludes the backend call it awaits.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns

#: (span id, request id) of the span the current code runs under.
_CURRENT: contextvars.ContextVar[tuple[int, Any] | None] = (
    contextvars.ContextVar("perfbench_span", default=None)
)


class Span:
    __slots__ = ("name", "start", "end", "self_ns", "sid", "parent", "rid", "value")

    def __init__(self, name: str, sid: int, parent: int | None, rid: Any):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.start = 0
        self.end = 0
        self.self_ns = 0
        self.value = 0.0

    def record(self) -> tuple:
        return (
            self.name, self.start, self.end, self.self_ns,
            self.sid, self.parent, self.rid, self.value,
        )


class Tracer:
    """Collects spans; charges exclusive time through per-thread stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _thread(self) -> threading.local:
        """This thread's executing span, the tick it was last charged
        at, and the spans it interrupted."""
        local = self._local
        if not hasattr(local, "frames"):
            local.top, local.tick, local.frames = None, 0, []
        return local

    def open(self, name: str, rid: Any = None) -> tuple[Span, contextvars.Token]:
        current = _CURRENT.get()
        parent, parent_rid = current if current is not None else (None, None)
        span = Span(name, next(self._ids), parent, rid if rid is not None else parent_rid)
        token = _CURRENT.set((span.sid, span.rid))
        span.start = _now()
        return span, token

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = _now()
        _CURRENT.reset(token)
        self.spans.append(span)

    def resume(self, span: Span) -> None:
        """``span`` starts executing on this thread."""
        now = _now()
        local = self._thread()
        if local.top is not None:
            local.top.self_ns += now - local.tick
        local.frames.append(local.top)
        local.top, local.tick = span, now

    def suspend(self) -> None:
        """The executing span stops (returns or awaits)."""
        now = _now()
        local = self._thread()
        if local.top is not None:
            local.top.self_ns += now - local.tick
        local.top, local.tick = local.frames.pop(), now

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        value: Callable[..., float] | None = None,
        rid: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` with a span per call.

        ``value(args, kwargs, result)`` gives the span a number (bytes,
        points); ``rid(args, kwargs)`` names the request for root spans.
        """
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(name, fn, value, rid)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = tracer.open(name, rid(args, kwargs) if rid else None)
            tracer.resume(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.suspend()
                tracer.close(span, token)
            if value is not None:
                span.value = value(args, kwargs, result)
            return result

        return traced

    def _wrap_async(self, name, fn, value, rid):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = tracer.open(name, rid(args, kwargs) if rid else None)
            try:
                result = await _Stepped(tracer, span, fn(*args, **kwargs))
            finally:
                tracer.close(span, token)
            if value is not None:
                span.value = value(args, kwargs, result)
            return result

        return traced

    def mark(self, name: str) -> None:
        """A zero-length span: counts an event at this instant."""
        self.interval(name, _now(), None)

    def interval(self, name: str, start: int, end: int | None) -> None:
        """A span with no self time, e.g. time spent queued."""
        current = _CURRENT.get()
        parent, rid = current if current is not None else (None, None)
        span = Span(name, next(self._ids), parent, rid)
        span.start = start
        span.end = start if end is None else end
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def window(self, start_ns: int, end_ns: int) -> list[tuple]:
        """Records of the spans that started inside ``[start, end)``."""
        return [
            s.record() for s in self.spans if start_ns <= s.start < end_ns
        ]

    def dump(self, path: Path, records: list[tuple], limit: int = 50_000) -> None:
        """Write up to ``limit`` span records as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "self_ns", "id", "parent", "request", "value")
        with path.open("w") as fh:
            for record in records[:limit]:
                fh.write(json.dumps(dict(zip(keys, record)), default=str) + "\n")


class _Stepped:
    """Drive a coroutine step by step, charging each step to ``span``."""

    __slots__ = ("tracer", "span", "coro")

    def __init__(self, tracer: Tracer, span: Span, coro: Any):
        self.tracer = tracer
        self.span = span
        self.coro = coro

    def __await__(self):
        coro, tracer, span = self.coro, self.tracer, self.span
        send, error = None, None
        while True:
            tracer.resume(span)
            try:
                if error is None:
                    yielded = coro.send(send)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.suspend()
            try:
                send, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                send, error = None, exc


def aggregate(records: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self ns, total wall ns, total value."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "wall_ns": 0, "value": 0.0}
    )
    for name, start, end, self_ns, _sid, _parent, _rid, value in records:
        entry = out[name]
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        entry["wall_ns"] += end - start
        entry["value"] += value
    return dict(out)


def patch_everywhere(owner: Any, attr: str, wrapper: Callable, prefix: str = "repro") -> None:
    """Replace ``owner.attr`` and every module-level alias of it.

    Functions imported by name (``from m import f``) are bound in each
    importing module too; all loaded ``prefix.*`` modules are rebound so
    every call site sees the wrapper.
    """
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if inspect.isclass(owner):
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for key, bound in list(vars(module).items()):
            if bound is original:
                setattr(module, key, wrapper)


def _size(index: int) -> Callable[..., float]:
    return lambda args, kwargs, result: float(len(args[index]))


def _result_size(args: Any, kwargs: Any, result: Any) -> float:
    return float(len(result))


def _request_id(args: Any, kwargs: Any) -> Any:
    request = args[1] if len(args) > 1 else None
    return request.get("id") if isinstance(request, dict) else None


#: Codes that mean a request was refused before any work started.
REFUSAL_CODES = ("overloaded", "shutting_down")


def _reply_status(args: Any, kwargs: Any, reply: Any) -> float:
    """0 for a success envelope, 1 for a refusal, 2 for any other error."""
    if isinstance(reply, dict) and reply.get("ok"):
        return 0.0
    error = reply.get("error") if isinstance(reply, dict) else None
    code = error.get("code") if isinstance(error, dict) else None
    return 1.0 if code in REFUSAL_CODES else 2.0


def instrument_engine(tracer: Tracer) -> None:
    """Spans around the evaluation engine (also used inside workers)."""
    from repro.service.engine import EvalEngine

    EvalEngine.eval_batch = tracer.wrap(
        "engine.eval_batch", EvalEngine.eval_batch, value=_size(4)
    )
    original_plan = EvalEngine.curve_plan

    def curve_plan(engine: Any, *args: Any, **kwargs: Any) -> Any:
        hits = engine.plan_hits
        plan = traced_plan(engine, *args, **kwargs)
        if engine.plan_hits > hits:
            tracer.mark("engine.plan_cache.hit")
        return plan

    traced_plan = tracer.wrap(
        "engine.curve",
        original_plan,
        value=lambda args, kwargs, plan: float(len(plan.intensities)),
    )
    EvalEngine.curve_plan = functools.wraps(original_plan)(curve_plan)
    for op in ("balance", "tradeoff", "greenup", "describe"):
        setattr(
            EvalEngine, op, tracer.wrap("engine.analysis", getattr(EvalEngine, op))
        )


def instrument(tracer: Tracer) -> None:
    """Install spans around every serving layer's public entry points."""
    from repro.service import protocol, wire
    from repro.service.batcher import MicroBatcher
    from repro.service.cache import TTLCache
    from repro.service.client import AsyncServiceClient
    from repro.service.costmodel import CostPredictor
    from repro.service.metrics import Histogram
    from repro.service.router.router import BackendHandle, RouterServer
    from repro.service.server import ModelServer
    from repro.service.workers import WorkerPool

    patch_everywhere(wire, "encode_frame", tracer.wrap(
        "wire.encode_frame", wire.encode_frame, value=_result_size))
    patch_everywhere(wire, "decode_body", tracer.wrap(
        "wire.decode_body", wire.decode_body, value=_size(2)))
    patch_everywhere(protocol, "encode", tracer.wrap(
        "protocol.encode", protocol.encode, value=_result_size))
    patch_everywhere(protocol, "decode", tracer.wrap(
        "protocol.decode", protocol.decode, value=_size(0)))
    ModelServer.handle_request = tracer.wrap(
        "server.handle_request", ModelServer.handle_request,
        value=_reply_status, rid=_request_id,
    )
    RouterServer.handle_request = tracer.wrap(
        "router.handle_request", RouterServer.handle_request, rid=_request_id
    )
    BackendHandle.call = tracer.wrap("router.backend_call", BackendHandle.call)
    AsyncServiceClient.call = tracer.wrap("client.call", AsyncServiceClient.call)
    WorkerPool.submit = tracer.wrap("workers.submit", WorkerPool.submit)
    CostPredictor.predict = tracer.wrap("costmodel.predict", CostPredictor.predict)
    CostPredictor.observe = tracer.wrap("costmodel.observe", CostPredictor.observe)
    TTLCache.get = tracer.wrap(
        "cache.get", TTLCache.get,
        value=lambda args, kwargs, hit: 0.0 if hit is None else 1.0,
    )
    TTLCache.put = tracer.wrap("cache.put", TTLCache.put)
    Histogram.observe = tracer.wrap("metrics.observe", Histogram.observe)
    MicroBatcher.flush = tracer.wrap("batcher.flush", MicroBatcher.flush)
    traced_submit = tracer.wrap("batcher.submit", MicroBatcher.submit)

    def submit(batcher: Any, *args: Any, **kwargs: Any) -> Any:
        queued = _now()
        future = traced_submit(batcher, *args, **kwargs)
        future.add_done_callback(
            lambda _f: tracer.interval("batcher.wait", queued, _now())
        )
        return future

    MicroBatcher.submit = functools.wraps(MicroBatcher.submit)(submit)
    instrument_engine(tracer)
