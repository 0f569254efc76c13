"""The asyncio model server: batcher → engine → cache → metrics.

:class:`ModelServer` is the long-lived serving loop for the paper's
analytic models.  It accepts requests two ways — in-process (``await
server.handle_request({...})``, used by :class:`~repro.service.client.
InProcessClient` and the load generator) and over TCP as
newline-delimited JSON (see :mod:`repro.service.protocol`) — and runs
every request through the same pipeline:

1. **Admission control** — one in-flight budget vector (request count
   ``queue_limit`` and predicted ``work_budget`` seconds); beyond it
   requests are *refused* with an ``overloaded`` reply instead of
   buffered without bound, so latency stays bounded and clients get an
   explicit backpressure signal.
2. **Response cache** — TTL+LRU keyed on the canonicalised request
   body (:mod:`repro._canon`, shared with the experiment runner).
3. **Micro-batching** — concurrent scalar ``eval`` requests coalesce
   into single vectorised engine calls
   (:class:`~repro.service.batcher.MicroBatcher`).
4. **Deadlines** — a per-request ``timeout_ms`` (or the server default)
   bounds the wait; expiry yields a ``deadline_exceeded`` reply.
5. **Metrics + access log** — every request is counted, timed into
   latency histograms, and optionally emitted as a structured access
   record.

With ``workers=N`` (N >= 1) the evaluation work itself — coalesced
batches, grid evals, curve/balance/tradeoff/greenup/describe — runs on
a sharded :class:`~repro.service.workers.WorkerPool` of N persistent
engine processes instead of the event loop, routed by a stable hash of
the machine (and optionally model) so per-shard engine memos stay hot;
``workers=0`` preserves the in-loop path exactly.

Shutdown is a graceful drain: the listener closes, queued batches
flush, in-flight requests (including worker jobs) finish, workers are
joined, and only then does ``stop`` return.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro._heap import reserve_heap
from repro.exceptions import ReproError, ServiceError
from repro.service.batcher import MicroBatcher
from repro.service.cache import TTLCache
from repro.service.costmodel import CostPredictor
from repro.service.engine import DEFAULT_PLAN_CACHE_SIZE, EvalEngine
from repro.service.frontend import WireFrontend
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INTERNAL,
    OVERLOADED,
    SHUTTING_DOWN,
    UNKNOWN_OP,
    RawJSON,
    error_response,
    ok_response,
    request_cache_key,
)
from repro.service.workers import WorkerPool
from repro.units import milliseconds, to_milliseconds

__all__ = ["ServerConfig", "ModelServer"]

#: Admission dimensions: requests in flight and predicted seconds of
#: work.  A request's demand is ``(1, seconds)``; the seconds are zero
#: when no cost predictor is active.
_Demand = tuple[int, float]

#: Refusal message per dimension: the held total, this request's
#: demand, and the limit the two together would exceed.
_REFUSALS = (
    "admission queue full ({limit} in flight); retry with backoff",
    "predicted work in flight ({held:.6g} s) plus this request "
    "({demand:.6g} s) exceeds work_budget ({limit:.6g} s); "
    "retry with backoff",
)


class _CacheEntry:
    """A response-cache value: the result dict, plus its compact JSON
    encoding once an NDJSON reply has needed it (then kept, so every
    later NDJSON hit splices the same bytes)."""

    __slots__ = ("result", "_encoding")

    def __init__(self, result: dict[str, Any]):
        self.result = result
        self._encoding: RawJSON | None = None

    def encoding(self) -> RawJSON:
        if self._encoding is None:
            self._encoding = RawJSON.of(self.result)
        return self._encoding


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for one :class:`ModelServer` instance.

    Attributes
    ----------
    host, port:
        TCP bind address; port ``0`` lets the OS pick (the bound port is
        available as ``server.address`` after ``start``).
    max_batch:
        Micro-batch size cap; ``1`` disables coalescing.
    flush_window:
        Seconds a non-full batch waits before flushing.
    cache_size, cache_ttl:
        Response-cache entry budget and staleness bound (seconds);
        ``cache_size=0`` disables caching, ``cache_ttl=None`` never
        expires.
    queue_limit:
        Maximum simultaneously admitted requests, in either admission
        mode; excess get ``overloaded`` replies at once.
    default_timeout:
        Default per-request deadline in seconds (``None`` = no
        deadline); a request's ``timeout_ms`` field overrides it.
    access_log:
        Optional callable receiving one structured record (dict) per
        completed request.
    workers:
        Worker processes for model evaluation.  ``0`` (default) keeps
        every evaluation on the event loop — byte-for-byte today's
        behaviour; ``N >= 1`` spawns a sharded
        :class:`~repro.service.workers.WorkerPool` and routes batches,
        grids, and structured analyses through it.
    worker_queue_limit:
        Per-shard bound on concurrently submitted worker jobs; excess
        get ``overloaded`` replies.
    wire:
        TCP framing policy.  ``"auto"`` and ``"binary"`` accept a
        client's ``hello`` offer of the binary wire format
        (:mod:`repro.service.wire`); ``"ndjson"`` refuses it, pinning
        every connection to NDJSON.  Connections that never send a
        ``hello`` speak NDJSON under any policy — the negotiation is
        strictly opt-in per connection.
    plan_cache_size:
        Compiled curve-plan cache entries per engine (in-loop and per
        worker); ``0`` disables plan caching.
    admission:
        ``"depth"`` (default) admits by in-flight request *count*
        against ``queue_limit`` alone; ``"cost"`` also bounds predicted
        in-flight *work* — the sum of
        :class:`~repro.service.costmodel.CostPredictor` service-time
        estimates — by ``work_budget``.  Both refuse with the same
        retriable ``overloaded`` envelope, so router failover composes
        unchanged.
    work_budget:
        Seconds of predicted work allowed in flight under cost
        admission (strict SI; required when ``admission="cost"``).
        A request whose estimate lands the total exactly *on* the
        budget is admitted; ``0.0`` therefore rejects everything.
    deadline_batching:
        When true (and a cost predictor is active), the micro-batcher
        sizes batches against each request's deadline: a batch closes
        when its predicted service time would breach the earliest
        member's ``timeout_ms``.  Scatter stays bit-identical.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    flush_window: float = 0.001
    cache_size: int = 2048
    cache_ttl: float | None = 300.0
    queue_limit: int = 1024
    default_timeout: float | None = None
    access_log: Callable[[dict[str, Any]], None] | None = field(
        default=None, compare=False
    )
    workers: int = 0
    worker_queue_limit: int = 256
    wire: str = "auto"
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    admission: str = "depth"
    work_budget: float | None = None
    deadline_batching: bool = False


class ModelServer(WireFrontend):
    """Serve the analytic models with micro-batching, caching, metrics."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        engine: EvalEngine | None = None,
    ):
        self.config = config or ServerConfig()
        _validate_config(self.config)
        reserve_heap()  # large replies' temporaries would otherwise re-fault
        self.engine = engine or EvalEngine(
            plan_cache_size=self.config.plan_cache_size
        )
        self.metrics = MetricsRegistry()
        self._init_frontend(
            metrics=self.metrics,
            wire=self.config.wire,
            host=self.config.host,
            port=self.config.port,
        )
        self.cache = TTLCache(self.config.cache_size, self.config.cache_ttl)
        cost_admission = self.config.admission == "cost"
        self.cost: CostPredictor | None = (
            CostPredictor(self.engine, metrics=self.metrics)
            if cost_admission or self.config.deadline_batching
            else None
        )
        self.pool: WorkerPool | None = (
            WorkerPool(
                self.config.workers,
                queue_limit=self.config.worker_queue_limit,
                plan_cache_size=self.config.plan_cache_size,
                metrics=self.metrics,
            )
            if self.config.workers > 0
            else None
        )
        self.batcher = MicroBatcher(
            self.engine,
            max_batch=self.config.max_batch,
            flush_window=self.config.flush_window,
            metrics=self.metrics,
            execute=self._pool_eval_batch if self.pool is not None else None,
            cost=self.cost,
        )
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # Hot-path instruments, resolved once.
        self._requests_total = self.metrics.counter("requests_total")
        self._errors_total = self.metrics.counter("errors_total")
        self._overloaded_total = self.metrics.counter("overloaded_total")
        self._deadline_total = self.metrics.counter("deadline_exceeded_total")
        self._cache_hits = self.metrics.counter("cache_hits_total")
        self._latency_ms = self.metrics.histogram("request_latency_ms")
        # Admission state (see _admit).  Cost-loop instruments are
        # registered only when a predictor is active, so plain
        # depth-admission servers keep their exact stats surface;
        # without one they live in a detached registry nobody reads.
        self._limits: _Demand = (
            self.config.queue_limit,
            self.config.work_budget if cost_admission else float("inf"),
        )
        self._held: _Demand = (0, 0.0)
        reg = self.metrics if self.cost is not None else MetricsRegistry()
        self._admission_accepted = reg.counter("admission_accepted_total")
        self._admission_rejected = reg.counter("admission_rejected_total")
        self._held_gauges = (
            self.metrics.gauge("queue_depth"),
            reg.gauge("predicted_work_s"),
        )

    # ------------------------------------------------------------------
    # Request pipeline (transport-independent)
    # ------------------------------------------------------------------

    async def handle_request(
        self,
        request: dict[str, Any],
        *,
        arrays: dict[str, Any] | None = None,
        encoded: bool = False,
    ) -> dict[str, Any]:
        """Run one request through the full pipeline; never raises.

        ``arrays`` is the zero-copy sink binary connections pass: bulk
        float series of the result (curve/grid values) are deposited
        into it as ndarrays and *omitted* from the returned envelope —
        the binary framer ships them as raw sections and the client
        splices the identical floats back in.  ``None`` (the NDJSON and
        in-process paths) keeps every field in the envelope as lists.

        ``encoded=True`` (NDJSON connections) lets a cacheable result
        come back as the :class:`~repro.service.protocol.RawJSON` its
        cache entry remembers, so a hit is spliced into the reply line
        instead of re-encoded.  In-process callers always get dicts.
        """
        if not isinstance(request, dict):
            return error_response(
                None, BAD_REQUEST, "request must be a JSON object"
            )
        request_id = request.get("id")
        op = request.get("op")
        if not isinstance(op, str):
            return error_response(
                request_id, BAD_REQUEST, "request needs a string 'op' field"
            )
        # Control-plane operations bypass admission and caching: health
        # checks and stats must work on a saturated or draining server.
        if op == "ping":
            return ok_response(request_id, {"pong": True})
        if op == "stats":
            return ok_response(request_id, self.stats())
        # Admission refusals happen before any work starts, so they are
        # always safe to retry — the marker is what lets the scale-out
        # router fail a request over to another replica instead of
        # surfacing a draining or saturated backend to the client.
        if self._draining:
            return error_response(
                request_id, SHUTTING_DOWN, "server is draining",
                retriable=True,
            )
        # ``priority`` is read by no decision, but stays a validated wire
        # field so existing clients get the same replies.
        priority = request.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            return error_response(
                request_id,
                BAD_REQUEST,
                f"priority must be an integer, got {priority!r}",
            )
        work = self.cost and self.cost.estimate_request(request)
        demand = (1, work or 0.0)
        refusal = self._admit(request_id, demand)
        if refusal is not None:
            return refusal
        started = time.perf_counter()
        status = "ok"
        cached = False
        try:
            cache_key = (
                request_cache_key(request) if self.cache.enabled else None
            )
            if cache_key is not None:
                hit = self.cache.get(cache_key)
                if hit is not None:
                    cached = True
                    self._cache_hits.inc()
                    return ok_response(
                        request_id,
                        hit.encoding() if encoded else hit.result,
                        cached=True,
                    )
            timeout = self._deadline(request)
            batch_deadline = (
                asyncio.get_running_loop().time() + timeout
                if timeout is not None and self.config.deadline_batching
                else None
            )
            dispatched = time.perf_counter()
            if timeout is not None:
                try:
                    async with asyncio.timeout(timeout):
                        # Yield once before the work starts, so every
                        # arrival of this loop iteration is admitted or
                        # refused against the demand held so far; in-loop
                        # work that started at once would run and release
                        # its demand before the next arrival is checked.
                        await asyncio.sleep(0)
                        result = await self._dispatch(
                            op, request, arrays, batch_deadline
                        )
                except (asyncio.TimeoutError, TimeoutError):
                    self._deadline_total.inc()
                    status = DEADLINE_EXCEEDED
                    return error_response(
                        request_id,
                        DEADLINE_EXCEEDED,
                        f"deadline of {timeout * 1000:.6g} ms expired",
                    )
            else:
                result = await self._dispatch(op, request, arrays)
            if self.cost is not None:
                # Success-path refinement; scalar evals are skipped
                # here (their dispatch time is mostly flush-window
                # queueing) — the batcher reports those batch times.
                self.cost.observe_request(
                    request, time.perf_counter() - dispatched
                )
            if cache_key is not None:
                # Deposited series are cached in their list form, so
                # later hits serve NDJSON and binary alike (the framer
                # re-lifts lists into raw sections).
                entry = _CacheEntry(
                    {**result, **{k: v.tolist() for k, v in arrays.items()}}
                    if arrays
                    else result
                )
                self.cache.put(cache_key, entry)
                if encoded:
                    return ok_response(request_id, entry.encoding())
            return ok_response(request_id, result)
        except ServiceError as exc:
            status = exc.code
            self._errors_total.inc()
            return error_response(
                request_id,
                exc.code,
                exc.message,
                retriable=bool(getattr(exc, "retriable", False)),
            )
        except ReproError as exc:
            status = BAD_REQUEST
            self._errors_total.inc()
            return error_response(request_id, BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - the serving boundary
            status = INTERNAL
            self._errors_total.inc()
            return error_response(
                request_id, INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            elapsed_ms = to_milliseconds(time.perf_counter() - started)
            # Subtract, clamped at zero: float summation drift must
            # never wedge the budget open or shut.
            count, held_work = self._held
            self._held = held = (
                count - demand[0],
                held_work - demand[1] if held_work > demand[1] else 0.0,
            )
            if not held[0]:
                self._idle.set()
            self._requests_total.inc()
            self._latency_ms.observe(elapsed_ms)
            log = self.config.access_log
            if log is not None:
                log(
                    {
                        "op": op,
                        "machine": request.get("machine"),
                        "status": status,
                        "ms": round(elapsed_ms, 4),
                        "cached": cached,
                    }
                )

    # ------------------------------------------------------------------
    # Admission: one (count, seconds) budget vector
    # ------------------------------------------------------------------

    def _admit(self, request_id: Any, demand: _Demand) -> dict | None:
        """Hold ``demand`` if the whole vector fits, else refuse.

        Limits are inclusive: a total landing exactly on its limit is
        admitted.  Returns ``None`` once the demand is held, else the
        retriable ``overloaded`` envelope naming the first limit
        exceeded.
        """
        held, limits = self._held, self._limits
        want = (held[0] + demand[0], held[1] + demand[1])
        if want[0] <= limits[0] and want[1] <= limits[1]:
            self._held = want
            if want[0] == 1:
                self._idle.clear()
            self._admission_accepted.inc()
            return None
        dim = 0 if want[0] > limits[0] else 1
        self._overloaded_total.inc()
        if dim:
            self._admission_rejected.inc()
        reason = _REFUSALS[dim].format(
            held=held[dim], demand=demand[dim], limit=limits[dim]
        )
        return error_response(request_id, OVERLOADED, reason, retriable=True)

    def _deadline(self, request: dict[str, Any]) -> float | None:
        timeout_ms = request.get("timeout_ms")
        if timeout_ms is None:
            return self.config.default_timeout
        if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
            raise ServiceError(
                BAD_REQUEST, f"timeout_ms must be positive, got {timeout_ms!r}"
            )
        return milliseconds(float(timeout_ms))

    async def _dispatch(
        self,
        op: str,
        request: dict[str, Any],
        arrays: dict[str, Any] | None = None,
        batch_deadline: float | None = None,
    ) -> dict[str, Any]:
        """Execute one admitted, uncached request.

        Argument validation always runs here on the loop (it is cheap
        and produces identical errors either way); the model evaluation
        itself runs in-loop with ``workers=0`` or on the worker pool
        otherwise.  Both paths execute the same engine code, so
        responses are byte-identical across worker counts.  With an
        ``arrays`` sink, curve/grid series stay ndarrays end to end —
        deposited instead of ``.tolist()``-ed into the result.
        """
        if op == "eval":
            machine = _required(request, "machine", str)
            model = request.get("model", "time")
            metric = _required(request, "metric", str)
            if "intensities" in request:
                grid = _grid(request["intensities"])
                if self.pool is not None:
                    self.engine.batch_calls += 1
                    values = await self.pool.submit(
                        "eval_batch",
                        (machine, model, metric, grid),
                        machine,
                    )
                else:
                    values = self.engine.eval_batch(
                        machine, model, metric, grid
                    )
                if arrays is not None:
                    arrays["values"] = values
                    return {}
                return {"values": values.tolist()}
            intensity = _required(request, "intensity", (int, float))
            value = await self.batcher.submit(
                machine,
                model,
                metric,
                float(intensity),
                deadline=batch_deadline,
            )
            return {"value": value}
        if op == "curve":
            machine = _required(request, "machine", str)
            kwargs = dict(
                kind=_required(request, "kind", str),
                lo=_optional(request, "lo", (int, float), 0.5),
                hi=_optional(request, "hi", (int, float), 512.0),
                points_per_octave=_optional(
                    request, "points_per_octave", int, 8
                ),
                normalized=_optional(request, "normalized", bool, True),
            )
            if arrays is None:
                return await self._analysis("curve", machine, **kwargs)
            if self.pool is not None:
                result = await self.pool.submit(
                    "op",
                    ("curve", {"machine_key": machine, **kwargs}),
                    machine,
                    listify=False,
                )
                arrays["intensities"] = result.pop("intensities")
                arrays["values"] = result.pop("values")
                return result
            plan = self.engine.curve_plan(machine, **kwargs)
            arrays["intensities"] = plan.intensities
            arrays["values"] = plan.values
            return {"label": plan.label, "units": plan.units}
        if op == "balance":
            machine = _required(request, "machine", str)
            return await self._analysis("balance", machine)
        if op == "tradeoff":
            machine = _required(request, "machine", str)
            return await self._analysis(
                "tradeoff",
                machine,
                intensity=_required(request, "intensity", (int, float)),
                f=_required(request, "f", (int, float)),
                m=_required(request, "m", (int, float)),
            )
        if op == "greenup":
            machine = _required(request, "machine", str)
            return await self._analysis(
                "greenup",
                machine,
                intensity=_required(request, "intensity", (int, float)),
                m=_required(request, "m", (int, float)),
            )
        if op == "describe":
            machine = _required(request, "machine", str)
            return await self._analysis("describe", machine)
        if op == "machines":
            return self.engine.machines()
        raise ServiceError(
            UNKNOWN_OP,
            f"unknown op {op!r}; available: balance, curve, describe, eval, "
            "greenup, machines, ping, stats, tradeoff",
        )

    #: Analysis ops routed through :meth:`_analysis`; each maps to the
    #: engine method of the same name (machine key passed positionally).
    _ANALYSIS_OPS = frozenset(
        {"curve", "balance", "tradeoff", "greenup", "describe"}
    )

    async def _analysis(
        self, op: str, machine: str, **kwargs: Any
    ) -> dict[str, Any]:
        """One structured analysis, in-loop or on the machine's shard."""
        assert op in self._ANALYSIS_OPS
        if self.pool is not None:
            return await self.pool.submit(
                "op",
                (op, {"machine_key": machine, **kwargs}),
                machine,
            )
        return getattr(self.engine, op)(machine, **kwargs)

    async def _pool_eval_batch(
        self, machine: str, model: str, metric: str, intensities: Any
    ) -> Any:
        """Micro-batcher executor: one coalesced batch on the pool."""
        assert self.pool is not None
        self.engine.batch_calls += 1
        return await self.pool.submit(
            "eval_batch",
            (machine, model, metric, intensities),
            machine,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``stats`` payload: metrics, cache, batcher, queue state."""
        # Gauges mirror the held vector: set here, not per request.
        for gauge, level in zip(self._held_gauges, self._held):
            gauge.set(level)
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats()
        # In-loop engine counters; with workers each worker process has
        # its own engine (and plan cache), not aggregated here.
        snapshot["plan_cache"] = self.engine.plan_cache_stats()
        snapshot["inflight"] = self._held[0]
        snapshot["pending_batched"] = self.batcher.pending_requests
        snapshot["engine_batch_calls"] = self.engine.batch_calls
        snapshot["draining"] = self._draining
        snapshot["config"] = {
            "max_batch": self.config.max_batch,
            "flush_window": self.config.flush_window,
            "cache_size": self.config.cache_size,
            "cache_ttl": self.config.cache_ttl,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "wire": self.config.wire,
            "plan_cache_size": self.config.plan_cache_size,
            "admission": self.config.admission,
            "deadline_batching": self.config.deadline_batching,
        }
        if self.cost is not None:
            snapshot["cost"] = self.cost.stats()
            snapshot["admission"] = {
                "mode": self.config.admission,
                "work_budget": self.config.work_budget,
                "predicted_work_s": self._held[1],
            }
        if self.pool is not None:
            snapshot["workers"] = self.pool.stats()
        return snapshot

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------

    async def stop(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop serving; with ``drain`` (default) finish open work first.

        Order matters: refuse new work, flush queued batches so their
        waiters complete, then wait (bounded by ``timeout``) for every
        admitted request to finish — including jobs in flight on the
        worker pool — then hang up every connection and release the
        listener, and only then shut the workers down.
        """
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
        if drain:
            await self.batcher.drain()
            try:
                async with asyncio.timeout(timeout):
                    await self._idle.wait()
            except (asyncio.TimeoutError, TimeoutError):
                pass
        await self._close_listener(cancel_connections=not drain)
        if self.pool is not None:
            await self.pool.close(force=not drain, timeout=timeout)


def _validate_config(config: ServerConfig) -> None:
    if config.admission not in ("depth", "cost"):
        raise ValueError(
            f"admission must be 'depth' or 'cost', got {config.admission!r}"
        )
    if config.admission == "cost" and config.work_budget is None:
        raise ValueError(
            "admission='cost' requires work_budget "
            "(seconds of predicted work in flight)"
        )
    if config.work_budget is not None and config.work_budget < 0:
        raise ValueError(
            f"work_budget must be >= 0, got {config.work_budget}"
        )


#: Scalar types a grid may hold: numbers, but not bools.
_GRID_NUMBERS = (int, float, np.integer, np.floating)


def _grid(value: Any) -> np.ndarray:
    """A request's ``intensities`` as one contiguous 1-D float64 array.

    Checked here on the loop whatever evaluates it, so a bad grid gets
    the same ``bad_request`` with or without a worker pool, and the
    pool pickles one buffer instead of a float list.  A binary
    request's grid is a float64 array already and passes as is.
    """
    if isinstance(value, np.ndarray):
        valid = value.ndim == 1 and value.dtype.kind in "fiu"
    else:
        # One C-level pass collects the element types; a grid of JSON
        # numbers has at most two, so checking each type is cheap.
        valid = isinstance(value, (list, tuple)) and all(
            issubclass(kind, _GRID_NUMBERS) and not issubclass(kind, bool)
            for kind in set(map(type, value))
        )
    if valid and len(value):
        try:
            return np.ascontiguousarray(value, dtype=np.float64)
        except OverflowError:
            pass  # an integer beyond float range
    raise ServiceError(
        BAD_REQUEST, "intensities must be a non-empty array of numbers"
    )


def _required(request: dict[str, Any], name: str, types: Any) -> Any:
    try:
        value = request[name]
    except KeyError:
        raise ServiceError(
            BAD_REQUEST, f"missing required field {name!r}"
        ) from None
    if not isinstance(value, types) or isinstance(value, bool):
        raise ServiceError(
            BAD_REQUEST, f"field {name!r} has invalid value {value!r}"
        )
    return value


def _optional(
    request: dict[str, Any], name: str, types: Any, default: Any
) -> Any:
    value = request.get(name)
    if value is None:
        return default
    if types is bool:
        if not isinstance(value, bool):
            raise ServiceError(
                BAD_REQUEST, f"field {name!r} must be a boolean, got {value!r}"
            )
        return value
    if not isinstance(value, types) or isinstance(value, bool):
        raise ServiceError(
            BAD_REQUEST, f"field {name!r} has invalid value {value!r}"
        )
    return value
