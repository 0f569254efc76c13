"""Micro-batching: coalesce concurrent scalar requests into array calls.

The serving analogue of dynamic batching in an inference stack: scalar
``eval`` requests that target the same (machine, model, metric) are
queued for up to ``flush_window`` seconds or ``max_batch`` entries —
whichever comes first — then evaluated in **one** vectorised
``*_batch`` numpy call, with results scattered back to the per-request
futures.  Under concurrency this converts N engine invocations into
⌈N / max_batch⌉ without changing a single result bit: the batch methods
perform the same IEEE operations in the same order as their scalar
twins.

Flush discipline:

* the *first* request for a key arms a flush timer (``call_later``; a
  zero window degenerates to ``call_soon``, which still coalesces every
  submission made in the same event-loop iteration);
* the request that *fills* the batch cancels the timer and flushes
  inline — a full batch never waits;
* with a :class:`~repro.service.costmodel.CostPredictor` attached and
  per-request deadlines supplied, the **predicted batch service time**
  replaces the fixed window on the hot path: each submission computes
  the latest instant the batch can still flush without the earliest
  member's deadline being breached by the predicted evaluation time,
  and the timer is pulled forward to it (or the batch flushed
  immediately when no slack remains).  Batch *boundaries* move; batch
  *values* cannot — the batch methods are elementwise, so scatter
  stays bit-identical to the scalar path regardless of how batches
  are cut;
* ``max_batch=1`` therefore means "batching disabled": every submission
  flushes itself immediately, through the identical pipeline, which is
  what the ``bench-serve`` comparison measures.

Each flush's wall time is reported back to the predictor (when one is
attached), which is what turns the analytic seed into a host-accurate
fit — cost admission and deadline batching ride on those observations.
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Awaitable, Callable

import numpy as np

from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.costmodel import CostPredictor
    from repro.service.engine import EvalEngine

#: Async batch executor: (machine, model, metric, intensities) → values.
BatchExecutor = Callable[
    [str, str, str, np.ndarray], "Awaitable[np.ndarray]"
]

__all__ = ["DEADLINE_MARGIN", "MicroBatcher"]

BatchKey = tuple[str, str, str]  # (machine, model, metric)

#: Safety multiplier on the predicted batch service time when computing
#: the latest safe flush instant (> 1 leaves headroom for prediction
#: error and scatter).
DEADLINE_MARGIN = 1.25


class _Pending:
    """Accumulating batch for one (machine, model, metric) key."""

    __slots__ = ("intensities", "futures", "timer", "timer_at", "deadline")

    def __init__(self) -> None:
        self.intensities: list[float] = []
        self.futures: list[asyncio.Future] = []
        self.timer: asyncio.Handle | None = None
        #: Loop time the armed timer fires at (deadline sizing pulls
        #: the timer forward only when it would beat this).
        self.timer_at: float | None = None
        #: Earliest member deadline (absolute loop time), or ``None``.
        self.deadline: float | None = None


class MicroBatcher:
    """Coalesce scalar evaluations into vectorised engine calls.

    Parameters
    ----------
    engine:
        The :class:`~repro.service.engine.EvalEngine` executing flushes.
    max_batch:
        Flush as soon as a batch reaches this many requests (≥ 1).
        ``1`` disables coalescing while keeping the pipeline identical.
    flush_window:
        Seconds a non-full batch may wait for company.  The latency
        floor a lone request pays for batching; ``0`` coalesces only
        within one event-loop iteration.
    metrics:
        Registry recording the batch-size distribution under
        ``batch_size`` and flush count under ``engine_flushes``; a
        private one when omitted.
    execute:
        Optional *async* batch executor.  When set, a flush awaits
        ``execute(machine, model, metric, intensities)`` from its own
        task instead of calling the engine inline — this is how the
        sharded worker pool takes batch evaluation off the event loop.
        ``None`` (the default) keeps the original in-loop path, used by
        ``workers=0`` servers and asserted byte-identical by the shard
        equivalence tests.
    cost:
        Optional :class:`~repro.service.costmodel.CostPredictor`.  When
        set, every flush's wall time is observed into it, and
        submissions carrying a ``deadline`` get deadline-aware batch
        sizing (see the module docstring).
    """

    def __init__(
        self,
        engine: "EvalEngine",
        *,
        max_batch: int = 64,
        flush_window: float = 0.001,
        metrics: MetricsRegistry | None = None,
        execute: BatchExecutor | None = None,
        cost: "CostPredictor | None" = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if flush_window < 0:
            raise ValueError(f"flush_window must be >= 0, got {flush_window}")
        self.engine = engine
        self.max_batch = max_batch
        self.flush_window = flush_window
        self.cost = cost
        self._execute = execute
        self._pending: dict[BatchKey, _Pending] = {}
        self._flush_tasks: set[asyncio.Task] = set()
        metrics = metrics or MetricsRegistry()
        self._batch_hist = metrics.histogram("batch_size", track_values=True)
        self._flush_counter = metrics.counter("engine_flushes")

    # ------------------------------------------------------------------

    @property
    def pending_requests(self) -> int:
        """Requests currently queued and not yet flushed."""
        return sum(len(p.futures) for p in self._pending.values())

    def submit(
        self,
        machine: str,
        model: str,
        metric: str,
        intensity: float,
        *,
        deadline: float | None = None,
    ) -> asyncio.Future:
        """Enqueue one scalar evaluation; resolves to a ``float``.

        The returned future completes when its batch flushes.  If the
        engine rejects the batch (unknown machine/metric, out-of-domain
        intensity), every member future receives the exception.

        ``deadline`` is an absolute loop time this request must be
        answered by; with a cost predictor attached it drives
        deadline-aware batch sizing (ignored otherwise).
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        key = (machine, model, metric)
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _Pending()
            if self.max_batch > 1:
                if self.flush_window > 0:
                    pending.timer = loop.call_later(
                        self.flush_window, self.flush, key
                    )
                    pending.timer_at = loop.time() + self.flush_window
                else:
                    pending.timer = loop.call_soon(self.flush, key)
                    pending.timer_at = loop.time()
        pending.intensities.append(intensity)
        pending.futures.append(future)
        if deadline is not None and (
            pending.deadline is None or deadline < pending.deadline
        ):
            pending.deadline = deadline
        if len(pending.futures) >= self.max_batch:
            self.flush(key)
        elif self.cost is not None and pending.deadline is not None:
            self._resize_for_deadline(loop, key, pending)
        return future

    def _resize_for_deadline(
        self, loop: asyncio.AbstractEventLoop, key: BatchKey, pending: _Pending
    ) -> None:
        """Close or re-time the batch so its earliest deadline holds.

        The latest safe flush instant is the earliest member deadline
        minus the predicted service time of the batch *as it stands*
        (scaled by :data:`DEADLINE_MARGIN`).  Past it, flush now; before
        it, pull the flush timer forward if the fixed window would
        fire too late.  The window still caps the wait — deadline
        sizing only ever flushes *earlier* than the window would.
        """
        predicted = self.cost.predict(
            "eval", key[0], key[1], len(pending.futures)
        )
        latest = pending.deadline - predicted * DEADLINE_MARGIN
        now = loop.time()
        if latest <= now:
            self.flush(key)
            return
        if pending.timer_at is not None and latest < pending.timer_at:
            if pending.timer is not None:
                pending.timer.cancel()
            pending.timer = loop.call_later(latest - now, self.flush, key)
            pending.timer_at = latest

    def flush(self, key: BatchKey) -> None:
        """Evaluate and scatter one pending batch (idempotent per key).

        With an async ``execute`` the evaluation runs in its own task
        (tracked for :meth:`drain`); the batch is popped from
        ``_pending`` either way, so a key can never flush twice.
        """
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self._flush_counter.inc()
        self._batch_hist.observe(len(pending.futures))
        intensities = np.asarray(pending.intensities, dtype=float)
        if self._execute is not None:
            task = asyncio.ensure_future(
                self._flush_remote(key, pending, intensities)
            )
            self._flush_tasks.add(task)
            task.add_done_callback(self._flush_tasks.discard)
            return
        started = time.perf_counter()
        try:
            values = self.engine.eval_batch(
                key[0], key[1], key[2], intensities
            )
        except Exception as exc:  # scatter the failure to live waiters
            self._scatter_exception(pending, exc)
            return
        self._observe(key, len(pending.futures), started)
        self._scatter(pending, values)

    async def _flush_remote(
        self, key: BatchKey, pending: _Pending, intensities: np.ndarray
    ) -> None:
        """Await the executor (worker-pool submit) and scatter."""
        started = time.perf_counter()
        try:
            values = await self._execute(key[0], key[1], key[2], intensities)
        except Exception as exc:  # noqa: BLE001 - scattered, not raised
            self._scatter_exception(pending, exc)
            return
        self._observe(key, len(pending.futures), started)
        self._scatter(pending, np.asarray(values))

    def _observe(self, key: BatchKey, size: int, started: float) -> None:
        """Report one flush's wall time to the cost predictor."""
        if self.cost is not None:
            self.cost.observe(
                "eval", key[0], key[1], size, time.perf_counter() - started
            )

    @staticmethod
    def _scatter(pending: _Pending, values: np.ndarray) -> None:
        for future, value in zip(pending.futures, values.tolist()):
            # A waiter may have been cancelled by its deadline while the
            # batch was queued; its slot is simply dropped.
            if not future.done():
                future.set_result(value)

    @staticmethod
    def _scatter_exception(pending: _Pending, exc: Exception) -> None:
        for future in pending.futures:
            if not future.done():
                future.set_exception(exc)

    async def drain(self) -> None:
        """Flush everything still queued (graceful-shutdown path).

        Waits for remote flush tasks too, so a draining server knows
        every waiter has its result (or error) before the worker pool
        shuts down.
        """
        while self._pending or self._flush_tasks:
            for key in list(self._pending):
                self.flush(key)
            if self._flush_tasks:
                await asyncio.gather(
                    *list(self._flush_tasks), return_exceptions=True
                )
            # Timers were cancelled by flush; yield once so any waiters
            # scheduled in this iteration observe their results.
            await asyncio.sleep(0)
