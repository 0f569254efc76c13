"""Worker-pool autoscaling from arrival rate vs. fitted service cost.

The classic sizing identity: a pool of ``W`` workers at target
utilisation ``rho`` sustains ``W * rho / s`` requests per second when
each request costs ``s`` seconds of service.  The server already
measures both inputs — arrival rate from its request counter, ``s``
from the :class:`~repro.service.costmodel.CostPredictor`'s fitted
per-request service time — so the desired worker count is

    desired = clamp(ceil(rate * s / rho), min_workers, max_workers)

:class:`AutoScaler` evaluates that on a fixed interval and drives
:meth:`~repro.service.workers.WorkerPool.resize`, which reuses the
pool's drain machinery: a retiring shard finishes its queued jobs
before its shutdown sentinel runs, so scale-down never drops an
in-flight reply.

State machine
-------------
Three states, reported by :meth:`stats`:

* ``steady`` — desired == current; the low-interval counter resets.
* ``scale_up`` — desired > current: resize **immediately** (queueing is
  already happening; hesitating just builds backlog).
* ``cooldown`` — desired < current: shrink only after
  ``cooldown_intervals`` *consecutive* low readings, so a momentary
  lull between bursts does not thrash worker processes whose boot cost
  is ~a second.

``step()`` is directly awaitable so tests (and the smoke script) can
drive the state machine deterministically without real timers.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from typing import TYPE_CHECKING, Any, Callable

from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.workers import WorkerPool

__all__ = ["AutoScaler", "DEFAULT_TARGET_UTILIZATION"]

#: Sizing headroom: plan for workers to be busy this fraction of the
#: time, leaving the rest for arrival burstiness.
DEFAULT_TARGET_UTILIZATION = 0.75

#: Floor on the fitted per-request service time fed into the sizing
#: identity — a predictor with no observations yet reports optimistic
#: seeds, and a zero would pin ``desired`` at ``min_workers`` forever.
_MIN_SERVICE_SECONDS = 1e-5


class AutoScaler:
    """Periodic worker-pool sizing from observed demand.

    Parameters
    ----------
    pool:
        The :class:`~repro.service.workers.WorkerPool` to resize.
    min_workers, max_workers:
        Inclusive worker-count bounds (``1 <= min <= max``).
    arrivals:
        Callable returning the cumulative request count; per-interval
        deltas become the arrival rate (EWMA-smoothed by ``alpha``).
    service_seconds:
        Callable returning the fitted mean service seconds per request
        (the server wires this to its predicted-cost EWMA).
    interval:
        Seconds between automatic evaluations when started.
    target_utilization:
        ``rho`` in the sizing identity, in (0, 1].
    cooldown_intervals:
        Consecutive low readings required before shrinking.
    alpha:
        Arrival-rate EWMA smoothing factor in (0, 1].
    metrics:
        Registry holding the ``workers_current`` gauge; a private one
        when omitted.
    """

    def __init__(
        self,
        pool: "WorkerPool",
        *,
        min_workers: int,
        max_workers: int,
        arrivals: Callable[[], int],
        service_seconds: Callable[[], float],
        interval: float = 0.25,
        target_utilization: float = DEFAULT_TARGET_UTILIZATION,
        cooldown_intervals: int = 4,
        alpha: float = 0.5,
        metrics: MetricsRegistry | None = None,
    ):
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers ({max_workers}) must be >= "
                f"min_workers ({min_workers})"
            )
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError(
                f"target_utilization must be in (0, 1], "
                f"got {target_utilization}"
            )
        if cooldown_intervals < 1:
            raise ValueError(
                f"cooldown_intervals must be >= 1, got {cooldown_intervals}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.pool = pool
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.interval = interval
        self.target_utilization = target_utilization
        self.cooldown_intervals = cooldown_intervals
        self.alpha = alpha
        self._arrivals = arrivals
        self._service_seconds = service_seconds
        self._last_total = int(arrivals())
        self._rate = 0.0
        self._low_intervals = 0
        self._state = "steady"
        self._steps = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self._errors = 0
        self._task: asyncio.Task | None = None
        self._workers_gauge = (metrics or MetricsRegistry()).gauge(
            "workers_current"
        )
        self._workers_gauge.set(pool.workers)

    # ------------------------------------------------------------------
    # Evaluation (one interval)
    # ------------------------------------------------------------------

    def desired_workers(self) -> int:
        """Worker count the sizing identity asks for right now."""
        service = max(float(self._service_seconds()), _MIN_SERVICE_SECONDS)
        demand = self._rate * service / self.target_utilization
        return min(self.max_workers, max(self.min_workers, math.ceil(demand)))

    async def step(self, elapsed: float | None = None) -> int | None:
        """Evaluate one interval; returns the new count if resized.

        ``elapsed`` defaults to the configured interval — tests pass it
        explicitly to simulate time without waiting.
        """
        self._steps += 1
        dt = self.interval if elapsed is None else float(elapsed)
        total = int(self._arrivals())
        rate = max(0, total - self._last_total) / dt if dt > 0 else 0.0
        self._last_total = total
        self._rate += self.alpha * (rate - self._rate)
        desired = self.desired_workers()
        current = self.pool.workers
        if desired > current:
            self._low_intervals = 0
            self._state = "scale_up"
            await self.pool.resize(desired)
            self._scale_ups += 1
            self._workers_gauge.set(self.pool.workers)
            return desired
        if desired < current:
            self._low_intervals += 1
            if self._low_intervals < self.cooldown_intervals:
                self._state = "cooldown"
                return None
            self._low_intervals = 0
            self._state = "steady"
            await self.pool.resize(desired)
            self._scale_downs += 1
            self._workers_gauge.set(self.pool.workers)
            return desired
        self._low_intervals = 0
        self._state = "steady"
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._task is not None

    def start(self) -> None:
        """Begin periodic evaluation on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the periodic task (idempotent)."""
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            try:
                await self.step(self.interval)
            except asyncio.CancelledError:  # pragma: no cover - teardown
                raise
            except Exception:  # noqa: BLE001 - sizing must not kill serving
                self._errors += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-ready autoscaler state for the ``stats`` operation."""
        return {
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "workers": self.pool.workers,
            "desired": self.desired_workers(),
            "arrival_rate": self._rate,
            "service_seconds": max(
                float(self._service_seconds()), _MIN_SERVICE_SECONDS
            ),
            "state": self._state,
            "steps": self._steps,
            "scale_ups": self._scale_ups,
            "scale_downs": self._scale_downs,
            "errors": self._errors,
        }
