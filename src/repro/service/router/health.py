"""Health-check-driven backend membership for the scale-out router.

One :class:`HealthMonitor` watches every backend the router knows
about.  Two evidence streams feed it:

* **Probes** — a background task pings each backend every ``interval``
  seconds (the router supplies the probe coroutine; it sends a protocol
  ``ping`` over a real connection, so a probe exercises the same path
  requests take).
* **The data path** — the router reports per-request transport failures
  and successes directly, so a backend that stops answering real
  traffic is marked down within ``down_after`` requests even between
  probe ticks.

State machine per backend: ``up`` until ``down_after`` *consecutive*
failures, then ``down`` until the first success (probe or request)
marks it back up.  Mark-down only reorders failover preference — the
ring itself never changes, so placement (and therefore response bytes)
is topology-stable; a down backend is simply tried last, and the
router's replica failover covers the gap.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Iterable

__all__ = ["BackendHealth", "HealthMonitor"]


class BackendHealth:
    """Mutable health record for one backend."""

    __slots__ = (
        "backend",
        "consecutive_failures",
        "failures_total",
        "healthy",
        "mark_downs",
        "mark_ups",
        "probes_total",
        "successes_total",
    )

    def __init__(self, backend: str):
        self.backend = backend
        self.healthy = True
        self.consecutive_failures = 0
        self.failures_total = 0
        self.successes_total = 0
        self.probes_total = 0
        self.mark_downs = 0
        self.mark_ups = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "failures_total": self.failures_total,
            "successes_total": self.successes_total,
            "probes_total": self.probes_total,
            "mark_downs": self.mark_downs,
            "mark_ups": self.mark_ups,
        }


class HealthMonitor:
    """Tracks up/down state for a set of backends.

    Parameters
    ----------
    probe:
        ``async (backend: str) -> bool`` — true on a healthy answer.
        Must not raise; the router's probe wraps its transport errors.
    backends:
        Membership, fixed for the monitor's life (every backend starts
        ``up``).
    interval:
        Seconds between probe rounds.
    down_after:
        Consecutive failures that flip a backend to ``down``.
    """

    def __init__(
        self,
        probe: Callable[[str], Awaitable[bool]],
        backends: Iterable[str] = (),
        *,
        interval: float = 1.0,
        down_after: int = 3,
    ):
        if interval <= 0.0:
            raise ValueError(f"interval must be positive, got {interval}")
        if down_after < 1:
            raise ValueError(f"down_after must be >= 1, got {down_after}")
        self._probe = probe
        self.interval = interval
        self.down_after = down_after
        self._state: dict[str, BackendHealth] = {
            b: BackendHealth(b) for b in backends
        }
        self._task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------

    def record_success(self, backend: str) -> None:
        """A good answer (probe or real request) from ``backend``."""
        state = self._state.get(backend)
        if state is None:
            return
        state.successes_total += 1
        state.consecutive_failures = 0
        if not state.healthy:
            state.healthy = True
            state.mark_ups += 1

    def record_failure(self, backend: str) -> None:
        """A transport failure or failed probe against ``backend``."""
        state = self._state.get(backend)
        if state is None:
            return
        state.failures_total += 1
        state.consecutive_failures += 1
        if state.healthy and state.consecutive_failures >= self.down_after:
            state.healthy = False
            state.mark_downs += 1

    def is_healthy(self, backend: str) -> bool:
        """Unknown backends read as healthy — the ring is authoritative
        for membership; health only orders failover preference."""
        state = self._state.get(backend)
        return state.healthy if state is not None else True

    def healthy_first(self, backends: Iterable[str]) -> list[str]:
        """``backends`` with the healthy ones moved to the front.

        Stable within each class, so the ring's replica order (which is
        what keeps placement deterministic) is preserved — mark-down
        only demotes, it never reshuffles.
        """
        up: list[str] = []
        down: list[str] = []
        for backend in backends:
            (up if self.is_healthy(backend) else down).append(backend)
        return up + down

    # ------------------------------------------------------------------
    # Probe loop
    # ------------------------------------------------------------------

    async def probe_once(self) -> None:
        """One probe round over all tracked backends, concurrently."""
        backends = list(self._state)
        if not backends:
            return
        results = await asyncio.gather(
            *(self._probe(b) for b in backends), return_exceptions=True
        )
        for backend, result in zip(backends, results):
            state = self._state.get(backend)
            if state is None:
                continue  # removed while the probe was in flight
            state.probes_total += 1
            if result is True:
                self.record_success(backend)
            else:
                self.record_failure(backend)

    async def _run(self) -> None:
        while True:
            await self.probe_once()
            await asyncio.sleep(self.interval)

    def start(self) -> None:
        """Launch the background probe loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready per-backend health for the ``stats`` op."""
        return {
            backend: state.snapshot()
            for backend, state in sorted(self._state.items())
        }
