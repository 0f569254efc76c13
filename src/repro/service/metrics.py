"""Embedded metrics for the serving subsystem.

A deliberately small, dependency-free registry of the three classic
instrument kinds — counters, gauges, histograms — sufficient to answer
the capacity questions an operator actually asks of a model server:
request rate and error mix (counters), queue depth (gauges), latency
percentiles and batch-size distribution (histograms).

Everything here runs on the event loop thread, so there are no locks;
observation is a few attribute updates and an append.  Snapshots are
plain nested dicts, JSON-ready for the ``stats`` wire request.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections import deque
from typing import Any, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (requests served, cache hits…)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """An instantaneous level (queue depth, open connections…)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Distribution summary over a bounded reservoir of observations.

    Keeps exact ``count``/``sum``/``min``/``max`` over *all* observations
    plus a sliding window of the most recent ``sample_size`` values for
    percentile estimation — recent-window percentiles are what you want
    on a long-lived server, where last-minute latency matters more than
    the all-time mix.  With ``track_values=True`` it additionally tallies
    exact integer-value counts (bounded), which is the right shape for
    small discrete distributions like micro-batch sizes.
    """

    __slots__ = (
        "count",
        "total",
        "min",
        "max",
        "_sample",
        "_values",
        "_ordered",
    )

    def __init__(self, sample_size: int = 4096, *, track_values: bool = False):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sample: deque[float] = deque(maxlen=sample_size)
        self._values: _TallyCounter[int] | None = (
            _TallyCounter() if track_values else None
        )
        #: Sorted view of ``_sample``, invalidated by ``observe`` and
        #: rebuilt at most once per snapshot — a ``stats`` request asks
        #: for p50/p90/p99 together, and re-sorting the 4096-entry
        #: window per quantile tripled the sort cost on the hot path.
        self._ordered: list[float] | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._sample.append(value)
        self._ordered = None
        if self._values is not None and len(self._values) < 1024:
            self._values[int(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _sorted_window(self) -> list[float]:
        """The sample window, sorted once and cached until dirtied."""
        if self._ordered is None:
            self._ordered = sorted(self._sample)
        return self._ordered

    def percentiles(self, qs: Sequence[float]) -> list[float]:
        """Nearest-rank percentiles over the window, from **one** sort."""
        ordered = self._sorted_window()
        n = len(ordered)
        if not n:
            return [0.0] * len(qs)
        return [ordered[max(0, min(n - 1, int(q / 100.0 * n)))] for q in qs]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the window."""
        return self.percentiles((q,))[0]

    def snapshot(self) -> dict[str, Any]:
        p50, p90, p99 = self.percentiles((50.0, 90.0, 99.0))
        out: dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }
        if self._values is not None:
            out["values"] = {
                str(k): v for k, v in sorted(self._values.items())
            }
        return out


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as one dict."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            inst = self._counters[name] = Counter()
            return inst

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            inst = self._gauges[name] = Gauge()
            return inst

    def histogram(
        self, name: str, *, sample_size: int = 4096, track_values: bool = False
    ) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            inst = self._histograms[name] = Histogram(
                sample_size, track_values=track_values
            )
            return inst

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every instrument, for the ``stats`` request."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self._histograms.items())
            },
        }
