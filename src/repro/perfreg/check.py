"""The declarative check model.

A *check* is a named, parameterised measurement with a lifecycle:

* ``params`` — a mapping of parameter name to the tuple of values it
  takes; the registry expands the cartesian product into one *instance*
  per combination (the ReFrame idiom).  A ``None`` value leaves the
  parameter out of that instance, so a check that gains a parameter
  keeps its existing trajectory on the ``None`` point.
* ``setup(ctx)`` / ``run(ctx)`` / ``teardown(ctx)`` — ``setup`` builds
  whatever state the measurement needs (geometry, request streams) and
  stashes it on ``ctx.state``; ``run`` performs **one repetition** and
  returns ``{metric_name: value}``; ``teardown`` releases resources.
  The runner calls ``setup`` once, ``run`` once per warmup/measured
  repetition, and ``teardown`` exactly once (even on failure).
* ``sanity(ctx, values)`` — correctness preconditions (bit-identity,
  zero errors).  Raise :class:`SanityError` to invalidate the run: a
  perf number from a wrong answer is worse than no number.
* ``metrics`` — the named quantities ``run`` must report, each with a
  unit and a *direction* so the baseline grader knows which way is a
  regression.

Checks declare; the runner (:mod:`repro.perfreg.harness`) measures,
aggregates, persists, and grades.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.exceptions import ReproError

__all__ = [
    "CheckContext",
    "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER",
    "Metric",
    "PerfCheck",
    "SanityError",
]

#: Direction tokens: which way does a *larger* value point?
HIGHER_IS_BETTER = "higher_is_better"
LOWER_IS_BETTER = "lower_is_better"

_DIRECTIONS = (HIGHER_IS_BETTER, LOWER_IS_BETTER)


class SanityError(ReproError):
    """A check's correctness precondition failed; its numbers are void."""


@dataclass(frozen=True)
class Metric:
    """One named quantity a check reports per repetition."""

    name: str
    unit: str
    direction: str = HIGHER_IS_BETTER

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"metric {self.name!r}: direction must be one of "
                f"{_DIRECTIONS}, got {self.direction!r}"
            )


@dataclass
class CheckContext:
    """Everything one check instance sees while it runs.

    ``clock`` is injectable so the harness's own tests can fabricate
    timings (a fake clock proving a 2x slowdown flips the verdict)
    without patching global state.
    """

    params: Mapping[str, Any]
    reps: int
    warmup: int
    clock: Callable[[], float] = time.perf_counter
    state: dict[str, Any] = field(default_factory=dict)
    #: Repetition index, -warmup .. -1 for warmup reps, 0 .. reps-1 for
    #: measured reps; set by the runner before each ``run`` call.
    rep: int = 0

    def elapsed(self, func: Callable[[], Any]) -> tuple[float, Any]:
        """Time one call of ``func`` on the context clock."""
        started = self.clock()
        value = func()
        return self.clock() - started, value


class PerfCheck:
    """Base class for declarative perf-regression checks.

    Subclasses set the class attributes and override ``run`` (always)
    and ``setup`` / ``teardown`` / ``sanity`` / ``skip_reason`` (as
    needed), then register with
    :func:`repro.perfreg.registry.register`.
    """

    #: Dotted id, ``<area>.<name>`` by convention.
    name: str = ""
    #: Trajectory family: records land in ``BENCH_<area>.json``.
    area: str = ""
    #: Parameter space; the registry expands the cartesian product.
    params: Mapping[str, tuple] = {}
    #: Metrics every ``run`` must report.
    metrics: tuple[Metric, ...] = ()

    def skip_reason(self, params: Mapping[str, Any]) -> str | None:
        """A human-readable reason to skip this instance, or ``None``.

        The environment gate (a GPU test without a GPU): skipped
        instances produce no record and no verdict.
        """
        return None

    def setup(self, ctx: CheckContext) -> None:
        """Build per-instance state; runs once before any repetition."""

    def run(self, ctx: CheckContext) -> Mapping[str, float]:
        """One repetition; returns a value for every declared metric."""
        raise NotImplementedError

    def teardown(self, ctx: CheckContext) -> None:
        """Release per-instance state; runs once, even after failure."""

    def sanity(self, ctx: CheckContext, values: Mapping[str, float]) -> None:
        """Correctness preconditions; raise :class:`SanityError` to void."""

    # -- helpers -----------------------------------------------------------

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"check {self.name!r} declares no metric {name!r}")

    def validate(self) -> None:
        """Structural self-check; the registry calls this on register."""
        if not self.name or "." not in self.name:
            raise ValueError(
                f"check name must be '<area>.<name>', got {self.name!r}"
            )
        if not self.area:
            raise ValueError(f"check {self.name!r} must set an area")
        if not self.metrics:
            raise ValueError(f"check {self.name!r} declares no metrics")
        seen: set[str] = set()
        for metric in self.metrics:
            if metric.name in seen:
                raise ValueError(
                    f"check {self.name!r} declares metric "
                    f"{metric.name!r} twice"
                )
            seen.add(metric.name)
        for key, values in self.params.items():
            if not isinstance(values, tuple) or not values:
                raise ValueError(
                    f"check {self.name!r}: param {key!r} must be a "
                    f"non-empty tuple, got {values!r}"
                )
