"""Run, grade, persist: the engine behind ``repro perfreg``.

``run_checks`` is the whole lifecycle for a set of instances:

1. expand ``--checks`` patterns against the registry;
2. per instance: honour ``skip_reason``, then ``setup`` -> warmup
   repetitions -> measured repetitions (``sanity`` after each) ->
   ``teardown`` (always);
3. aggregate per-metric medians + IQR across the measured reps;
4. grade each metric against the rolling baseline computed from the
   trajectory **as it stood before this run** (a batch of checks in
   one invocation cannot contaminate each other's baselines);
5. apply waivers (``fail`` -> ``warn``, reason attached);
6. append one record per instance to ``BENCH_<area>.json``;
7. fold the worst verdict into the 0/1/2 exit code.

A sanity failure voids the instance: no record is appended (a wrong
answer must never become baseline history) and the run exits 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.perfreg.baseline import (
    DEFAULT_TOLERANCE,
    DEFAULT_WINDOW,
    Baseline,
    Tolerance,
    Verdict,
    exit_code,
    rolling_baseline,
    verdict_for,
    worst,
)
from repro.perfreg.check import SanityError, CheckContext
from repro.perfreg.env import env_fingerprint
from repro.perfreg.methodology import DEFAULT_METHODOLOGY, Methodology
from repro.perfreg.record import MetricStats, RunRecord, metric_stats
from repro.perfreg.registry import CheckInstance, expand_checks
from repro.perfreg.trajectory import (
    Trajectory,
    append_records,
    bench_path,
    load_trajectory,
)
from repro.perfreg.waivers import WAIVER_FILENAME, find_waiver, load_waivers

__all__ = [
    "CheckOutcome",
    "HarnessResult",
    "baseline_table",
    "run_checks",
]


@dataclass(frozen=True)
class CheckOutcome:
    """What happened to one check instance in one harness run."""

    instance_id: str
    area: str
    status: str  # "graded" | "skipped" | "sanity_failed"
    verdict: str  # pass/warn/fail (skips grade as pass)
    verdicts: tuple[Verdict, ...] = ()
    record: RunRecord | None = None
    reason: str = ""

    def summary(self) -> str:
        if self.status == "skipped":
            return f"{self.instance_id}: SKIP ({self.reason})"
        if self.status == "sanity_failed":
            return f"{self.instance_id}: FAIL sanity ({self.reason})"
        parts = ", ".join(
            f"{v.metric}={v.value:g}"
            + (f" ({v.ratio:+.1%} vs {v.baseline:g})" if v.baseline else "")
            for v in self.verdicts
        )
        return f"{self.instance_id}: {self.verdict.upper()} {parts}"


@dataclass(frozen=True)
class HarnessResult:
    """All outcomes of one ``perfreg run`` plus the exit code."""

    outcomes: tuple[CheckOutcome, ...]
    exit_code: int
    env: dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return worst([o.verdict for o in self.outcomes])


def _measure_instance(
    inst: CheckInstance,
    methodology: Methodology,
    clock: Callable[[], float],
) -> tuple[dict[str, MetricStats], int]:
    """Lifecycle + aggregation for one instance; returns (stats, reps)."""
    check = inst.check
    ctx = CheckContext(
        params=dict(inst.params),
        reps=methodology.reps,
        warmup=methodology.warmup,
        clock=clock,
    )
    samples: dict[str, list[float]] = {m.name: [] for m in check.metrics}
    check.setup(ctx)
    try:
        for rep in range(-methodology.warmup, methodology.reps):
            ctx.rep = rep
            values = dict(check.run(ctx))
            missing = [m.name for m in check.metrics if m.name not in values]
            if missing:
                raise SanityError(
                    f"check {check.name!r} did not report metric(s) "
                    f"{missing} (rep {rep})"
                )
            check.sanity(ctx, values)
            if rep < 0:
                continue  # warmup repetitions stay out of the stats
            for metric in check.metrics:
                samples[metric.name].append(float(values[metric.name]))
    finally:
        check.teardown(ctx)
    stats = {
        metric.name: metric_stats(
            samples[metric.name], unit=metric.unit, direction=metric.direction
        )
        for metric in check.metrics
    }
    return stats, methodology.reps


def _grade(
    inst: CheckInstance,
    stats: Mapping[str, MetricStats],
    history: Trajectory,
    env: Mapping[str, Any],
    tolerance: Tolerance,
    window: int,
    waivers,
) -> tuple[list[Verdict], dict[str, Any], str]:
    """Verdict per metric (waivers applied) + the record details block."""
    verdicts: list[Verdict] = []
    details: dict[str, Any] = {}
    for name, stat in stats.items():
        base = rolling_baseline(
            history.records,
            inst.instance_id,
            name,
            window=window,
            env=env,
        )
        verdict = verdict_for(
            stat.median,
            base,
            instance=inst.instance_id,
            metric=name,
            direction=stat.direction,
            tolerance=tolerance,
        )
        if verdict.verdict == "fail":
            waiver = find_waiver(waivers, inst.instance_id, name)
            if waiver is not None:
                verdict = Verdict(
                    instance=verdict.instance,
                    metric=verdict.metric,
                    verdict="warn",
                    ratio=verdict.ratio,
                    value=verdict.value,
                    baseline=verdict.baseline,
                    reason=f"waived: {waiver.reason} ({verdict.reason})",
                )
        verdicts.append(verdict)
        details[name] = {
            "verdict": verdict.verdict,
            "ratio": round(verdict.ratio, 6),
            "baseline": verdict.baseline,
            "reason": verdict.reason,
        }
    return verdicts, details, worst([v.verdict for v in verdicts])


def run_checks(
    patterns: Sequence[str] | None = None,
    *,
    root: str | Path = ".",
    reps: int | None = None,
    warmup: int | None = None,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
    waivers_path: str | Path | None = None,
    clock: Callable[[], float] = time.perf_counter,
    registry: Mapping[str, type] | None = None,
    dry_run: bool = False,
) -> HarnessResult:
    """Execute matching checks and append graded trajectory records.

    ``registry`` and ``clock`` are injection points for the harness's
    own tests (synthetic checks, fake time); production callers leave
    them alone.  ``dry_run`` measures and grades but appends nothing.
    """
    root = Path(root)
    methodology = DEFAULT_METHODOLOGY.with_reps(reps)
    if warmup is not None:
        methodology = Methodology(warmup=warmup, reps=methodology.reps)
    instances = expand_checks(patterns, registry=registry)
    env = env_fingerprint()
    waivers = load_waivers(
        Path(waivers_path) if waivers_path else root / WAIVER_FILENAME
    )
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    histories: dict[str, Trajectory] = {}
    for inst in instances:
        if inst.area not in histories:
            histories[inst.area] = load_trajectory(bench_path(root, inst.area))

    outcomes: list[CheckOutcome] = []
    new_records: dict[str, list[tuple[int, RunRecord]]] = {}
    for index, inst in enumerate(instances):
        skip = inst.check.skip_reason(inst.params)
        if skip is not None:
            outcomes.append(
                CheckOutcome(
                    instance_id=inst.instance_id,
                    area=inst.area,
                    status="skipped",
                    verdict="pass",
                    reason=skip,
                )
            )
            continue
        try:
            stats, measured_reps = _measure_instance(inst, methodology, clock)
        except SanityError as exc:
            outcomes.append(
                CheckOutcome(
                    instance_id=inst.instance_id,
                    area=inst.area,
                    status="sanity_failed",
                    verdict="fail",
                    reason=str(exc),
                )
            )
            continue
        verdicts, details, overall = _grade(
            inst, stats, histories[inst.area], env, tolerance, window, waivers
        )
        record = RunRecord(
            run_id=0,  # assigned on file by append_records
            check=inst.check.name,
            instance=inst.instance_id,
            area=inst.area,
            params=dict(inst.params),
            metrics=dict(stats),
            reps=measured_reps,
            warmup=methodology.warmup,
            env=dict(env),
            timestamp=timestamp,
            verdict=overall,
            details=details,
        )
        outcomes.append(
            CheckOutcome(
                instance_id=inst.instance_id,
                area=inst.area,
                status="graded",
                verdict=overall,
                verdicts=tuple(verdicts),
                record=record,
            )
        )
        new_records.setdefault(inst.area, []).append(
            (len(outcomes) - 1, record)
        )

    if not dry_run:
        for area, pairs in new_records.items():
            written = append_records(
                bench_path(root, area), [record for _, record in pairs]
            )
            for (outcome_index, _), record in zip(pairs, written):
                old = outcomes[outcome_index]
                outcomes[outcome_index] = CheckOutcome(
                    instance_id=old.instance_id,
                    area=old.area,
                    status=old.status,
                    verdict=old.verdict,
                    verdicts=old.verdicts,
                    record=record,
                )

    code = max((exit_code(o.verdict) for o in outcomes), default=0)
    return HarnessResult(
        outcomes=tuple(outcomes), exit_code=code, env=dict(env)
    )


def baseline_table(
    patterns: Sequence[str] | None = None,
    *,
    root: str | Path = ".",
    window: int = DEFAULT_WINDOW,
    registry: Mapping[str, type] | None = None,
) -> list[Baseline]:
    """Current rolling baselines for matching instances (env-agnostic)."""
    root = Path(root)
    baselines: list[Baseline] = []
    for inst in expand_checks(patterns, registry=registry):
        history = load_trajectory(bench_path(root, inst.area))
        for metric in inst.check.metrics:
            base = rolling_baseline(
                history.records, inst.instance_id, metric.name, window=window
            )
            if base is not None:
                baselines.append(base)
    return baselines
