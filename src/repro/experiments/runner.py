"""Cached execution of registry experiments.

The reproduction's experiments are deterministic functions of (a) the
machine catalog's cost coefficients, (b) the sweep configuration passed
as keyword arguments, and (c) the global measurement seed.  That makes
their results *content-addressable*: hash those inputs and any previous
run with the same hash can be replayed from disk instead of recomputed.

:class:`ExperimentRunner` adds two production conveniences on top of the
registry:

* **Parallelism** — ``jobs > 1`` is passed down to experiments whose
  signature accepts ``jobs`` (the sweep-based ones parallelise their four
  device-precision panels).  Experiments themselves run one after
  another: a process pool across experiments lost to this serial order
  on two cores, since most experiments finish faster than a worker
  process starts.
* **On-disk result cache** — ``cache_dir`` stores each
  :class:`~repro.experiments.registry.ExperimentResult` as JSON under
  its content hash; cache hits skip the measurement campaign entirely.

The CLI exposes both via ``experiment run ID... --jobs N --cache-dir D``.
"""

from __future__ import annotations

import inspect
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro import __version__
from repro._canon import content_hash
from repro.config import DEFAULT_SEED
from repro.exceptions import ExperimentError
from repro.experiments.registry import (
    ExperimentResult,
    get_experiment,
    run_experiment,
)

__all__ = ["ExperimentRunner", "cache_key"]


def _machine_fingerprint() -> dict[str, dict[str, Any]]:
    """Raw cost coefficients of every catalog machine, by key."""
    from repro.machines.catalog import get_machine, list_machines

    fingerprint: dict[str, dict[str, Any]] = {}
    for key, _title in list_machines():
        m = get_machine(key)
        fingerprint[key] = {
            "tau_flop": m.tau_flop,
            "tau_mem": m.tau_mem,
            "eps_flop": m.eps_flop,
            "eps_mem": m.eps_mem,
            "pi0": m.pi0,
            "power_cap": m.power_cap,
        }
    return fingerprint


def cache_key(experiment_id: str, kwargs: dict[str, Any] | None = None) -> str:
    """Content hash of one experiment invocation.

    Keyed by experiment id, its keyword arguments (the sweep
    configuration), the machine catalog's cost coefficients, the global
    measurement seed, and the package version — everything a result is a
    deterministic function of.  ``jobs`` is excluded: parallelism changes
    wall time, never values.
    """
    relevant = {k: v for k, v in (kwargs or {}).items() if k != "jobs"}
    payload = {
        "experiment": experiment_id,
        "kwargs": relevant,
        "machines": _machine_fingerprint(),
        "seed": DEFAULT_SEED,
        "version": __version__,
    }
    return content_hash(payload)


def _accepts_jobs(experiment_id: str) -> bool:
    params = inspect.signature(get_experiment(experiment_id)).parameters
    return "jobs" in params


def _supported_kwargs(
    experiment_id: str, kwargs: dict[str, Any]
) -> dict[str, Any]:
    """Restrict kwargs to the parameters an experiment's signature accepts.

    Lets callers broadcast options to a batch of experiments (e.g. the
    CLI's ``--max-variants``) without every experiment having to declare
    them: an option is forwarded only where the signature names it.
    Filtering happens *before* cache keying, so an inapplicable option
    never fragments an experiment's cache entries.
    """
    params = inspect.signature(get_experiment(experiment_id)).parameters
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return dict(kwargs)
    return {k: v for k, v in kwargs.items() if k in params}


class ExperimentRunner:
    """Execute registry experiments with optional parallelism and caching.

    Parameters
    ----------
    jobs:
        Worker-process budget forwarded to ``jobs``-aware experiments,
        which spread their sweep panels across that many processes.
        ``1`` (default) runs everything in this process.
    cache_dir:
        Directory for the content-addressed result cache; created on
        first use.  ``None`` disables caching.
    """

    def __init__(self, *, jobs: int = 1, cache_dir: str | Path | None = None):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if (
            self.cache_dir is not None
            and self.cache_dir.exists()
            and not self.cache_dir.is_dir()
        ):
            raise ExperimentError(
                f"cache dir {self.cache_dir} exists and is not a directory"
            )

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _cache_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def cache_lookup(self, experiment_id: str, kwargs: dict[str, Any]) -> ExperimentResult | None:
        """Return the cached result for an invocation, if present."""
        path = self._cache_path(cache_key(experiment_id, kwargs))
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
            return ExperimentResult(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                text=payload["text"],
                values={k: float(v) for k, v in payload["values"].items()},
            )
        except (KeyError, ValueError, json.JSONDecodeError):
            # A corrupt entry is a cache miss, not an error.
            return None

    def cache_store(self, result: ExperimentResult, kwargs: dict[str, Any]) -> None:
        """Persist a result under its content hash (atomic write)."""
        path = self._cache_path(cache_key(result.experiment_id, kwargs))
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "text": result.text,
            "values": result.values,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, experiment_id: str, **kwargs: Any) -> ExperimentResult:
        """Run one experiment, consulting the cache first.

        When the experiment's signature accepts ``jobs``, the runner's
        budget is forwarded so its internal sweeps parallelise.  Keyword
        arguments the experiment does not declare are dropped (see
        :func:`_supported_kwargs`).
        """
        kwargs = _supported_kwargs(experiment_id, kwargs)
        cached = self.cache_lookup(experiment_id, kwargs)
        if cached is not None:
            return cached
        call_kwargs = dict(kwargs)
        if self.jobs > 1 and _accepts_jobs(experiment_id):
            call_kwargs.setdefault("jobs", self.jobs)
        result = run_experiment(experiment_id, **call_kwargs)
        self.cache_store(result, kwargs)
        return result

    def run_many(
        self,
        experiment_ids: Sequence[str] | Iterable[str],
        **kwargs: Any,
    ) -> list[ExperimentResult]:
        """Run several experiments, in input order, through :meth:`run`.

        Every id is validated before anything runs.
        """
        ids = list(experiment_ids)
        for experiment_id in ids:
            get_experiment(experiment_id)  # fail fast on unknown ids
        return [self.run(experiment_id, **kwargs) for experiment_id in ids]
