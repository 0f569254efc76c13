"""Check registration and parameter expansion.

``register`` collects :class:`~repro.perfreg.check.PerfCheck` classes
into a process-wide table (validated at registration, so a malformed
check fails at import time, not mid-run).  ``expand_checks`` turns
glob patterns into concrete :class:`CheckInstance` objects — one per
point of each matching check's parameter cartesian product — with a
stable, human-readable instance id like
``service.closed_loop[workers=4]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Iterable, Mapping, Sequence, Type

from repro.exceptions import ReproError
from repro.perfreg.check import PerfCheck

__all__ = [
    "CheckInstance",
    "UnknownCheckError",
    "all_checks",
    "clear_registry",
    "expand_checks",
    "instance_id",
    "register",
]

_REGISTRY: dict[str, Type[PerfCheck]] = {}


class UnknownCheckError(ReproError):
    """A ``--checks`` pattern matched nothing in the registry."""


def register(cls: Type[PerfCheck]) -> Type[PerfCheck]:
    """Class decorator: validate and add a check to the registry."""
    check = cls()
    check.validate()
    if check.name in _REGISTRY:
        raise ValueError(f"duplicate check name {check.name!r}")
    _REGISTRY[check.name] = cls
    return cls


def clear_registry() -> None:
    """Drop every registered check (test isolation hook)."""
    _REGISTRY.clear()


def all_checks() -> dict[str, Type[PerfCheck]]:
    """Name -> class for every registered check, import side effects in.

    Importing :mod:`repro.perfreg.checks` here (not at module import)
    keeps the registry module dependency-free for the unit tests that
    register synthetic checks.
    """
    import repro.perfreg.checks  # noqa: F401  - registration side effect

    return dict(sorted(_REGISTRY.items()))


def instance_id(name: str, params: Mapping[str, Any]) -> str:
    """``name[key=value,...]`` with keys sorted — the trajectory key."""
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}[{inner}]"


@dataclass(frozen=True)
class CheckInstance:
    """One concrete (check, parameter point) pair, ready to run."""

    check: PerfCheck
    params: dict[str, Any]

    @property
    def instance_id(self) -> str:
        return instance_id(self.check.name, self.params)

    @property
    def area(self) -> str:
        return self.check.area


def _expand_params(params: Mapping[str, tuple]) -> Iterable[dict[str, Any]]:
    """One dict per point; a ``None`` value leaves its key out, so that
    point has the id (and trajectory) of the check without the param."""
    if not params:
        yield {}
        return
    keys = sorted(params)
    for combo in itertools.product(*(params[k] for k in keys)):
        yield {k: v for k, v in zip(keys, combo) if v is not None}


def expand_checks(
    patterns: Sequence[str] | None = None,
    *,
    registry: Mapping[str, Type[PerfCheck]] | None = None,
) -> list[CheckInstance]:
    """Glob patterns -> parameter-expanded instances, name-sorted.

    ``None`` or an empty sequence selects everything.  Patterns match
    either the bare check name (``service.closed_loop``, globs fine)
    or a full instance id (``service.closed_loop[workers=4]``), so a
    single parameter point can be targeted from the CLI.  A pattern
    that matches nothing raises :class:`UnknownCheckError` — a typo'd
    check name must not silently grade as "all green".
    """
    table = dict(registry) if registry is not None else all_checks()
    instances: list[CheckInstance] = []
    for name in sorted(table):
        check = table[name]()
        for params in _expand_params(check.params):
            instances.append(CheckInstance(check=check, params=params))
    if not patterns:
        return instances
    selected: list[CheckInstance] = []
    matched: set[str] = set()
    for inst in instances:
        for pattern in patterns:
            # Exact instance-id equality comes first: fnmatch would
            # read the id's literal ``[workers=0]`` as a character
            # class, so ``--checks service.closed_loop[workers=0]``
            # must not have to be glob-escaped by hand.
            if (
                inst.instance_id == pattern
                or fnmatchcase(inst.check.name, pattern)
                or fnmatchcase(inst.instance_id, pattern)
            ):
                matched.add(pattern)
                selected.append(inst)
                break
    unmatched = [p for p in patterns if p not in matched]
    if unmatched:
        known = ", ".join(sorted(table)) or "<none>"
        raise UnknownCheckError(
            f"pattern(s) {unmatched} match no registered check; "
            f"known checks: {known}"
        )
    return selected
