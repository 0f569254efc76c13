"""Environment fingerprint attached to every trajectory record.

A perf number without its provenance is noise: 8000 req/s on a 16-core
runner and 8000 req/s on a 2-core laptop are different facts.  The
fingerprint records just enough to (a) explain a step change in a
trajectory and (b) let the baseline reader decide whether history from
a different environment should count (`same_environment`).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Mapping

import repro

__all__ = ["env_fingerprint", "git_sha", "same_environment"]


#: The checkout whose code a run measures: where ``repro`` was imported
#: from, not where its records are written.
_PACKAGE_DIR = Path(repro.__file__).resolve().parent


def git_sha() -> str:
    """HEAD (short) of the checkout ``repro`` was imported from.

    ``"unknown"`` when the package does not sit in a git checkout.  A
    dirty worktree gets a ``-dirty`` suffix so a record can never
    silently claim to be a clean build of its commit.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_PACKAGE_DIR,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=_PACKAGE_DIR,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def env_fingerprint() -> dict[str, Any]:
    """The provenance block stored under ``"env"`` in every record."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": _usable_cores(),
        "git_sha": git_sha(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
    }


#: Fingerprint keys that must agree for two records to be graded
#: against each other.  git sha and argv0 are provenance, not
#: environment; python patch version churn is tolerated via the
#: (major, minor) prefix.
_COMPARABLE_KEYS = ("implementation", "platform", "cpu_count", "usable_cores")


def same_environment(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Should a baseline built on ``a`` grade a run from ``b``?"""
    if any(a.get(key) != b.get(key) for key in _COMPARABLE_KEYS):
        return False
    a_py = str(a.get("python", "")).split(".")[:2]
    b_py = str(b.get("python", "")).split(".")[:2]
    return a_py == b_py
