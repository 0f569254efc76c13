"""``reserve_heap``: a loop's temporaries are recycled, not re-faulted."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Four 100 kB temporaries per step: each under glibc's initial 128 KiB
#: mmap threshold, together over its 256 KiB trim threshold.
LOOP = """\
import resource
{setup}
def step():
    blocks = [bytearray(100_000) for _ in range(4)]
    del blocks
step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _faults(setup: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", LOOP.format(setup=setup)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return int(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_reserved_heap_is_not_trimmed_between_steps():
    assert _faults("") > 50 * 4  # every step maps its pages afresh
    assert _faults("from repro._heap import reserve_heap; reserve_heap()") < 50
