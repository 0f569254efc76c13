"""Keep a hot heap: stop glibc's malloc from unmapping what the next step reuses.

glibc serves a block larger than its *mmap threshold* (128 KiB in a fresh
process) from a fresh mapping, and hands the top of the heap back to the
kernel once more than its *trim threshold* (twice the mmap threshold) is
free there.  Whenever it frees a mapped block larger than the current
mmap threshold, it raises both thresholds to fit that block.  A process's
thresholds therefore depend on the largest block it has happened to free
so far, and that is mostly decided by what it imported.

A loop whose temporaries add up to more than the trim threshold then
pays, on every iteration, for the kernel to unmap and zero-fill the pages
it has just used.  Three such loops live here: a server's request loop
(large curve and grid replies), a worker shard's job loop (a 20k-point
curve, its pickle and its ring copy) and the PowerMon campaign's passes
(:data:`repro.powermon.device.CHUNK_SAMPLES`).  Measured on a 2-vCPU VM
without ``scipy.stats`` imported: a worker job took 53 minor faults and
254 µs instead of 0 and 72 µs, the heavy-pool benchmark's server process
36 faults per request instead of 10, and a 64-points-per-octave fig4
55–75k faults instead of 7k.

:func:`reserve_heap` raises the thresholds on purpose, by allocating and
freeing one block of :data:`RESERVE_BYTES`, instead of by the accident of
an import.  Under another allocator it is one short-lived allocation.
"""

from __future__ import annotations

from functools import cache

__all__ = ["RESERVE_BYTES", "reserve_heap"]

#: The block freed: mmap threshold 1 MiB, trim threshold 2 MiB.  Covers
#: both loops above; 2–16 MiB were no faster on fig4.
RESERVE_BYTES = 1 << 20


@cache
def reserve_heap() -> None:
    """Raise glibc's mmap and trim thresholds to fit :data:`RESERVE_BYTES`.

    Runs once per process; later calls return at once (the FMM study
    opens hundreds of measurement campaigns).
    """
    bytearray(RESERVE_BYTES)
