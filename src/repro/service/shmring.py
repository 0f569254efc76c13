"""Preallocated shared-memory ring arenas for worker job transport.

A per-job :class:`multiprocessing.shared_memory.SharedMemory` segment
costs one ``shm_open``/``mmap``/``shm_unlink`` round per payload.  A
:class:`RingArena` amortises that: it is one shared-memory segment
created *once* per (shard, direction, worker-incarnation), holding a
single slot of :data:`SLOT_SIZE` bytes, through which every job (or
reply) body that fits travels as a single ``memcpy``.  Payloads that do
not fit spill to a per-job segment, so the ring is an optimisation,
never a capacity limit.

Handoff protocol
----------------
The ring carries **bytes only**; ordering and addressing stay on the
existing duplex pipe, whose ``send``/``recv`` syscalls provide the
memory fence between writer and reader.  A writer copies the payload
into the slot, prefixes it with a ``(stamp, length)`` header, and ships
``("ring", length, stamp)`` as the control message.  The reader
validates the slot header against the control message before trusting
the bytes — a mismatch means the slot was overwritten or the peer lost
protocol state, which the pool treats exactly like a worker crash
(respawn + fresh arenas).

One slot per direction is enough: each shard's job/reply roundtrips
are strictly serialised on its one-thread executor, so at most one body
per direction is ever outstanding, and the slot's previous occupant is
always fully consumed before the next write.  The stamp is a
monotonically increasing write counter.  Arena names are deterministic
(``rr-<token>-<shard>-<epoch><direction>``) and owned by the *parent*:
it creates them, passes the names to the worker (which attaches), and
unlinks them on shutdown and on respawn — a crashed worker can never
leak its arenas.
"""

from __future__ import annotations

import struct
from multiprocessing import resource_tracker, shared_memory

__all__ = ["RingArena", "RingError", "SLOT_HEADER_SIZE", "SLOT_SIZE"]

#: Slot header: stamp (u64 write counter), payload length (u32).
_SLOT_HEADER = struct.Struct("<QI")
SLOT_HEADER_SIZE = _SLOT_HEADER.size

#: Bytes per arena, header included: the next power of two above the
#: largest body the perfbench workloads move — a pickled 20 001-point
#: curve reply (two float64 arrays, 320 264 B).  An 8192-point grid job
#: ships as one ndarray (~64 KiB); bigger bodies spill per job.
SLOT_SIZE = 1 << 19


class RingError(RuntimeError):
    """A ring slot failed validation — treated as a worker crash."""


def _unregister(segment: shared_memory.SharedMemory) -> None:
    """Drop a segment from this process's resource tracker.

    Arena lifetime is owned explicitly by the pool parent; without
    this, workers that attach (and exit) would unlink arenas still in
    use, and every exit would warn about already-unlinked names.
    """
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except (AttributeError, NotImplementedError):  # pragma: no cover
        pass  # platforms without a posix resource tracker


class RingArena:
    """One direction of a shard's ring: one fixed-size slot in one segment.

    Single-producer single-consumer; the side that calls :meth:`write`
    must never also :meth:`read` the same arena.  ``create=True`` makes
    the parent the owner (it must eventually call :meth:`unlink`);
    ``create=False`` attaches a worker to an existing arena by name.
    """

    #: Largest payload the slot can carry.
    capacity = SLOT_SIZE - SLOT_HEADER_SIZE

    def __init__(self, name: str, *, create: bool):
        self.name = name
        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=SLOT_SIZE
        )
        # Both creation and attachment register the name with the
        # resource tracker, whose cache is a *set shared across the
        # process tree* — the attach is an idempotent re-add, so only
        # the parent's eventual unlink may unregister it (an attacher
        # unregistering would strand the parent's registration).
        self._next_stamp = 0

    def write(self, payload: bytes) -> tuple[int, int] | None:
        """Copy ``payload`` into the slot.

        Returns the ``(length, stamp)`` pair for the control message,
        or ``None`` when the payload exceeds the slot's capacity (the
        caller spills it per job — the stamp is *not* consumed).
        """
        length = len(payload)
        if length > self.capacity:
            return None
        stamp = self._next_stamp
        self._next_stamp += 1
        _SLOT_HEADER.pack_into(self._shm.buf, 0, stamp, length)
        self._shm.buf[SLOT_HEADER_SIZE : SLOT_HEADER_SIZE + length] = payload
        return length, stamp

    def read(self, length: int, stamp: int) -> memoryview:
        """Validate and expose the slot's payload (zero-copy).

        The returned memoryview aliases the shared buffer; it is valid
        until the writer's next write, which the serialised roundtrip
        guarantees cannot happen before the caller finishes
        deserialising.  Raises :class:`RingError` when the control
        message and the slot header disagree.
        """
        if length > self.capacity:
            raise RingError(
                f"ring control message out of range: length {length}"
            )
        slot_stamp, slot_length = _SLOT_HEADER.unpack_from(self._shm.buf, 0)
        if slot_stamp != stamp or slot_length != length:
            raise RingError(
                f"ring slot stamp mismatch: control says "
                f"(stamp {stamp}, length {length}), slot header says "
                f"(stamp {slot_stamp}, length {slot_length})"
            )
        return self._shm.buf[SLOT_HEADER_SIZE : SLOT_HEADER_SIZE + length]

    def close(self) -> None:
        """Unmap this process's view of the arena."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - an exported view lives
            pass

    def unlink(self) -> None:
        """Remove the segment (owner only; attachment views survive)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            # ``unlink`` unregisters only on success; drop the stale
            # registration so the tracker does not retry at exit.
            _unregister(self._shm)
