"""Consistent-hash ring with virtual nodes and per-key replication.

The scale-out router places request keys — machine names, the same keys
the in-process worker pool shards on — on a ring of backend server
instances.  Each backend contributes ``vnodes`` virtual points so load
stays balanced even with a handful of backends, and each key maps to
the first ``replication`` *distinct* backends clockwise from its hash,
giving hot machines more than one home without giving up deterministic
placement.

Hashing is :func:`hashlib.blake2b` with an 8-byte digest: stable across
processes, platforms, and ``PYTHONHASHSEED`` (unlike ``hash()``), cheap
enough for a per-request lookup, and long enough that vnode collisions
are a non-issue at any plausible ring size.

Rings are immutable, and placement depends only on the set of
backends, so the minimal-movement property is checkable by building two
rings: adding a backend can only move a key *to* the new backend (its
replica set stays inside ``old ∪ {added}``), and removing one can only
move keys *off* it (the new set covers ``old − {removed}``).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable

__all__ = ["DEFAULT_VNODES", "HashRing", "hash_position"]

#: Virtual points per backend.  128 keeps the max/mean key-share ratio
#: tight (≈1.2 at 3 backends — see tests/service/test_ring.py) while the
#: whole ring stays a few-KiB sorted list.
DEFAULT_VNODES = 128


def hash_position(data: str) -> int:
    """Position of ``data`` on the ``[0, 2**64)`` ring (blake2b-8)."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Immutable consistent-hash ring over named backends.

    Parameters
    ----------
    backends:
        Backend identifiers (``"host:port"`` strings for the router;
        any unique strings work).  Order does not matter — placement
        depends only on the *set* of backends.
    vnodes:
        Virtual points per backend.
    replication:
        Distinct backends returned per key, clamped to the backend
        count at lookup time so a degraded ring still answers.
    """

    __slots__ = ("_backends", "_points", "_positions", "replication", "vnodes")

    def __init__(
        self,
        backends: Iterable[str],
        *,
        vnodes: int = DEFAULT_VNODES,
        replication: int = 1,
    ):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        ordered = sorted(backends)
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate backends: {ordered!r}")
        self._backends: tuple[str, ...] = tuple(ordered)
        self.vnodes = vnodes
        self.replication = replication
        points: list[tuple[int, str]] = []
        for backend in self._backends:
            for i in range(vnodes):
                points.append((hash_position(f"{backend}#{i}"), backend))
        # The backend id breaks position ties (astronomically unlikely
        # with 64-bit digests, but determinism must not hinge on luck).
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def backends(self) -> tuple[str, ...]:
        """Member backends, sorted."""
        return self._backends

    def replicas(self, key: str) -> tuple[str, ...]:
        """Up to ``replication`` distinct backends owning ``key``.

        The first entry is the primary; the rest are the failover order.
        Empty ring → empty tuple.
        """
        if not self._points:
            return ()
        want = min(self.replication, len(self._backends))
        start = bisect_right(self._positions, hash_position(key))
        npoints = len(self._points)
        owners: list[str] = []
        for step in range(npoints):
            backend = self._points[(start + step) % npoints][1]
            if backend not in owners:
                owners.append(backend)
                if len(owners) == want:
                    break
        return tuple(owners)

    def primary(self, key: str) -> str | None:
        """The first replica for ``key``, or ``None`` on an empty ring."""
        owners = self.replicas(key)
        return owners[0] if owners else None

    # ------------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """JSON-ready summary for the ``stats`` op."""
        return {
            "backends": list(self._backends),
            "vnodes": self.vnodes,
            "replication": self.replication,
            "points": len(self._points),
        }

    def __len__(self) -> int:
        return len(self._backends)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashRing(backends={list(self._backends)!r}, "
            f"vnodes={self.vnodes}, replication={self.replication})"
        )
