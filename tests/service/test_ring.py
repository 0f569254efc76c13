"""The consistent-hash ring: determinism, balance, minimal movement.

Three properties carry the router's correctness story:

* **Cross-process determinism.**  Placement is a pure function of the
  backend set — pinned against literal blake2b vectors, so a routing
  decision made in one process (or on another machine) is the same
  decision everywhere, independent of ``PYTHONHASHSEED``, insertion
  order, or construction history.
* **Balance.**  With the default 128 vnodes, no backend's key share
  strays far from fair — the property that makes "add a backend" mean
  "add capacity" rather than "add a hot spot".
* **Minimal movement.**  Adding a backend only moves keys *to* it;
  removing one only moves keys *off* it — checked by building the old
  and the new ring from scratch, since placement depends only on the
  backend set.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.router.ring import DEFAULT_VNODES, HashRing, hash_position

#: Literal blake2b-8 positions, computed once and pinned.  If these
#: move, every deployed ring disagrees with every other — that is a
#: wire-protocol break, not a refactor.
PINNED_POSITIONS = {
    "gtx580-double": 13269150992508940239,
    "i7-950-double": 5209637376596931641,
    "127.0.0.1:8733#0": 9000402549012748839,
}

BACKENDS = ("10.0.0.1:8733", "10.0.0.2:8733", "10.0.0.3:8733")

#: A key population: machine-name routing keys plus composite strings.
KEYS = tuple(f"machine-{i}" for i in range(400)) + tuple(
    f"machine-{i}\x1fmodel-{j}" for i in range(100) for j in range(4)
)

backend_sets = st.sets(
    st.text(
        alphabet="abcdefghijklmnop0123456789.:", min_size=1, max_size=12
    ),
    min_size=1,
    max_size=8,
)
keys = st.text(min_size=0, max_size=24)


class TestDeterminism:
    def test_pinned_hash_vectors(self):
        for data, position in PINNED_POSITIONS.items():
            assert hash_position(data) == position

    def test_placement_independent_of_insertion_order(self):
        forward = HashRing(BACKENDS, replication=2)
        backward = HashRing(reversed(BACKENDS), replication=2)
        for key in KEYS[:200]:
            assert forward.replicas(key) == backward.replicas(key)

    def test_placement_independent_of_construction_history(self):
        """Built from a tuple, a set or a generator: same answers."""
        fresh = HashRing(BACKENDS, replication=2)
        for source in (set(BACKENDS), (b for b in BACKENDS)):
            other = HashRing(source, replication=2)
            for key in KEYS[:200]:
                assert fresh.replicas(key) == other.replicas(key)

    @given(backends=backend_sets, key=keys)
    @settings(max_examples=100, deadline=None)
    def test_replicas_distinct_and_bounded(self, backends, key):
        ring = HashRing(backends, replication=3, vnodes=8)
        owners = ring.replicas(key)
        assert len(owners) == len(set(owners))
        assert len(owners) == min(3, len(backends))
        assert set(owners) <= set(backends)
        assert ring.primary(key) == owners[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)
        with pytest.raises(ValueError):
            HashRing(["a"], replication=0)


class TestBalance:
    def test_key_shares_near_fair_at_default_vnodes(self):
        """Max/mean share ≤ 1.35 over 3 backends and 800 keys."""
        ring = HashRing(BACKENDS, vnodes=DEFAULT_VNODES)
        counts = dict.fromkeys(BACKENDS, 0)
        for key in KEYS:
            counts[ring.primary(key)] += 1
        fair = len(KEYS) / len(BACKENDS)
        assert min(counts.values()) >= 0.65 * fair
        assert max(counts.values()) <= 1.35 * fair

    def test_more_vnodes_tighten_the_spread(self):
        def spread(vnodes: int) -> float:
            ring = HashRing(BACKENDS, vnodes=vnodes)
            counts = dict.fromkeys(BACKENDS, 0)
            for key in KEYS:
                counts[ring.primary(key)] += 1
            return max(counts.values()) / min(counts.values())

        assert spread(DEFAULT_VNODES) < spread(1)


def moved(old: HashRing, new: HashRing) -> list[str]:
    """The keys whose replica set differs between two rings."""
    return [key for key in KEYS if old.replicas(key) != new.replicas(key)]


class TestMinimalMovement:
    @given(backends=backend_sets, key=keys)
    @settings(max_examples=100, deadline=None)
    def test_add_moves_keys_only_to_the_new_backend(self, backends, key):
        added = "zz-new:1"
        old = HashRing(backends, replication=2, vnodes=8)
        new = HashRing([*backends, added], replication=2, vnodes=8)
        assert set(new.replicas(key)) <= set(old.replicas(key)) | {added}

    @given(backends=st.sets(st.sampled_from(BACKENDS), min_size=2), key=keys)
    @settings(max_examples=100, deadline=None)
    def test_remove_moves_keys_only_off_the_removed_backend(
        self, backends, key
    ):
        removed = sorted(backends)[0]
        old = HashRing(backends, replication=2, vnodes=8)
        new = HashRing(backends - {removed}, replication=2, vnodes=8)
        assert set(new.replicas(key)) >= set(old.replicas(key)) - {removed}

    def test_moved_fraction_is_small_on_add(self):
        """Adding a 4th backend moves ≈1/4 of primaries, not ≈all."""
        old = HashRing(BACKENDS)
        new = HashRing([*BACKENDS, "10.0.0.4:8733"])
        keys = moved(old, new)
        assert keys and len(keys) <= 0.40 * len(KEYS)
        for key in keys:
            assert new.primary(key) == "10.0.0.4:8733"

    def test_moved_keys_round_trip(self):
        """Removing a backend moves exactly the keys it held."""
        old = HashRing(BACKENDS, replication=2)
        new = HashRing(
            [b for b in BACKENDS if b != BACKENDS[1]], replication=2
        )
        assert set(moved(old, new)) == {
            key for key in KEYS if BACKENDS[1] in old.replicas(key)
        }

    def test_membership_and_describe(self):
        ring = HashRing(BACKENDS)
        assert ring.backends == tuple(sorted(BACKENDS))
        assert len(ring) == 3
        description = ring.describe()
        assert description["points"] == 3 * DEFAULT_VNODES
