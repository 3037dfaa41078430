"""Deterministic routing: key slots, HRW assignment, slot namespaces.

Pure unit tests — no sockets.  The properties that make the cluster's
exactness story possible: every router computes the same slot for a key
(scalar == vectorized, bit-for-bit), HRW assignment is deterministic,
yields ``replication`` distinct owners, and moves only the slots whose
top-R set actually changed when membership changes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.cluster.topology import (
    ClusterTopology,
    parse_slot_namespace,
    slot_for_key,
    slot_namespace,
    slot_namespace_configs,
    slots_for_keys,
)
from repro.service.config import NamespaceConfig

WORKERS = [f"w{i}" for i in range(1, 6)]


class TestSlotHashing:
    def test_slot_is_stable_and_in_range(self):
        for key in ("user:17", 42, (3, "pair"), -9, 2**63):
            slot = slot_for_key(key, 16)
            assert 0 <= slot < 16
            assert slot == slot_for_key(key, 16)  # deterministic

    def test_salt_changes_the_partition(self):
        keys = list(range(200))
        base = [slot_for_key(k, 16, salt=0) for k in keys]
        salted = [slot_for_key(k, 16, salt=7) for k in keys]
        assert base != salted

    def test_vectorized_matches_scalar_for_numeric_keys(self):
        keys = np.arange(-500, 500, dtype=np.int64)
        vec = slots_for_keys(keys, 32)
        scalar = [slot_for_key(int(k), 32) for k in keys]
        assert vec.tolist() == scalar

    def test_vectorized_matches_scalar_for_string_and_mixed_keys(self):
        keys = ["alpha", "beta", 7, ("t", 1), "alpha2"]
        vec = slots_for_keys(keys, 8)
        assert vec.tolist() == [slot_for_key(k, 8) for k in keys]

    @settings(deadline=None, max_examples=30)
    @given(
        keys=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=50),
        n_slots=st.integers(1, 64),
        salt=st.integers(0, 2**32),
    )
    def test_vectorized_matches_scalar_property(self, keys, n_slots, salt):
        vec = slots_for_keys(keys, n_slots, salt)
        assert vec.tolist() == [slot_for_key(k, n_slots, salt) for k in keys]

    def test_all_slots_reachable(self):
        # 4 slots over 1000 keys: every slot gets traffic (a dead slot
        # would mean part of the key space routes nowhere)
        slots = {slot_for_key(k, 4) for k in range(1000)}
        assert slots == {0, 1, 2, 3}


class TestSlotNamespaces:
    def test_round_trip(self):
        for namespace in ("web", "a--b", "x--s-ish"):
            for slot in (0, 7, 999):
                name = slot_namespace(namespace, slot)
                assert parse_slot_namespace(name) == (namespace, slot)

    def test_rejects_out_of_range_slots(self):
        with pytest.raises(ValueError):
            slot_namespace("web", -1)
        with pytest.raises(ValueError):
            slot_namespace("web", 1000)

    def test_parse_returns_none_for_plain_namespaces(self):
        for name in ("web", "web--s3", "web--sabc", "--s003", "web--s0030"):
            assert parse_slot_namespace(name) is None

    def test_config_expansion_preserves_coordination_fields(self):
        base = NamespaceConfig(
            "web", ("h1", "h2"), k=32, salt=9
        )
        expanded = slot_namespace_configs(base, 4)
        assert [ns.name for ns in expanded] == [
            "web--s000", "web--s001", "web--s002", "web--s003"
        ]
        for ns in expanded:
            # everything but the name is identical: that is what makes
            # per-slot sketches exactly mergeable across workers
            assert dataclasses.replace(ns, name="web") == base

    def test_config_expansion_rejects_bad_counts(self):
        base = NamespaceConfig("web", ("h1",), k=8)
        with pytest.raises(ValueError):
            slot_namespace_configs(base, 0)


class TestHrwAssignment:
    def test_owners_are_distinct_and_bounded_by_replication(self):
        topo = ClusterTopology(n_slots=16, replication=2)
        for slot in range(16):
            owners = topo.slot_owners(slot, WORKERS)
            assert len(owners) == 2
            assert len(set(owners)) == 2
        # a cluster smaller than R yields what exists
        assert len(topo.slot_owners(0, ["only"])) == 1

    def test_assignment_is_order_and_duplicate_insensitive(self):
        topo = ClusterTopology(n_slots=32, replication=2)
        forward = topo.assignment(WORKERS)
        shuffled = topo.assignment(list(reversed(WORKERS)) + WORKERS[:2])
        assert forward == shuffled

    def test_minimal_movement_on_leave(self):
        # HRW: removing a worker only moves the slots it owned — every
        # other slot keeps its exact owner tuple.
        topo = ClusterTopology(n_slots=64, replication=2)
        before = topo.assignment(WORKERS)
        removed = WORKERS[2]
        after = topo.assignment([w for w in WORKERS if w != removed])
        for slot in range(64):
            if removed not in before[slot]:
                assert after[slot] == before[slot]

    def test_minimal_movement_on_join(self):
        topo = ClusterTopology(n_slots=64, replication=1)
        before = topo.assignment(WORKERS[:3])
        after = topo.assignment(WORKERS[:4])
        newcomer = WORKERS[3]
        for slot in range(64):
            if newcomer not in after[slot]:
                assert after[slot] == before[slot]

    def test_load_spreads_across_workers(self):
        topo = ClusterTopology(n_slots=256, replication=1)
        assignment = topo.assignment(WORKERS)
        per_worker = {w: 0 for w in WORKERS}
        for owners in assignment.values():
            per_worker[owners[0]] += 1
        # 256 slots over 5 workers ≈ 51 each; no worker starved or hot
        assert min(per_worker.values()) > 0
        assert max(per_worker.values()) < 256 // 2

    def test_salt_permutes_the_assignment(self):
        plain = ClusterTopology(n_slots=64, replication=1, salt=0)
        salted = ClusterTopology(n_slots=64, replication=1, salt=12345)
        assert plain.assignment(WORKERS) != salted.assignment(WORKERS)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(n_slots=0)
        with pytest.raises(ValueError):
            ClusterTopology(n_slots=1001)
        with pytest.raises(ValueError):
            ClusterTopology(replication=0)
        topo = ClusterTopology(n_slots=4)
        with pytest.raises(ValueError):
            topo.slot_owners(4, WORKERS)
        with pytest.raises(ValueError):
            topo.slot_owners(-1, WORKERS)

    def test_json_round_trip(self):
        topo = ClusterTopology(n_slots=8, replication=2, salt=3)
        assert ClusterTopology.from_json(topo.to_json()) == topo

    def test_topology_slot_for_key_matches_module_function(self):
        topo = ClusterTopology(n_slots=16, salt=5)
        keys = ["a", "b", 1, 2]
        assert topo.slots_for_keys(keys).tolist() == [
            slot_for_key(k, 16, 5) for k in keys
        ]
