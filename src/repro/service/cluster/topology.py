"""Deterministic routing: key slots, HRW worker assignment, slot namespaces.

The cluster partitions each logical namespace's key space into a fixed
number of **slots** — ``slot_for_key`` is a stable splitmix64 hash, so
every router and every coordinator agrees on a key's slot without
communication, exactly like the paper's shared-seed coordination.  Each
slot maps to one worker-side namespace (``web`` slot 3 → ``web--s003``),
which keeps the per-worker stores key-disjoint *per slot*: a worker's
slot-namespace bundle covers precisely one slot, so the coordinator can
merge one bundle per slot into the exact full-stream answer, and two
replicas of the same slot are interchangeable rather than mergeable
(merging them would double-count every key — the exact-merge duplicate
guard would raise).

Slot→worker assignment uses rendezvous (highest-random-weight) hashing:
each (slot, worker) pair gets a deterministic 64-bit score and the slot
lives on its top-``replication`` scorers.  HRW gives minimal movement —
when a worker joins or leaves, only the slots whose top-R set actually
changed move — with no central assignment table to keep consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Sequence

import numpy as np

from repro.ranks.hashing import (
    _key_to_int,
    _MASK64,
    as_key_array,
    key_array_to_uint64,
    splitmix64,
    splitmix64_array,
)
from repro.service.config import NamespaceConfig

__all__ = [
    "ClusterTopology",
    "parse_slot_namespace",
    "partition_by_slot",
    "slot_for_key",
    "slot_namespace",
    "slot_namespace_configs",
    "slots_for_keys",
]

# Domain-separation constants: slot hashing and HRW scoring must not
# collide with the rank-assignment salts the samplers derive from the
# same splitmix64 family.
_SLOT_SALT = 0x510C_A11E_D000_0001
_HRW_SALT = 0x4852_5700_C0DE_0002


def slot_for_key(key: Hashable, n_slots: int, salt: int = 0) -> int:
    """The slot a key routes to; stable across processes and runs."""
    mixed = splitmix64(_key_to_int(key) ^ splitmix64((salt ^ _SLOT_SALT) & _MASK64))
    return mixed % n_slots


def slots_for_keys(
    keys: Sequence[Hashable] | np.ndarray, n_slots: int, salt: int = 0
) -> np.ndarray:
    """Vectorized :func:`slot_for_key` over a batch of keys.

    Bit-identical to ``[slot_for_key(k, n_slots, salt) for k in keys]``:
    numeric key arrays take the vectorized splitmix64 path, strings and
    other objects fall back to the per-key hash.
    """
    arr = as_key_array(keys)
    ints = key_array_to_uint64(arr)
    if ints is None:
        return np.array(
            [slot_for_key(key, n_slots, salt) for key in arr.tolist()],
            dtype=np.int64,
        )
    mixed = splitmix64_array(
        ints ^ np.uint64(splitmix64((salt ^ _SLOT_SALT) & _MASK64))
    )
    return (mixed % np.uint64(n_slots)).astype(np.int64)


def partition_by_slot(
    slots: np.ndarray, n_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of a batch by slot: ``(order, bounds)``.

    ``order[bounds[s]:bounds[s + 1]]`` are the event indices of slot
    ``s`` in ascending (stream) order — one stable sort plus boundary
    slices instead of one full-batch mask per slot.  Narrowing the ids
    to the smallest dtype holding ``n_slots`` lets the stable radix sort
    do 1-2 byte passes instead of 8.
    """
    ids = slots.astype(np.uint8 if n_slots <= 1 << 8 else np.uint16)
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(n_slots + 1))
    return order, bounds


def slot_namespace(namespace: str, slot: int) -> str:
    """The worker-side namespace holding one slot of a logical namespace."""
    if slot < 0 or slot > 999:
        raise ValueError(f"slot must be in [0, 999], got {slot}")
    return f"{namespace}--s{slot:03d}"


def parse_slot_namespace(name: str) -> tuple[str, int] | None:
    """Invert :func:`slot_namespace`; ``None`` for non-slot namespaces."""
    base, sep, tail = name.rpartition("--s")
    if not sep or not base or len(tail) != 3 or not tail.isdigit():
        return None
    return base, int(tail)


def slot_namespace_configs(
    base: NamespaceConfig, n_slots: int
) -> tuple[NamespaceConfig, ...]:
    """Expand one logical namespace into its per-slot worker namespaces.

    Every slot namespace keeps the base coordination fields (``k``,
    ``salt``, ``family``, assignments) — that is what makes the per-slot
    sketches exactly mergeable back into the logical namespace's answer.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    return tuple(
        replace(base, name=slot_namespace(base.name, slot))
        for slot in range(n_slots)
    )


@dataclass(frozen=True)
class ClusterTopology:
    """Slot count, replication factor, and the HRW assignment function."""

    n_slots: int = 16
    replication: int = 1
    salt: int = 0

    def __post_init__(self) -> None:
        if self.n_slots < 1 or self.n_slots > 1000:
            raise ValueError(f"n_slots must be in [1, 1000], got {self.n_slots}")
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )

    def slot_for_key(self, key: Hashable) -> int:
        return slot_for_key(key, self.n_slots, self.salt)

    def slots_for_keys(self, keys) -> np.ndarray:
        return slots_for_keys(keys, self.n_slots, self.salt)

    def score(self, slot: int, worker_id: str) -> int:
        """The (slot, worker) rendezvous score; higher wins the slot."""
        slot_mix = splitmix64((slot ^ _HRW_SALT ^ self.salt) & _MASK64)
        return splitmix64(slot_mix ^ _key_to_int(worker_id))

    def slot_owners(
        self, slot: int, workers: Sequence[str]
    ) -> tuple[str, ...]:
        """The workers holding ``slot``, best scorer first.

        Returns at most ``replication`` distinct workers (fewer when the
        cluster is smaller than the replication factor).  Ties — already
        astronomically unlikely — break on worker id so every caller
        agrees.
        """
        if slot < 0 or slot >= self.n_slots:
            raise ValueError(f"slot must be in [0, {self.n_slots}), got {slot}")
        distinct = sorted(set(workers))
        ranked = sorted(distinct, key=lambda w: (-self.score(slot, w), w))
        return tuple(ranked[: self.replication])

    def assignment(
        self, workers: Sequence[str]
    ) -> dict[int, tuple[str, ...]]:
        """Every slot's owner tuple for the given membership."""
        return {
            slot: self.slot_owners(slot, workers)
            for slot in range(self.n_slots)
        }

    def to_json(self) -> dict:
        return {
            "n_slots": self.n_slots,
            "replication": self.replication,
            "salt": self.salt,
        }

    @classmethod
    def from_json(cls, row: dict) -> "ClusterTopology":
        return cls(
            n_slots=int(row.get("n_slots", 16)),
            replication=int(row.get("replication", 1)),
            salt=int(row.get("salt", 0)),
        )
