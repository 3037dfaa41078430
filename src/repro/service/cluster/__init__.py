"""Distributed cluster mode: coordinator/worker scale-out, exact answers.

The paper's central property — coordinated bottom-k/Poisson sketches over
key-disjoint shards merge *exactly* — makes horizontal scale-out
semantically free.  This package turns that into a deployment story on
top of the existing single-node daemon:

* :mod:`repro.service.cluster.topology` — the deterministic routing
  layer: a fixed number of key **slots** (stable splitmix64 hash of the
  key), each assigned to ``replication`` workers by rendezvous (HRW)
  hashing, and one worker-side namespace per (logical namespace, slot);
* :mod:`repro.service.cluster.client` — :class:`ClusterClient`: one
  client per worker, with ingest and queries passed through to the
  coordinator;
* :mod:`repro.service.cluster.coordinator` — :class:`CoordinatorService`
  (``repro-serve coordinate``): membership in its own ``runtime.sqlite``
  (join/leave verbs, ``/health`` heartbeats), the only ingest router
  (one frame per owner worker, so replicas receive identical ordered
  feeds and their sketches stay bit-identical, and a replica that
  misses a slot is marked stale), query planning as an exact
  merge of per-slot partials — one conditional ``GET /bundle`` per
  worker, a version-keyed memo of the decoded slot bundles — via
  :meth:`~repro.engine.queries.QueryEngine.from_bundles`, a
  persistent result cache keyed on the vector of worker version tokens,
  bucket handoff through store artifacts on membership changes, and the
  partial-answer contract: a slot with no reachable owner yields
  ``partial: true`` with the missing slots named — never a silently
  wrong estimate.
"""

from repro.service.cluster.client import ClusterClient, ClusterError
from repro.service.cluster.coordinator import (
    CoordinatorConfig,
    CoordinatorService,
    CoordinatorThread,
)
from repro.service.cluster.repair import RepairPlanner
from repro.service.cluster.topology import (
    ClusterTopology,
    parse_slot_namespace,
    partition_by_slot,
    slot_for_key,
    slot_namespace,
    slot_namespace_configs,
    slots_for_keys,
)

__all__ = [
    "ClusterClient",
    "ClusterError",
    "ClusterTopology",
    "CoordinatorConfig",
    "CoordinatorService",
    "CoordinatorThread",
    "RepairPlanner",
    "parse_slot_namespace",
    "partition_by_slot",
    "slot_for_key",
    "slot_namespace",
    "slot_namespace_configs",
    "slots_for_keys",
]
