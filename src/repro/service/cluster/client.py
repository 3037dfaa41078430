"""The cluster client: per-worker clients plus the coordinator's verbs.

:class:`ClusterClient` owns one :class:`~repro.service.client.ServiceClient`
per worker (membership and topology from the coordinator's ``/cluster``
view, failed workers filtered out) and passes ingest, estimates and
Jaccard queries through to the coordinator, which is the cluster's only
ingest router: it validates a batch once, partitions it by key slot and
sends every owner worker one frame, marking a replica stale when it
misses a slot.  So every replica of a slot sees the identical,
identically ordered feed, or the coordinator knows it did not — which is
what lets it answer from *either* replica, or say ``partial``.

:meth:`ClusterClient.plan_batch` shows how a batch splits by slot (the
shared stable partition,
:func:`~repro.service.cluster.topology.partition_by_slot`: one sort,
stream order kept within each slot); it routes nothing.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.service.client import ServiceClient
from repro.service.cluster.topology import ClusterTopology, partition_by_slot

__all__ = ["ClusterClient", "ClusterError"]


class ClusterError(Exception):
    """A cluster-level failure: no coordinator attached, or an unknown
    worker."""


class ClusterClient:
    """One HTTP client per worker, and the coordinator's verbs.

    ``workers`` maps worker id → ``(host, port)``.  Extra keyword
    arguments (``timeout``, ``retries``, ...) are passed through to each
    :class:`ServiceClient`.
    """

    def __init__(
        self,
        workers: Mapping[str, tuple[str, int]],
        topology: ClusterTopology | None = None,
        **client_kwargs,
    ) -> None:
        self.topology = topology if topology is not None else ClusterTopology()
        self._client_kwargs = dict(client_kwargs)
        self._clients: dict[str, ServiceClient] = {}
        self._addresses: dict[str, tuple[str, int]] = {}
        self._coordinator: ServiceClient | None = None
        self._owns_coordinator = False
        for worker_id, (host, port) in workers.items():
            self.add_worker(worker_id, host, port)

    @classmethod
    def from_coordinator(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coordinator: ServiceClient | None = None,
        **kwargs,
    ) -> "ClusterClient":
        """Build a client from a live coordinator's ``/cluster`` view.

        Membership, addresses, and topology come from the coordinator;
        failed workers are excluded.  The client keeps the coordinator
        client for ingest, queries and :meth:`refresh` (closing it on
        :meth:`close` only if it created it here).
        """
        router = cls({}, **kwargs)
        if coordinator is not None:
            router._coordinator = coordinator
        else:
            router._coordinator = ServiceClient(
                host, port, **router._client_kwargs
            )
            router._owns_coordinator = True
        router._apply_view(router._coordinator.cluster_status())
        return router

    # -- membership ------------------------------------------------------------

    @property
    def worker_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._clients))

    def client(self, worker_id: str) -> ServiceClient:
        if worker_id not in self._clients:
            raise ClusterError(f"unknown worker {worker_id!r}")
        return self._clients[worker_id]

    def add_worker(self, worker_id: str, host: str, port: int) -> None:
        if not worker_id:
            raise ClusterError("worker id must be non-empty")
        previous = self._clients.pop(worker_id, None)
        if previous is not None:
            previous.close()
        self._clients[worker_id] = ServiceClient(
            host, port, **self._client_kwargs
        )
        self._addresses[worker_id] = (host, int(port))

    def remove_worker(self, worker_id: str) -> bool:
        client = self._clients.pop(worker_id, None)
        self._addresses.pop(worker_id, None)
        if client is None:
            return False
        client.close()
        return True

    def refresh(self) -> dict:
        """Re-fetch membership and topology from the coordinator.

        Failed workers drop out of the routing table; new or re-addressed
        workers get fresh clients; the topology (replication, salt, slot
        count) follows the coordinator's current view.
        """
        if self._coordinator is None:
            raise ClusterError(
                "no coordinator attached; build the client with "
                "ClusterClient.from_coordinator() to enable refresh"
            )
        return self._apply_view(self._coordinator.cluster_status())

    def _apply_view(self, view: dict) -> dict:
        failed = set(view.get("failed_workers", ()))
        rows = {
            row["worker_id"]: row
            for row in view.get("workers", ())
            if row["worker_id"] not in failed
        }
        removed = [w for w in self._clients if w not in rows]
        for worker_id in removed:
            self.remove_worker(worker_id)
        added = []
        for worker_id, row in sorted(rows.items()):
            address = (row["host"], int(row["port"]))
            if self._addresses.get(worker_id) != address:
                if worker_id not in self._addresses:
                    added.append(worker_id)
                self.add_worker(worker_id, *address)
        self.topology = ClusterTopology.from_json(view.get("topology", {}))
        return {
            "ok": True,
            "added": added,
            "removed": removed,
            "workers": list(self.worker_ids),
        }

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        if self._owns_coordinator and self._coordinator is not None:
            self._coordinator.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- slot plan -------------------------------------------------------------

    def plan_batch(
        self, namespace: str, keys: Sequence
    ) -> dict[int, list[int]]:
        """Slot → ascending event indices for one batch (stream order);
        the coordinator's partition, shown, not sent."""
        order, bounds = partition_by_slot(
            self.topology.slots_for_keys(list(keys)), self.topology.n_slots
        )
        return {
            slot: order[bounds[slot]:bounds[slot + 1]].tolist()
            for slot in np.flatnonzero(np.diff(bounds)).tolist()
        }

    # -- coordinator passthrough -----------------------------------------------

    def _require_coordinator(self) -> ServiceClient:
        if self._coordinator is None:
            raise ClusterError(
                "no coordinator attached; build the client with "
                "ClusterClient.from_coordinator() to ingest or query"
            )
        return self._coordinator

    def ingest(
        self,
        namespace: str,
        keys: Sequence,
        weights: Mapping[str, Sequence[float]],
        sync: bool = False,
    ) -> dict:
        """Route one batch through the coordinator: validated whole,
        then one frame per owner worker.  The reply names the slots and
        deliveries, and any ``missed_replicas`` the coordinator marked
        stale; a batch no owner of some slot applied is a 502
        :class:`~repro.service.client.ServiceError`."""
        return self._require_coordinator().ingest(
            namespace, keys, weights, sync=sync
        )

    def estimate(self, namespace: str, function, assignments, **kwargs):
        """One cluster-wide estimate, answered by the coordinator as the
        exact merge of per-slot worker bundles: one conditional
        ``GET /bundle`` per contacted worker, in which a slot whose
        version token the coordinator already holds comes back as an
        ``unchanged`` marker instead of its bytes.  The answer carries
        the trace ID of the request (the response's ``X-Repro-Trace``);
        the coordinator recorded one ``slot-fetch`` span per contacted
        worker under it, and each worker its ``GET /bundle`` span."""
        return self._require_coordinator().estimate(
            namespace, function, assignments, **kwargs
        )

    def jaccard(self, namespace: str, assignments, **kwargs):
        """Cluster-wide Jaccard estimate via the coordinator."""
        return self._require_coordinator().jaccard(
            namespace, assignments, **kwargs
        )

    def __repr__(self) -> str:
        return (
            f"ClusterClient(workers={list(self.worker_ids)!r}, "
            f"topology={self.topology!r})"
        )
