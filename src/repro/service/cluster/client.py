"""The cluster router: slot-partitioned ingest across workers.

:class:`ClusterClient` owns one :class:`~repro.service.client.ServiceClient`
per worker and routes each ingest batch by key slot: the batch is split
into per-slot sub-batches with the shared stable partition
(:func:`~repro.service.cluster.topology.partition_by_slot` — one sort,
stream order kept within each slot), and every sub-batch is delivered to
*all* of the slot's HRW owners under the slot namespace (``web`` slot 3
→ ``web--s003``).  Delivery is one JSON ``POST /ingest`` per (slot,
owner): the refresh-and-re-route rule below is per (slot, owner), unlike
the coordinator, which coalesces a batch into one binary frame per owner
worker.

Replicas therefore see identical, identically-ordered event feeds.
Because every per-key update the engine applies is a plain float sum in
arrival order, two replicas of a slot end up with bit-identical sketches
— which is what lets the coordinator answer from *either* replica (or
detect loss explicitly) instead of merging them, since merging two copies
of the same keys would trip the exact-merge duplicate guard.

A router built with :meth:`ClusterClient.from_coordinator` stays
attached to the coordinator and can :meth:`~ClusterClient.refresh` its
membership and topology from the live ``/cluster`` view (failed workers
filtered out).  During ingest, a delivery that fails with
``ConnectionRefusedError`` (nothing ever sent) or ``BrokenPipeError``
(the send path failed, so the worker never saw a *complete* request and
a Content-Length-framed server only dispatches complete requests) —
the failures where the request provably was not applied — triggers a
bounded refresh-and-re-route instead of a hard error.  Any *other*
failure (HTTP error, timeout, reset on the response read) still raises:
the sub-batch may already be applied, and blind-retrying a
non-idempotent ``/ingest`` would double-count.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster.topology import (
    ClusterTopology,
    partition_by_slot,
    slot_namespace,
)

__all__ = ["ClusterClient", "ClusterError"]


class ClusterError(Exception):
    """A routing-level failure: no workers, or a delivery that failed."""


class ClusterClient:
    """Routes ingest to slot owners; one HTTP client per worker.

    ``workers`` maps worker id → ``(host, port)``.  Extra keyword
    arguments (``timeout``, ``retries``, ...) are passed through to each
    per-worker :class:`ServiceClient`.
    """

    def __init__(
        self,
        workers: Mapping[str, tuple[str, int]],
        topology: ClusterTopology | None = None,
        *,
        max_refreshes: int = 3,
        refresh_backoff_s: float = 0.05,
        sleep=time.sleep,
        **client_kwargs,
    ) -> None:
        if max_refreshes < 0:
            raise ValueError(
                f"max_refreshes must be >= 0, got {max_refreshes}"
            )
        self.topology = topology if topology is not None else ClusterTopology()
        self.max_refreshes = max_refreshes
        self.refresh_backoff_s = refresh_backoff_s
        self.refreshes = 0
        self.rerouted = 0
        self._sleep = sleep
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
        """Build a router from a live coordinator's ``/cluster`` view.

        Membership, addresses, and topology come from the coordinator;
        failed workers are excluded.  The router keeps the coordinator
        client for later :meth:`refresh` calls (closing it on
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
                "no coordinator attached; build the router with "
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
        self.refreshes += 1
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

    # -- routing ---------------------------------------------------------------

    def _partition(self, keys: Sequence) -> dict[int, np.ndarray]:
        """Slot → ascending event indices, for the slots the batch hits."""
        order, bounds = partition_by_slot(
            self.topology.slots_for_keys(list(keys)), self.topology.n_slots
        )
        return {
            slot: order[bounds[slot]:bounds[slot + 1]]
            for slot in np.flatnonzero(np.diff(bounds)).tolist()
        }

    def plan_batch(
        self, namespace: str, keys: Sequence
    ) -> dict[int, list[int]]:
        """Slot → ascending event indices for one batch (stream order)."""
        return {
            slot: indices.tolist()
            for slot, indices in self._partition(keys).items()
        }

    def ingest(
        self,
        namespace: str,
        keys: Sequence,
        weights: Mapping[str, Sequence[float]],
        sync: bool = False,
    ) -> dict:
        """Route one batch: each slot's sub-batch goes to all its owners.

        A failed delivery raises :class:`ClusterError` naming the worker
        and slot; earlier sub-batches may already be applied, so callers
        that need all-or-nothing semantics must treat a raise as fatal
        for the batch (re-sending would double-apply the delivered
        slots).
        """
        keys = list(keys)
        weights = {
            name: np.asarray(values, dtype=float)
            for name, values in weights.items()
        }
        for name, values in weights.items():
            if values.shape != (len(keys),):
                raise ValueError(
                    f"weights[{name!r}] has {len(values)} values for "
                    f"{len(keys)} keys"
                )
        if not keys:
            return {"ok": True, "events": 0, "slots": 0, "deliveries": 0}
        if not self.worker_ids:
            raise ClusterError("cluster has no workers")
        deliveries = 0
        refreshes_left = (
            self.max_refreshes if self._coordinator is not None else 0
        )
        plan = self._partition(keys)
        # an object array gathers each slot's keys as the values given
        key_array = np.empty(len(keys), dtype=object)
        key_array[:] = keys
        for slot, indices in plan.items():  # ascending slot order
            sub_keys = key_array[indices].tolist()
            sub_weights = {
                name: values[indices].tolist()
                for name, values in weights.items()
            }
            target = slot_namespace(namespace, slot)
            # ``delivered`` guards the re-route path: after a topology
            # refresh the slot's owner set is recomputed, and only owners
            # that have NOT already applied this sub-batch are fed —
            # a replica never sees the same sub-batch twice.
            delivered: set[str] = set()
            pending = list(self.topology.slot_owners(slot, self.worker_ids))
            while pending:
                owner = pending.pop(0)
                if owner in delivered or owner not in self._clients:
                    continue
                try:
                    self._clients[owner].ingest(
                        target, sub_keys, sub_weights, sync=sync
                    )
                except (ConnectionRefusedError, BrokenPipeError) as exc:
                    # the re-routable failures: refused means nothing was
                    # sent; broken pipe means the send path failed, so
                    # the worker never held a complete request to apply —
                    # re-planning cannot double-apply anything
                    if refreshes_left <= 0:
                        raise ClusterError(
                            f"delivery to worker {owner!r} refused for "
                            f"slot {slot} of {namespace!r} and the "
                            f"refresh budget is spent: {exc}"
                        ) from exc
                    refreshes_left -= 1
                    backoff = self.refresh_backoff_s * (
                        self.max_refreshes - refreshes_left
                    )
                    if backoff > 0:
                        self._sleep(backoff)
                    self.refresh()
                    self.rerouted += 1
                    pending = [
                        w
                        for w in self.topology.slot_owners(
                            slot, self.worker_ids
                        )
                        if w not in delivered
                    ]
                    # feed surviving replicas before re-trying the owner
                    # that just refused (it may still be in the view if
                    # the coordinator has not promoted it yet)
                    if owner in pending:
                        pending.remove(owner)
                        pending.append(owner)
                    if not pending:
                        raise ClusterError(
                            f"slot {slot} of {namespace!r} has no "
                            f"reachable owner after refresh"
                        ) from exc
                    continue
                except (ServiceError, OSError) as exc:
                    raise ClusterError(
                        f"delivery to worker {owner!r} failed for slot "
                        f"{slot} of {namespace!r}: {exc}"
                    ) from exc
                delivered.add(owner)
                deliveries += 1
        return {
            "ok": True,
            "events": len(keys),
            "slots": len(plan),
            "deliveries": deliveries,
        }

    # -- queries (coordinator passthrough) -------------------------------------

    def _require_coordinator(self) -> ServiceClient:
        if self._coordinator is None:
            raise ClusterError(
                "no coordinator attached; build the router with "
                "ClusterClient.from_coordinator() to enable queries"
            )
        return self._coordinator

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

    def rotate_all(self) -> dict:
        """Ask every worker to flush its live windows into its store."""
        rotated = {}
        for worker_id in self.worker_ids:
            rotated[worker_id] = self._clients[worker_id].rotate()
        return {"ok": True, "workers": rotated}

    def __repr__(self) -> str:
        return (
            f"ClusterClient(workers={list(self.worker_ids)!r}, "
            f"topology={self.topology!r})"
        )
