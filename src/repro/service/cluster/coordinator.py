"""The cluster coordinator: membership, exact merged queries, handoff.

:class:`CoordinatorService` (``repro-serve coordinate``) is the cluster's
query plane and membership authority.  It keeps no sketch data of its
own — its state is a :class:`~repro.store.runtime.RuntimeStore`
(``runtime.sqlite`` under its root) holding the worker membership table,
the persistent query-result cache, and the routing health bookkeeping —
and it answers a query from one sketch bundle per key slot, merged in
slot order by the worker's own
:class:`~repro.service.planner.QueryPlanner`, for which the coordinator
is the source.  Because slots partition the key space and the bundle
merge is exact, the merged answer is bit-identical to an offline
single-process engine over the union of every ingested event.

The routes are ``CoordinatorService.routes``; ``/query`` speaks the
worker's grammar (:class:`~repro.service.planner.QuerySpec`) minus the
temporal fields, ``/ingest`` takes the worker's JSON body or a
one-section ``event_batch`` frame, through the worker's accept step.

**Query gather.**  The planner's source read is the gather: per query
every contacted worker gets **one** conditional ``GET /bundle`` naming
the slots asked of it and the version token the coordinator already
holds for each, workers in parallel; the reply is one CRC-checked codec
``bundle_batch`` frame in which a slot whose token still matches is an
``unchanged`` marker.  A memo keyed ``(namespace, slot, worker, since,
until)`` keeps each slot's ``(version, decoded bundle)`` — a new version
replaces the old — so a query over unchanged slots moves tokens, not
bundles, and the planner's engine memo still holds the engine merged
from them.  A worker that is unreachable, answers an error or sends a
frame that does not decode did not answer: its slots are re-asked of
their next usable owner.

**Leases.**  Each frame also grants a lease: the seconds for which the
worker promises that none of its tokens moves except by a write this
coordinator sends — until its next bucket boundary or compaction, 0
while it holds an accepted, unapplied ingest batch.  A read that missed
no slot leases its version vector from the fetch's send time for the
shortest lease granted, at most ``heartbeat_s``.  While the lease holds,
:meth:`CoordinatorService.current_version` names that vector, so the
planner's memo step answers a repeated or warm query from the result
cache or the memoized engine on the event loop, with no gather.  The
lease ends early when the epoch moves — on every routed ingest (before
its deliveries and again once they settle), every handoff or repair
rotate, reset and copy, every join, leave and promotion, and every
change to the stale or degraded sets — or when a worker it names closes
this coordinator's keep-alive connections (a stop or a crash).  A write
that does not come through the coordinator (a direct ingest, import,
reset or ``/rotate`` into a slot namespace) shows at the first read
after the lease, at most ``heartbeat_s`` later; a flush or compaction
moves a token, never an answer.

**The partial-answer contract.**  An answer is either exact or loudly
``partial`` — never silently wrong:

* per slot, the first owner asked is the alive one asked for the fewest
  slots so far (slots in order, ties in rendezvous order), so reads
  spread evenly over the replicas; the rest follow alive-marked first,
  rendezvous order otherwise; a slot none of whose owners answers (or
  whose copies are known-stale) is reported in ``missing_slots`` and the
  answer carries ``partial: true``;
* a worker that missed an ingest delivery has a *stale* copy of the
  affected slots; stale copies are never used as query or handoff
  sources (they would under-count, which is silent wrongness);
* a membership change that leaves a slot with no owner holding complete
  data (a dead sole owner leaving, a failed handoff to a displacing
  owner) marks the slot *degraded* — persisted in the runtime tier, so
  the loss survives coordinator restarts — and degraded slots always
  answer partial.

Partial answers are never cached.  Exact answers cache in the runtime
tier's result cache keyed on the **version vector** — the sorted
per-slot ``(slot, worker, version-token)`` triples — so a repeated query
against an unchanged cluster costs an in-memory probe (inside a lease)
or one gather of ``unchanged`` markers, and any ingest, rotation, or
failover that changes which data would be merged changes the key.

**Routed ingest.**  The coordinator is the cluster's only ingest
router.  ``POST /ingest`` validates the whole client batch with the
worker's own accept step (a bad batch is a 400/404/413 with nothing
sent), partitions it once by slot, encodes each slot's section once,
and sends every owner worker **one** codec ``event_batch`` frame
holding, in ascending slot order, the sections of all the slots it owns
— all owners concurrently, batches serialized by the cluster lock.  A
worker accepts or refuses its frame whole, so per routed batch each
worker has one outcome: *ack*, *refused* (it answered 400/404/413/429/
503 and applied nothing) or *unknown* (anything else: it may have
applied some of it).  The staleness rule, persisted before the reply:
per slot, once any owner acked, every owner that did not goes stale
(reply 200 with ``missed_replicas``); a slot no owner acked makes the
reply a 502 naming applied and unapplied slots, and only its
unknown-outcome owners go stale — copies that all refused still agree.
Unknown-outcome workers are also marked dead.

**Handoff.**  Joins and leaves move slots (rendezvous hashing moves only
the slots whose top-``replication`` set actually changed); both are
synchronous — when ``POST /cluster/join`` returns, the worker is a
serving owner of its slots.  A worker
gaining a slot receives the slot's store artifacts from a healthy
current owner: the source rotates (flushing its live window into its
store), the target's copy of the slot is **purged first** (``POST
/bundle/reset`` — leftovers from an earlier ownership epoch are either
outdated or key-duplicated by the incoming copy, and the exact-merge
duplicate guard turns either into a loud error), then the coordinator
fetches each artifact's raw bytes and re-uploads them under a
deterministic ``ho-…`` part name (``POST /bundle``), preserving bucket
structure so later compaction and windowed queries keep working.  The
purge only runs once a source has proven reachable, so the last
complete copy of a slot is never destroyed chasing a dead source; and a
completed handoff doubles as stale-replica repair.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import math
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.obs import bind_parent, current_span
from repro.ranks.hashing import _key_to_int, splitmix64
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import (
    MAX_BATCH_EVENTS,
    DaemonConfig,
    NamespaceConfig,
)
from repro.service.httpbase import (
    DaemonThread,
    HttpServerBase,
    _HttpError,
)
from repro.service.planner import QueryPlanner, QuerySpec, SourceView
from repro.service.cluster.repair import RepairPlanner
from repro.service.cluster.topology import (
    ClusterTopology,
    partition_by_slot,
    slot_namespace,
)
from repro.store.codec import (
    CodecError,
    decode_bundle_batch,
    encode_event_batch,
    encode_event_section,
)

__all__ = ["CoordinatorConfig", "CoordinatorService", "CoordinatorThread"]

_STALE_META = "cluster_stale"
_DEGRADED_META = "cluster_degraded"

#: transport-level failures while talking to a worker: the worker may be
#: dead, unreachable, or mid-crash — route around it
_UNREACHABLE = (OSError, ConnectionError)

#: replies with which a worker refuses an ingest frame *whole*: it
#: validated (400/404/413) or tried to queue (429/503) and applied nothing
_REFUSALS = frozenset({400, 404, 413, 429, 503})

#: socket timeout of bundle fetches, routed ingest and handoff copies
_WORKER_TIMEOUT_S = 30.0

#: connection-failure retries per idempotent worker call
WORKER_RETRIES = 1

#: worker requests in flight at once, over every routed batch and query
#: (the threads of the one long-lived fan-out pool)
_FANOUT = 16

#: decoded slot bundles the query memo keeps, least recently used out first
_MEMO_SLOTS = 4096


@dataclass(frozen=True)
class CoordinatorConfig(DaemonConfig):
    """One coordinator: state root, logical namespaces, topology, knobs."""

    _kind = "coordinator"
    _root_field = "root"

    root: str
    namespaces: tuple[NamespaceConfig, ...]
    host: str = "127.0.0.1"
    port: int = 8900
    n_slots: int = 16
    replication: int = 1
    salt: int = 0
    #: seconds between heartbeat rounds against every worker's /health
    heartbeat_s: float = 2.0
    #: per-probe socket timeout (heartbeats)
    probe_timeout_s: float = 2.0
    #: concurrent liveness probes per heartbeat round (bounded fan-out)
    probe_concurrency: int = 8
    #: grace window: a heartbeat-dead worker is promoted to *failed*
    #: (and its slots re-replicated) once unseen for this many seconds
    fail_after_s: float = 10.0
    #: seconds between self-healing repair ticks; <= 0 disables the
    #: background loop (ticks then only run via POST /repairs/run)
    repair_interval_s: float = 2.0
    #: transient-failure attempts per repair op before it fails for good
    repair_max_attempts: int = 5
    #: re-probe and repair stale-marked copies every tick (not just on
    #: membership churn)
    anti_entropy: bool = True
    #: metrics + tracing on/off (off: no spans, every /status count is 0)
    observability: bool = True
    #: optional JSONL file finished spans are appended to
    trace_log: str | None = None

    def __post_init__(self) -> None:
        self._check_namespaces()
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if self.probe_concurrency < 1:
            raise ValueError("probe_concurrency must be >= 1")
        if self.fail_after_s <= 0:
            raise ValueError("fail_after_s must be positive")
        if self.repair_max_attempts < 1:
            raise ValueError("repair_max_attempts must be >= 1")
        # topology bounds are validated by ClusterTopology itself
        self.topology  # noqa: B018 - constructs, so bad values raise here

    @property
    def topology(self) -> ClusterTopology:
        return ClusterTopology(
            n_slots=self.n_slots,
            replication=self.replication,
            salt=self.salt,
        )


def _handoff_part(source: str, part: str) -> str:
    """Deterministic destination part name for one handed-off artifact.

    Derived from (source worker, original part): re-running the same
    handoff overwrites the same artifact (idempotent), and the name can
    never collide with the destination's own ``live``/checkpoint parts
    or with a different source's copy of an identically named part.
    """
    digest = splitmix64(_key_to_int((source, part)))
    return f"ho-{digest:016x}"


class CoordinatorService(HttpServerBase):
    """The cluster coordinator daemon (see module docstring)."""

    role = "coordinator"
    series_prefix = "repro_cluster_"
    #: the result-cache key prefix of the planner's answers
    cache_prefix = "cluster-"
    counted = {
        **HttpServerBase.counted,
        "ingest_batches": "Client batches routed.",
        "ingested_events": "Client events routed.",
        "partial_answers": "Answers marked partial (a slot went unanswered).",
        "failovers": "Slots answered by an owner other than the first asked.",
        "handoff_artifacts": "Artifacts copied by handoff and repair.",
        "heartbeat_rounds": "Heartbeat rounds run.",
        "promotions": "Workers promoted to failed.",
        "repair_ticks": "Self-healing control-loop passes.",
    }
    #: the planner's engine memo: answered from it, and one merge per
    #: rebuild
    stats_series = {
        "memo_hits": "repro_engine_memo_hits_total",
        "memo_rebuilds": QueryPlanner.stats_series["engine_builds"],
    }

    def __init__(
        self,
        config: CoordinatorConfig,
        clock: Callable[[], float] = time.time,
    ) -> None:
        from repro.store.runtime import RuntimeStore

        super().__init__(config, clock)
        os.makedirs(config.root, exist_ok=True)
        self.runtime = RuntimeStore(config.root)
        self._slot_fetch_seconds = self.metrics.histogram(
            "repro_cluster_slot_fetch_seconds",
            "Latency of one multi-slot bundle fetch from a worker.",
            labelnames=("worker",),
        )
        self._slot_fetches = self.metrics.counter(
            "repro_cluster_slot_fetch_total",
            "Slots asked of workers, by outcome (unchanged, bundle, "
            "empty, failed).",
            labelnames=("outcome",),
        )
        self._delivery_seconds = self.metrics.histogram(
            "repro_cluster_ingest_delivery_seconds",
            "Latency of delivering one ingest frame to a worker.",
            labelnames=("worker",),
        )
        self.topology = config.topology
        self.configs = {ns.name: ns for ns in config.namespaces}
        #: serializes membership changes against routing decisions
        self._cluster_lock = threading.RLock()
        self._fanout = ThreadPoolExecutor(
            max_workers=_FANOUT, thread_name_prefix="repro-fanout"
        )
        #: guards the slot memo
        self._memo_lock = threading.RLock()
        self._slot_memo: OrderedDict[tuple, tuple] = OrderedDict()
        #: the lease epoch: every write this coordinator sends a worker
        #: and every membership or health change moves it (:meth:`_revoke`)
        self._epochs = itertools.count()
        self._epoch = next(self._epochs)
        #: namespace -> (version vector, expiry on ``clock``, epoch at the
        #: read's start, workers named) of its last read
        self._leases: dict[str, tuple] = {}
        self.planner = QueryPlanner(
            source=self, metrics=self.metrics, tracer=self.tracer
        )
        self._clients: dict[str, ServiceClient] = {}
        for row in self.runtime.cluster_workers():
            self._clients[row["worker_id"]] = self._make_client(
                row["host"], row["port"]
            )
        self._stale: dict[str, set[int]] = self._load_meta_map(_STALE_META)
        self._degraded: set[int] = set(self._load_meta_list(_DEGRADED_META))
        self.repairs = RepairPlanner(self)
        # ops left active by a crashed coordinator resume from the top:
        # every repair is an idempotent purge-then-copy
        self.runtime.repair_requeue_active(now=self.clock())
        self._tasks: list[asyncio.Task] = []
        self.routes.update({
            ("GET", "/status"): self._handle_status,
            ("GET", "/cluster"): self._handle_cluster,
            ("POST", "/cluster/join"): self._handle_join,
            ("POST", "/cluster/leave"): self._handle_leave,
            ("POST", "/ingest"): self._handle_ingest,
            ("GET", "/query"): self._handle_query,
            ("POST", "/query"): self._handle_query,
            ("GET", "/repairs"): self._handle_repairs,
            ("POST", "/repairs/run"): self._handle_repairs_run,
        })

    # -- plumbing -------------------------------------------------------------

    def _make_client(self, host: str, port: int) -> ServiceClient:
        return ServiceClient(
            host, port,
            timeout=_WORKER_TIMEOUT_S,
            retries=WORKER_RETRIES,
        )

    def _load_meta_map(self, key: str) -> dict[str, set[int]]:
        raw = self.runtime.get_meta(key)
        if not raw:
            return {}
        return {
            worker: set(slots) for worker, slots in json.loads(raw).items()
        }

    def _load_meta_list(self, key: str) -> list[int]:
        raw = self.runtime.get_meta(key)
        return json.loads(raw) if raw else []

    def _save_health_meta(self) -> None:
        """Persist stale/degraded bookkeeping (call under _cluster_lock);
        a change to either set ends every lease."""
        self._revoke()
        self.runtime.set_meta(_STALE_META, json.dumps({
            worker: sorted(slots)
            for worker, slots in self._stale.items()
            if slots
        }))
        self.runtime.set_meta(_DEGRADED_META, json.dumps(
            sorted(self._degraded)
        ))

    def _revoke(self) -> None:
        """End every lease: the next query reads through a gather."""
        self._epoch = next(self._epochs)

    @contextlib.contextmanager
    def _writing(self):
        """Bracket a write this coordinator sends workers (or a membership
        change): every lease ends before it starts and again once it has
        settled, so a gather that overlaps it cannot lease the state it
        replaced."""
        self._revoke()
        try:
            yield
        finally:
            self._revoke()

    def _worker_rows(self) -> dict[str, dict]:
        return {
            row["worker_id"]: row for row in self.runtime.cluster_workers()
        }

    @staticmethod
    def _member_ids(rows: dict[str, dict]) -> list[str]:
        """Effective membership: registered and not promoted to failed.

        Everything that routes, owns, or serves — ingest fan-out, query
        planning, handoff, repair — sees only these workers; a failed
        row stays in the table purely as bookkeeping until it rejoins
        or leaves.
        """
        return sorted(w for w, row in rows.items() if not row["failed"])

    def _owners(self, slot: int, worker_ids: Sequence[str]) -> tuple[str, ...]:
        if not worker_ids:
            return ()
        return self.topology.slot_owners(slot, worker_ids)

    # -- lifecycle ------------------------------------------------------------

    def _launch(self) -> None:
        self._tasks = [
            asyncio.create_task(self._heartbeat_loop(), name="heartbeat"),
        ]
        if self.config.repair_interval_s > 0:
            self._tasks.append(
                asyncio.create_task(self._repair_loop(), name="repair")
            )

    async def _finish(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._fanout.shutdown(wait=False)
        for client in self._clients.values():
            client.close()
        self.runtime.close()

    async def _heartbeat_loop(self) -> None:
        """Probe every worker's lock-free ``/health`` on a fixed cadence,
        and write the result cache behind."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.heartbeat_s)
            try:
                await loop.run_in_executor(None, self._heartbeat_round)
                self.count["heartbeat_rounds"].inc()
                await loop.run_in_executor(None, self.runtime.cache_flush)
            except asyncio.CancelledError:
                raise
            except Exception as err:  # keep beating; surface via /cluster
                self.last_error = f"heartbeat: {err}"

    def _heartbeat_round(self) -> None:
        """Probe every member concurrently; one hung worker costs one
        ``probe_timeout_s``, not one per member behind it in line."""
        with self._cluster_lock:
            rows = self._worker_rows()
            clients = {
                worker_id: self._clients[worker_id]
                for worker_id in self._member_ids(rows)
                if worker_id in self._clients
            }
        if not clients:
            return

        def probe(item: tuple[str, ServiceClient]) -> tuple[str, bool]:
            worker_id, client = item
            try:
                client.liveness(timeout=self.config.probe_timeout_s)
            except (ServiceError, *_UNREACHABLE):
                return worker_id, False
            return worker_id, True

        workers = min(self.config.probe_concurrency, len(clients))
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-probe"
        ) as pool:
            results = list(pool.map(probe, sorted(clients.items())))
        now = self.clock()
        for worker_id, alive in results:
            self.runtime.cluster_mark(worker_id, alive=alive, now=now)

    async def _repair_loop(self) -> None:
        """Run the self-healing tick on the ``repair_interval_s`` cadence."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.repair_interval_s)
            try:
                await loop.run_in_executor(None, self.repairs.tick)
            except asyncio.CancelledError:
                raise
            except Exception as err:  # keep healing; surface via /repairs
                self.last_error = f"repair: {err}"

    # -- membership + handoff -------------------------------------------------

    def _copy_slot(self, source: str, target: str, slot: int) -> int:
        """Copy one slot's artifacts (every logical namespace) source→target.

        Preserves bucket structure; artifacts land under deterministic
        ``ho-…`` part names, so re-running is an idempotent overwrite.
        Returns the number of artifacts copied; raises on any transport
        or store failure (the caller decides degradation).
        """
        src, dst = self._clients[source], self._clients[target]
        copied = 0
        with self._writing():
            for namespace in self.configs:
                ns = slot_namespace(namespace, slot)
                listing = src.bundle_entries(ns)
                for entry in listing.get("entries", []):
                    blob = src.fetch_artifact(
                        ns, entry["bucket"], entry["part"]
                    )
                    dst.put_bundle(
                        ns, entry["bucket"],
                        _handoff_part(source, entry["part"]),
                        blob, overwrite=True,
                    )
                    copied += 1
        return copied

    def _reset_slot(self, target: str, slot: int) -> None:
        """Purge the target's copy of one slot (every logical namespace)."""
        client = self._clients[target]
        with self._writing():
            for namespace in self.configs:
                client.reset_bundles(slot_namespace(namespace, slot))

    def _rotate(self, source: str) -> None:
        """Flush a handoff or repair source's live windows into its store,
        so the artifacts copied from it cover everything ingested."""
        with self._writing():
            self._clients[source].rotate()

    def _handoff(
        self,
        slots_to_targets: dict[int, list[str]],
        sources_by_slot: dict[int, list[str]],
        covered: dict[int, bool],
    ) -> dict:
        """Copy each slot to its new owners; degrade what cannot be saved.

        Each target is **purged first** (``POST /bundle/reset``): a
        former holder's leftover artifacts are either outdated (they
        missed the deliveries made after ownership moved away) or
        duplicated key-for-key by the incoming copy — either way the
        exact merge would reject or miscount them.  The purge only
        happens after a source has proven reachable (its rotate
        succeeded), so a slot's last complete copy is never destroyed
        chasing a dead source; and a fresh complete copy clears any
        stale marking the target carried for the slot.

        ``covered[slot]`` is True when some *surviving* owner already
        holds the slot's complete data — then a failed copy merely loses
        a replica, not the slot.  A slot that is neither covered nor
        successfully copied to at least one target becomes degraded.
        Call under ``_cluster_lock``.
        """
        copied_total, degraded_now = 0, []
        stale_repaired = False
        rotated: set[str] = set()
        purged: dict[int, set[str]] = {}
        for slot, targets in sorted(slots_to_targets.items()):
            delivered = False
            for target in targets:
                copied_here = False
                for source in sources_by_slot.get(slot, []):
                    if source == target:
                        continue
                    try:
                        if source not in rotated:
                            self._rotate(source)
                            rotated.add(source)
                    except (ServiceError, *_UNREACHABLE):
                        self.runtime.cluster_mark(
                            source, alive=False, now=self.clock()
                        )
                        continue
                    try:
                        if target not in purged.get(slot, set()):
                            self._reset_slot(target, slot)
                            purged.setdefault(slot, set()).add(target)
                    except (ServiceError, *_UNREACHABLE):
                        self.runtime.cluster_mark(
                            target, alive=False, now=self.clock()
                        )
                        break  # target unreachable; try the next target
                    try:
                        copied_total += self._copy_slot(source, target, slot)
                    except (ServiceError, *_UNREACHABLE):
                        self.runtime.cluster_mark(
                            source, alive=False, now=self.clock()
                        )
                        # a partial copy may have landed: purge again
                        # before any other source writes its own parts
                        purged.get(slot, set()).discard(target)
                        continue
                    copied_here = True
                    break
                if copied_here:
                    delivered = True
                    if slot in self._stale.get(target, set()):
                        # the fresh complete copy repairs the stale flag
                        self._stale[target].discard(slot)
                        stale_repaired = True
            if not delivered and not covered.get(slot, False):
                self._degraded.add(slot)
                degraded_now.append(slot)
        if degraded_now or stale_repaired:
            self._save_health_meta()
        self.count["handoff_artifacts"].inc(copied_total)
        return {"artifacts": copied_total, "degraded": sorted(degraded_now)}

    def _join(self, worker_id: str, host: str, port: int) -> dict:
        with self._cluster_lock, self._writing():
            before_rows = self._worker_rows()
            # failed workers are out of effective membership: a rejoin
            # (which clears the failed flag) plans against the survivors
            before = self._member_ids(before_rows)
            rejoining = worker_id in before_rows
            after = sorted(set(before) | {worker_id})
            client = self._make_client(host, port)
            previous = self._clients.pop(worker_id, None)
            if previous is not None:
                previous.close()
            self._clients[worker_id] = client
            # a (re)joining worker is a new token issuer: it may have
            # lost its store, and with it the sequence numbers that keep
            # its version tokens from repeating
            with self._memo_lock:
                for key in [k for k in self._slot_memo if k[2] == worker_id]:
                    del self._slot_memo[key]
            self.planner.forget_engines()
            # and so may the result cache's version vectors naming it
            self.runtime.cache_purge(f":{worker_id}:")
            if rejoining:
                # Conservative: a rejoining worker may have crashed and
                # lost its un-flushed live windows, so every slot it
                # owns is stale until a fresh handoff path exists (none
                # in this release — replicas or handed-off copies serve).
                owned = {
                    slot
                    for slot in range(self.topology.n_slots)
                    if worker_id in self._owners(slot, after)
                }
                self._stale[worker_id] = (
                    self._stale.get(worker_id, set()) | owned
                )
                self._save_health_meta()
                self.runtime.cluster_join(
                    worker_id, host, port, now=self.clock()
                )
                return {
                    "ok": True, "worker_id": worker_id, "rejoined": True,
                    "stale_slots": sorted(owned),
                }
            # Slots the newcomer now owns but no prior owner set included
            # it in: these need the data copied over before the newcomer
            # can serve them.
            gained: dict[int, list[str]] = {}
            sources: dict[int, list[str]] = {}
            covered: dict[int, bool] = {}
            for slot in range(self.topology.n_slots):
                old = self._owners(slot, before)
                new = self._owners(slot, after)
                if worker_id not in new:
                    continue
                gained[slot] = [worker_id]
                # healthy sources: prior owners whose copy is not stale
                sources[slot] = [
                    owner for owner in old
                    if slot not in self._stale.get(owner, set())
                ]
                # survivors keeping complete data despite the newcomer
                covered[slot] = bool(
                    set(new) & set(sources[slot])
                ) or not old  # an empty cluster had no data to lose
            handoff = self._handoff(gained, sources, covered)
            self.runtime.cluster_join(worker_id, host, port, now=self.clock())
            return {
                "ok": True,
                "worker_id": worker_id,
                "rejoined": False,
                "slots": sorted(gained),
                "handoff": handoff,
            }

    def _leave(self, worker_id: str) -> dict:
        with self._cluster_lock, self._writing():
            before_rows = self._worker_rows()
            if worker_id not in before_rows:
                raise _HttpError(
                    404, f"worker {worker_id!r} is not a cluster member"
                )
            if before_rows[worker_id]["failed"]:
                # already promoted out of effective membership: its
                # slots were re-planned at promotion, nothing to move
                self.runtime.cluster_leave(worker_id)
                client = self._clients.pop(worker_id, None)
                if client is not None:
                    client.close()
                self._stale.pop(worker_id, None)
                self._save_health_meta()
                return {
                    "ok": True,
                    "worker_id": worker_id,
                    "slots": [],
                    "handoff": {"artifacts": 0, "degraded": []},
                    "was_failed": True,
                }
            before = self._member_ids(before_rows)
            after = sorted(set(before) - {worker_id})
            losing: dict[int, list[str]] = {}
            sources: dict[int, list[str]] = {}
            covered: dict[int, bool] = {}
            for slot in range(self.topology.n_slots):
                old = self._owners(slot, before)
                if worker_id not in old:
                    continue
                new = self._owners(slot, after)
                survivors = [o for o in old if o != worker_id]
                needing = [o for o in new if o not in survivors]
                if not needing and not new:
                    # last worker leaving: no destination exists
                    needing = []
                losing[slot] = needing
                # the leaving worker itself is the preferred source (it
                # certainly holds the data) unless its copy is stale
                ordered = [worker_id] + survivors
                sources[slot] = [
                    owner for owner in ordered
                    if slot not in self._stale.get(owner, set())
                ]
                healthy_survivors = [
                    o for o in survivors
                    if slot not in self._stale.get(o, set())
                ]
                covered[slot] = bool(set(new) & set(healthy_survivors))
                if not new and not healthy_survivors:
                    # the cluster is emptying and this worker was the
                    # only complete copy — the data leaves with it
                    covered[slot] = False
            handoff = self._handoff(losing, sources, covered)
            self.runtime.cluster_leave(worker_id)
            client = self._clients.pop(worker_id, None)
            if client is not None:
                client.close()
            self._stale.pop(worker_id, None)
            self._save_health_meta()
            return {
                "ok": True,
                "worker_id": worker_id,
                "slots": sorted(losing),
                "handoff": handoff,
            }

    # -- ingest routing -------------------------------------------------------

    def _route_ingest(self, body: bytes) -> dict:
        """Validate once, partition once, one frame per owner worker.

        Nothing is sent until the whole client batch (a JSON body or a
        one-section frame) has passed the worker's own accept step.
        Each slot's section is encoded once and rides in the frame of
        every owner; a worker accepts or refuses its frame whole, so
        every slot it owns shares its outcome.  Batches are serialized
        by ``_cluster_lock``: every replica of a slot sees the
        identical, identically ordered feed.
        """
        accepted, sync = self._ingest_sections(
            body, self.configs, MAX_BATCH_EVENTS
        )
        if len(accepted) != 1:
            raise _HttpError(
                400, f"a routed frame carries one section, got "
                f"{len(accepted)}"
            )
        [(namespace, key_array, weights)] = accepted
        if not len(key_array):
            return {"ok": True, "events": 0, "slots": 0, "deliveries": 0}
        order, bounds = partition_by_slot(
            self.topology.slots_for_keys(key_array), self.topology.n_slots
        )
        key_array = key_array[order]
        weights = {name: values[order] for name, values in weights.items()}
        counts = np.diff(bounds)  # events per slot
        #: slot -> (worker-side namespace, encoded section)
        sections: dict[int, tuple[str, bytes]] = {}
        for slot in np.flatnonzero(counts).tolist():
            lo, hi = bounds[slot], bounds[slot + 1]
            target_ns = slot_namespace(namespace, slot)
            sections[slot] = (target_ns, encode_event_section(
                target_ns,
                key_array[lo:hi],
                {name: values[lo:hi] for name, values in weights.items()},
            ))
        # the write bracket opens before the lock is taken: a gather that
        # starts in between can still read the pre-ingest state, and
        # only the bump after settling ends the lease it would install
        with self._writing(), self._cluster_lock:
            worker_ids = self._member_ids(self._worker_rows())
            if not worker_ids:
                raise _HttpError(503, "cluster has no workers")
            owners = {
                slot: self._owners(slot, worker_ids) for slot in sections
            }
            frames: dict[str, list[int]] = {}  # ascending slots per owner
            for slot, slot_owners in owners.items():
                for owner in slot_owners:
                    frames.setdefault(owner, []).append(slot)
            outcomes = self._deliver_frames(frames, sections, counts, sync)
            missed, unapplied = self._settle_ingest(owners, outcomes)
        if unapplied:
            applied = sorted(set(sections) - set(unapplied))
            raise _HttpError(
                502,
                f"no owner applied slots {unapplied} of {namespace!r} "
                f"(applied slots: {applied}); owners whose outcome is "
                "unknown are marked stale — " + "; ".join(
                    f"{worker}: {outcome}" + (f" ({detail})" if detail else "")
                    for worker, (outcome, detail) in sorted(outcomes.items())
                ),
            )
        self.count["ingest_batches"].inc()
        self.count["ingested_events"].inc(len(key_array))
        result = {
            "ok": True,
            "events": len(key_array),
            "slots": len(sections),
            "deliveries": sum(
                len(slots) for worker, slots in frames.items()
                if outcomes[worker][0] == "ack"
            ),
        }
        if missed:
            result["missed_replicas"] = missed
        return result

    def _deliver_frames(
        self, frames: dict, sections: dict, counts: np.ndarray, sync: bool
    ) -> dict[str, tuple[str, str | None]]:
        """Send every owner its frame, all owners concurrently.

        Returns ``worker -> (outcome, detail)`` with outcome ``"ack"``
        (applied, or queued when not ``sync``), ``"refused"`` (the
        worker answered 400/404/413/429/503: it applied nothing) or
        ``"unknown"`` (transport failure or any other reply: it may
        have applied some or all of the frame).
        """
        parent = current_span()

        def deliver(worker, slots) -> tuple[str, str | None]:
            parts = [sections[slot] for slot in slots]
            frame = encode_event_batch(parts, sync)
            started = time.perf_counter()
            detail = None
            # the worker sees this span's ID in X-Repro-Trace and hangs
            # its request and ingest-apply spans under it
            with self.tracer.span(
                "deliver", parent=parent, worker=worker, slots=slots,
                events=int(counts[slots].sum()),
                bytes=len(frame),
            ) as span:
                try:
                    self._clients[worker].ingest_frame(
                        frame, [name for name, _ in parts]
                    )
                    outcome = "ack"
                except ServiceError as err:
                    refused = err.status in _REFUSALS
                    outcome = "refused" if refused else "unknown"
                    detail = str(err)
                except Exception as err:  # one owner must not sink the rest
                    outcome, detail = "unknown", str(err) or type(err).__name__
                span.annotate(outcome=outcome)
            self._delivery_seconds.observe(
                time.perf_counter() - started, worker=worker
            )
            return outcome, detail

        items = sorted(frames.items())
        results = self._fan_out(deliver, items)
        return {worker: result for (worker, _), result in zip(items, results)}

    def _fan_out(self, call, items: list) -> list:
        """``[call(*item) for item in items]``, all at once: the first on
        the calling thread, the rest on the long-lived pool.  ``call``
        handles its own failures."""
        futures = [self._fanout.submit(call, *item) for item in items[1:]]
        return [call(*items[0])] + [future.result() for future in futures]

    def _settle_ingest(
        self, owners: dict, outcomes: dict
    ) -> tuple[list[dict], list[int]]:
        """Apply the staleness rule to one routed batch's outcomes and
        persist it (call under ``_cluster_lock``, before replying).

        Per slot: once any owner acked, every owner that did not — it
        refused, or its outcome is unknown — under-counts the slot and
        goes stale.  A slot nobody acked is *unapplied*: owners that
        refused still agree with each other and stay usable; only an
        owner whose outcome is unknown (it may have applied the slot)
        goes stale.  Unknown-outcome workers are also marked dead.
        Returns ``(missed_replicas, unapplied_slots)``.
        """
        missed, unapplied, changed = [], [], False
        for slot in sorted(owners):
            applied = any(outcomes[o][0] == "ack" for o in owners[slot])
            if not applied:
                unapplied.append(slot)
            for owner in owners[slot]:
                outcome = outcomes[owner][0]
                if outcome == "ack" or (not applied and outcome == "refused"):
                    continue
                self._stale.setdefault(owner, set()).add(slot)
                changed = True
                if applied:
                    missed.append({"worker": owner, "slot": slot})
        for worker, (outcome, _detail) in outcomes.items():
            if outcome == "unknown":
                self.runtime.cluster_mark(
                    worker, alive=False, now=self.clock()
                )
        if changed:
            self._save_health_meta()
        return missed, unapplied

    # -- query plane ----------------------------------------------------------

    @staticmethod
    def _memo_key(namespace, slot, worker, since, until) -> tuple:
        # the worker is part of the key: version tokens are minted per
        # worker, and two owners may mint the same one for different data
        return namespace, slot, worker, since, until

    def _fetch_slots(self, parent, selection, worker, slots) -> tuple:
        """One conditional ``GET /bundle`` for ``slots`` of one worker.

        Returns ``(copies, changed, reply bytes, lease seconds)``.
        ``copies`` holds one ``(version, bundle | None)`` per slot — the
        memo's own pair where the worker answered ``unchanged`` — or is
        ``None`` when the worker did not answer: unreachable (it is
        marked dead), an error reply, or a frame that does not decode or
        answer the request.
        """
        namespace, since, until = selection
        keys = [
            self._memo_key(namespace, slot, worker, since, until)
            for slot in slots
        ]
        with self._memo_lock:
            held = [self._slot_memo.get(key) for key in keys]
        have = {
            slot_namespace(namespace, slot): entry and entry[0]
            for slot, entry in zip(slots, held)
        }
        copies, nbytes, states = None, 0, ["failed"] * len(slots)
        lease_s = 0.0
        started = time.perf_counter()
        # the worker sees this span's ID in X-Repro-Trace and hangs its
        # request span under it
        with self.tracer.span(
            "slot-fetch", parent=parent, worker=worker, slots=slots
        ) as span:
            try:
                frame = self._clients[worker].bundles(
                    have, since, until, timeout=_WORKER_TIMEOUT_S,
                )
                sections = decode_bundle_batch(frame, list(have))
                fresh = [
                    entry if section.state == "unchanged"
                    else (section.version, section.bundle)
                    for section, entry in zip(sections, held)
                ]
                if any(
                    copy is None or copy[0] != section.version
                    for copy, section in zip(fresh, sections)
                ):
                    raise CodecError(
                        "'unchanged' for a token this coordinator does "
                        "not hold"
                    )
            except Exception as err:  # this owner did not answer
                span.fail(err)
                if isinstance(err, _UNREACHABLE):
                    self.runtime.cluster_mark(
                        worker, alive=False, now=self.clock()
                    )
            else:
                copies, nbytes = fresh, len(frame)
                lease_s = sections.lease_s
                states = [section.state for section in sections]
                with self._memo_lock:
                    for key, copy in zip(keys, copies):
                        self._slot_memo[key] = copy  # over its old version
                        self._slot_memo.move_to_end(key)
                    while len(self._slot_memo) > _MEMO_SLOTS:
                        self._slot_memo.popitem(last=False)
            changed = states.count("bundle")
            span.annotate(changed=changed, bytes=nbytes)
        self._slot_fetch_seconds.observe(
            time.perf_counter() - started, worker=worker
        )
        for state in set(states):
            self._slot_fetches.inc(states.count(state), outcome=state)
        return copies, changed, nbytes, lease_s

    def _gather(self, namespace: str, since, until) -> tuple:
        """Every slot's current copy: one conditional fetch per worker,
        workers in parallel; the slots of an owner that did not answer
        are re-asked of their next usable owner.

        Returns ``(answered, missing_slots, fetched)``.  ``answered`` has
        one ``(slot, worker, version, bundle | None)`` row per slot an
        owner answered for, in slot order (an empty slot answers too —
        its version token pins the empty state); ``missing_slots`` lists
        the slots no usable owner answered for; ``fetched`` counts the
        bundles and reply bytes that crossed the wire, and holds the
        shortest lease a worker whose reply was used granted.
        """
        with self._cluster_lock:
            rows = self._worker_rows()
            worker_ids = self._member_ids(rows)
            stale = {w: set(s) for w, s in self._stale.items()}
            degraded = set(self._degraded)
        if not worker_ids:
            raise _HttpError(503, "cluster has no workers")
        #: slot -> usable owners left to ask
        asking: dict[int, list[str]] = {}
        #: worker -> slots it is the first choice for so far
        load: dict[str, int] = {}
        for slot in sorted(set(range(self.topology.n_slots)) - degraded):
            usable = [
                owner for owner in self._owners(slot, worker_ids)
                if slot not in stale.get(owner, ())
            ]
            # alive-marked owners first (failing over to a dead-marked
            # one costs a connect timeout), rendezvous order otherwise
            usable.sort(key=lambda owner: not rows[owner]["alive"])
            if not usable:
                continue
            if rows[usable[0]]["alive"]:
                # reads spread over the replicas: the first choice is the
                # least-loaded alive owner so far (ties: rendezvous
                # order), a pure function of membership and stale set
                first = min(
                    (owner for owner in usable if rows[owner]["alive"]),
                    key=lambda owner: load.get(owner, 0),
                )
                usable.remove(first)
                usable.insert(0, first)
                load[first] = load.get(first, 0) + 1
            asking[slot] = usable
        answered: dict[int, tuple] = {}
        rerouted: set[int] = set()
        fetched = {"slots": 0, "bytes": 0, "lease_s": math.inf}
        parent, selection = current_span(), (namespace, since, until)
        while asking:
            by_worker: dict[str, list[int]] = {}
            for slot in sorted(asking):
                by_worker.setdefault(asking[slot][0], []).append(slot)
            requests = [
                (parent, selection, worker, slots)
                for worker, slots in sorted(by_worker.items())
            ]
            replies = self._fan_out(self._fetch_slots, requests)
            for (_, _, worker, slots), reply in zip(requests, replies):
                copies, changed, nbytes, lease_s = reply
                fetched["slots"] += changed
                fetched["bytes"] += nbytes
                if copies is not None:
                    fetched["lease_s"] = min(fetched["lease_s"], lease_s)
                for position, slot in enumerate(slots):
                    if copies is None:
                        rerouted.add(slot)
                        del asking[slot][0]
                        if not asking[slot]:
                            del asking[slot]
                        continue
                    del asking[slot]
                    answered[slot] = (slot, worker, *copies[position])
                    if slot in rerouted:
                        self.count["failovers"].inc()
        missing = sorted(set(range(self.topology.n_slots)) - set(answered))
        return sorted(answered.values()), missing, fetched

    def current_version(self, namespace, blocking=True) -> "str | None":
        """The version vector of the last read of ``namespace`` while its
        lease holds, else ``None`` (the planner reads first).

        A lease holds while the epoch has not moved since that read
        began, the clock is short of its expiry, and every worker it
        names still holds this coordinator's keep-alive connections (a
        worker that stops or restarts closes them).  Takes no lock but,
        with ``blocking``, the clients' connection pools'.
        """
        lease = self._leases.get(namespace)
        if lease is None or lease[2] != self._epoch:
            return None
        version, expiry, _epoch, workers = lease
        if self.clock() >= expiry:
            return None
        for worker in workers:
            client = self._clients.get(worker)
            if client is None or not client.connected(blocking):
                return None
        return version

    def read(self, namespace: str, since, until) -> SourceView:
        """The planner's source: every answered slot's bundle in slot
        order, versioned by the vector of ``(slot, worker, token)``; the
        slots nobody answered are ``missing``.

        The read leases its vector: from its send time for the shortest
        lease its workers granted, at most ``heartbeat_s`` — what no
        reply can reveal (a crash that loses data, a write that did not
        come through this coordinator) shows within one heartbeat
        interval.  A read that missed a slot leases nothing.
        """
        epoch, sent = self._epoch, self.clock()
        with self.tracer.span("gather", namespace=namespace) as gather_span:
            answered, missing, fetched = self._gather(namespace, since, until)
            gather_span.annotate(
                answered_slots=len(answered), missing_slots=len(missing),
                fetched_slots=fetched["slots"], bytes=fetched["bytes"],
            )
        version = "v[" + ",".join(
            f"s{slot}:{worker}:{token}" for slot, worker, token, _ in answered
        ) + "]"
        bundles = [row[3] for row in answered if row[3] is not None]
        # a gather that reports no lease grants none
        lease_s = 0.0 if missing else min(
            fetched.get("lease_s", 0.0), self.config.heartbeat_s
        )
        self._leases[namespace] = (
            version, sent + lease_s, epoch, {row[1] for row in answered},
        )
        if missing:  # one partial answer per read that missed a slot
            self.count["partial_answers"].inc()
        return SourceView(version, bundles, {
            "slots": self.topology.n_slots,
            "answered_slots": len(answered),
            "bundles": len(bundles),
            "workers": len({row[1] for row in answered}),
        }, missing)

    def _parse_query(self, request: dict) -> QuerySpec:
        spec = super()._parse_query(request)
        if spec.temporal:
            raise ValueError(
                "'window', 'step' and 'decay' are not supported by the "
                "coordinator (temporal queries need per-bucket "
                "partials; query a worker directly)"
            )
        return spec

    # -- handlers -------------------------------------------------------------

    async def _in_executor(self, call, *args):
        # bind_parent carries the request span into the executor thread,
        # where ServiceClient reads it to stamp X-Repro-Trace on every
        # worker request made on the way
        return 200, await asyncio.get_running_loop().run_in_executor(
            None, bind_parent, current_span(), call, *args
        )

    def _refuse_if_stopping(self) -> None:
        if self._stopping:
            raise _HttpError(503, "coordinator is shutting down")

    async def _handle_cluster(self, params, body):
        return await self._in_executor(self._cluster_view)

    async def _handle_status(self, params, body):
        return await self._in_executor(self._status_view)

    async def _handle_repairs(self, params, body):
        try:
            limit = int(params.get("limit", 100))
        except ValueError:
            raise _HttpError(400, "limit must be an integer") from None
        return await self._in_executor(self.repairs.view, limit)

    async def _handle_repairs_run(self, params, body):
        self._refuse_if_stopping()
        return await self._in_executor(self.repairs.tick)

    async def _handle_join(self, params, body):
        payload = self._json_body(body)
        worker_id = payload.get("worker_id")
        host = payload.get("host")
        port = payload.get("port")
        if not worker_id or not host or not isinstance(port, int):
            raise _HttpError(
                400,
                "join needs 'worker_id', 'host', and an integer 'port'",
            )
        return await self._in_executor(self._join, worker_id, host, port)

    async def _handle_leave(self, params, body):
        worker_id = self._json_body(body).get("worker_id")
        if not worker_id:
            raise _HttpError(400, "leave needs a 'worker_id'")
        return await self._in_executor(self._leave, worker_id)

    async def _handle_ingest(self, params, body):
        self._refuse_if_stopping()
        return await self._in_executor(self._route_ingest, body)

    def _cluster_view(self) -> dict:
        with self._cluster_lock:
            workers = self.runtime.cluster_workers()
            stale = {w: sorted(s) for w, s in self._stale.items() if s}
            degraded = sorted(self._degraded)
        worker_ids = sorted(
            row["worker_id"] for row in workers if not row["failed"]
        )
        return {
            "ok": True,
            "topology": self.topology.to_json(),
            "namespaces": sorted(self.configs),
            "workers": workers,
            "assignment": {
                str(slot): list(owners)
                for slot, owners in self.topology.assignment(
                    worker_ids
                ).items()
            } if worker_ids else {},
            "stale": stale,
            "degraded_slots": degraded,
            "failed_workers": sorted(
                row["worker_id"] for row in workers if row["failed"]
            ),
            "repairs": self.runtime.repair_stats(),
            "stats": {**self.stats, "last_error": self.last_error},
            "cache": self.runtime.cache_stats(),
        }

    def _status_view(self) -> dict:
        """``GET /status`` — ops snapshot (``repro-serve stats --port``)."""
        uptime = (
            None if self._started_monotonic is None
            else time.monotonic() - self._started_monotonic
        )
        with self._cluster_lock:
            rows = self._worker_rows()
        members = self._member_ids(rows)
        sections = self._count_sections()
        # the repair counts are the journal's own durable tallies
        journal = sections["runtime"]["repairs"]
        sections["runtime"]["counters"].update(
            repairs_enqueued=journal["total"],
            repairs_completed=journal["done"],
            repairs_failed=journal["failed"],
        )
        return {
            "ok": True,
            "role": "coordinator",
            "uptime_s": uptime,
            **sections,
            "cluster": {
                "workers": len(rows),
                "members": len(members),
                "alive": sum(
                    1 for w in members if rows[w]["alive"]
                ),
                "failed": len(rows) - len(members),
            },
            "repairs": journal,
        }


class CoordinatorThread(DaemonThread):
    """A :class:`CoordinatorService` on a background thread (tests)."""

    service_class = CoordinatorService
