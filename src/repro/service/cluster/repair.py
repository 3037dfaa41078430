"""The self-healing control loop: promotion, re-replication, anti-entropy.

:class:`RepairPlanner` runs on the coordinator (a background task on the
``repair_interval_s`` cadence, plus on demand via ``POST /repairs/run``
or a direct :meth:`tick` in tests) and closes the loop PR 8 left open:
detection without remedy.  Each tick is three phases:

1. **Promotion** — a worker that has been heartbeat-dead for longer
   than ``fail_after_s`` is promoted to *failed*: it drops out of
   effective membership, so rendezvous hashing re-plans its slots onto
   the survivors, and for every re-planned slot a ``re_replicate`` op
   is journaled against each new owner that lacks a complete copy.  A
   slot with no healthy surviving holder is degraded on the spot (the
   data died with its only owner) — loudly, exactly like PR 8's leave
   path.

2. **Anti-entropy planning** — stale-marked copies (a replica that
   missed an ingest delivery, a rejoined crasher) are re-scanned every
   tick; any stale copy whose worker is an *alive, current owner* of
   the slot and for which a healthy source exists gets an
   ``anti_entropy`` op, instead of waiting for join/leave churn to
   repair it as a side effect.

3. **Drain** — queued ops execute one at a time, each under the
   coordinator's cluster lock so no ingest can interleave between the
   source flush and the copy (that interleaving would make the repaired
   copy silently under-count — the one thing the exactness contract
   forbids).  Execution is the proven purge-then-copy handoff path:
   rotate the source, purge the target's slot, copy artifacts under
   deterministic ``ho-…`` names, clear the stale flag.  An op whose
   target or source is unreachable is requeued with an attempt bump
   (and fails permanently at ``repair_max_attempts``); because the
   stale flag only clears on success, a failed op is re-planned on a
   later tick once the blocker clears — the loop converges without
   remembering why it ever stopped.

The journal (``repairs`` table in the coordinator's ``runtime.sqlite``)
persists queued/active/done/failed ops with reasons and timestamps;
active ops are requeued on coordinator startup, so a restart mid-repair
resumes instead of forgetting.  Every mutation of health bookkeeping
happens under ``_cluster_lock`` and is persisted via the coordinator's
``_save_health_meta``, keeping the planner crash-consistent with the
routing state it repairs.  Every worker write goes through the
coordinator's ``_rotate`` / ``_reset_slot`` / ``_copy_slot`` and every
health change through ``_save_health_meta``, each of which ends the
coordinator's query leases.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.service.client import ServiceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.cluster.coordinator import CoordinatorService

__all__ = ["RepairPlanner"]

#: transport-level failures (mirrors the coordinator's routing constant)
_UNREACHABLE = (OSError, ConnectionError)


class RepairPlanner:
    """Drives failure promotion, re-replication, and anti-entropy repair."""

    def __init__(self, service: "CoordinatorService") -> None:
        self.service = service

    # -- phase 1: promotion ---------------------------------------------------

    def promote_failed(self) -> list[str]:
        """Promote workers heartbeat-dead past the grace window to failed.

        Promotion re-plans the dead worker's slots over the survivors
        and journals one ``re_replicate`` op per (slot, new owner
        without a complete copy).  Returns the promoted worker ids.
        """
        svc = self.service
        promoted: list[str] = []
        with svc._cluster_lock:
            while True:
                now = svc.clock()
                rows = svc._worker_rows()
                candidate = None
                for worker_id, row in sorted(rows.items()):
                    if row["failed"] or row["alive"]:
                        continue
                    seen = row["last_seen"]
                    if seen is None:
                        seen = row["joined_at"]
                    if now - seen >= svc.config.fail_after_s:
                        candidate = worker_id
                        break
                if candidate is None:
                    break
                self._promote(candidate, rows, now)
                promoted.append(candidate)
        return promoted

    def _promote(self, worker_id: str, rows: dict, now: float) -> None:
        """Fail one worker and journal the re-replication it requires.

        Call under ``_cluster_lock``.
        """
        svc = self.service
        members_before = sorted(
            w for w, row in rows.items() if not row["failed"]
        )
        members_after = [w for w in members_before if w != worker_id]
        svc.runtime.cluster_set_failed(worker_id, True, now=now)
        # Conservative: whatever the dead worker still holds is
        # unusable until proven fresh (it may hold partial deliveries
        # from its dying moments and will miss everything from now on).
        owned = [
            slot
            for slot in range(svc.topology.n_slots)
            if worker_id in svc._owners(slot, members_before)
        ]
        svc._stale.setdefault(worker_id, set()).update(owned)
        for slot in owned:
            old = svc._owners(slot, members_before)
            new = svc._owners(slot, members_after)
            holders = [
                o for o in old
                if o != worker_id and slot not in svc._stale.get(o, set())
            ]
            if not holders:
                # HRW keeps surviving owners in place, so a healthy
                # non-owner holder cannot exist: the data died with
                # its only complete copy.
                svc._degraded.add(slot)
                op = svc.runtime.repair_enqueue(
                    "re_replicate", slot, target=worker_id,
                    reason=f"worker {worker_id} failed", now=now,
                    dedupe=False,
                )
                svc.runtime.repair_update(
                    op, "failed",
                    detail="slot degraded: no complete copy survives",
                    now=now,
                )
                continue
            for target in new:
                if target in holders:
                    continue
                svc._stale.setdefault(target, set()).add(slot)
                svc.runtime.repair_enqueue(
                    "re_replicate", slot, target=target,
                    reason=f"worker {worker_id} failed", now=now,
                )
        svc._save_health_meta()
        svc.count["promotions"].inc()

    # -- phase 2: anti-entropy planning ---------------------------------------

    def plan_anti_entropy(self) -> int:
        """Journal repairs for stale copies on alive, current owners.

        Returns the number of ops enqueued (dedup suppresses slots
        already queued or active).  A stale copy on a dead-marked
        worker is left to promotion or a rejoin; a degraded slot has
        no source and stays loudly partial.
        """
        svc = self.service
        if not svc.config.anti_entropy:
            return 0
        enqueued = 0
        with svc._cluster_lock:
            now = svc.clock()
            rows = svc._worker_rows()
            members = sorted(
                w for w, row in rows.items() if not row["failed"]
            )
            for worker_id in sorted(svc._stale):
                row = rows.get(worker_id)
                if row is None or row["failed"] or not row["alive"]:
                    continue
                for slot in sorted(svc._stale[worker_id]):
                    if slot in svc._degraded:
                        continue
                    owners = svc._owners(slot, members)
                    if worker_id not in owners:
                        continue
                    holders = [
                        o for o in owners
                        if o != worker_id
                        and slot not in svc._stale.get(o, set())
                    ]
                    if not holders:
                        continue
                    op = svc.runtime.repair_enqueue(
                        "anti_entropy", slot, target=worker_id,
                        reason="stale copy on current owner", now=now,
                    )
                    if op is not None:
                        enqueued += 1
        return enqueued

    # -- phase 3: drain -------------------------------------------------------

    def drain(self) -> dict:
        """Execute every op queued at tick start; one lock scope per op.

        Ingest and queries interleave *between* ops (each op holds the
        cluster lock only for its own rotate→purge→copy), so repair
        never blocks the serving path for longer than one slot copy.
        """
        svc = self.service
        done = failed = requeued = 0
        pending = [row["id"] for row in svc.runtime.repairs(status="queued")]
        for op_id in pending:
            op = svc.runtime.repair_claim(op_id, now=svc.clock())
            if op is None:  # raced by a concurrent tick
                continue
            outcome = self._execute(op)
            if outcome == "done":
                done += 1
            elif outcome == "failed":
                failed += 1
            else:
                requeued += 1
        return {"done": done, "failed": failed, "requeued": requeued}

    def _requeue(self, op: dict, why: str) -> str:
        svc = self.service
        now = svc.clock()
        if op["attempts"] + 1 >= svc.config.repair_max_attempts:
            svc.runtime.repair_update(
                op["id"], "failed", detail=f"{why} (gave up after "
                f"{op['attempts'] + 1} attempts)",
                bump_attempts=True, now=now,
            )
            return "failed"
        svc.runtime.repair_update(
            op["id"], "queued", detail=why, bump_attempts=True, now=now
        )
        return "requeued"

    def _execute(self, op: dict) -> str:
        """Run one claimed op: the purge-then-copy repair, lock-scoped.

        Returns ``"done"``, ``"failed"``, or ``"requeued"``.  Each
        execution is a traced ``repair-op`` span (the journal row ID
        is a tag, so a trace correlates with ``GET /repairs``) and
        lands in the coordinator's repair-op metrics by outcome.
        """
        svc = self.service
        started = time.perf_counter()
        with svc.tracer.span(
            "repair-op",
            op_id=op["id"], kind=op.get("kind"),
            slot=op["slot"], target=op["target"],
        ) as span:
            outcome = self._execute_locked(op)
            span.annotate(outcome=outcome)
        svc.metrics.counter(
            "repro_repair_ops_total",
            "Executed repair ops, by outcome.",
            labelnames=("outcome",),
        ).inc(outcome=outcome)
        svc.metrics.histogram(
            "repro_repair_op_seconds",
            "Latency of one repair-op execution.",
        ).observe(time.perf_counter() - started)
        return outcome

    def _execute_locked(self, op: dict) -> str:
        svc = self.service
        slot, target = op["slot"], op["target"]
        with svc._cluster_lock:
            now = svc.clock()
            rows = svc._worker_rows()
            members = sorted(
                w for w, row in rows.items() if not row["failed"]
            )
            if target not in members:
                svc.runtime.repair_update(
                    op["id"], "done",
                    detail="superseded: target left membership", now=now,
                )
                return "done"
            owners = svc._owners(slot, members)
            if target not in owners:
                svc.runtime.repair_update(
                    op["id"], "done",
                    detail="superseded: slot re-planned off the target",
                    now=now,
                )
                return "done"
            if slot in svc._degraded:
                svc.runtime.repair_update(
                    op["id"], "failed",
                    detail="slot degraded: no complete copy survives",
                    now=now,
                )
                return "failed"
            if slot not in svc._stale.get(target, set()):
                svc.runtime.repair_update(
                    op["id"], "done",
                    detail="already fresh (repaired by handoff)", now=now,
                )
                return "done"
            holders = [
                o for o in owners
                if o != target and slot not in svc._stale.get(o, set())
            ]
            # alive-marked sources first: a dead-marked one costs a
            # connect timeout before failing over
            holders.sort(key=lambda o: (not rows[o]["alive"], o))
            if not holders:
                return self._requeue(op, "no healthy source holds the slot")
            copied = None
            used_source = None
            for source in holders:
                try:
                    svc._rotate(source)
                except (ServiceError, *_UNREACHABLE):
                    svc.runtime.cluster_mark(source, alive=False, now=now)
                    continue
                try:
                    svc._reset_slot(target, slot)
                except (ServiceError, *_UNREACHABLE):
                    svc.runtime.cluster_mark(target, alive=False, now=now)
                    return self._requeue(op, "target unreachable")
                try:
                    copied = svc._copy_slot(source, target, slot)
                except (ServiceError, *_UNREACHABLE):
                    svc.runtime.cluster_mark(source, alive=False, now=now)
                    # a partial copy may have landed: purge before any
                    # other source writes its own part names
                    try:
                        svc._reset_slot(target, slot)
                    except (ServiceError, *_UNREACHABLE):
                        svc.runtime.cluster_mark(
                            target, alive=False, now=now
                        )
                        return self._requeue(
                            op, "target unreachable after partial copy"
                        )
                    continue
                used_source = source
                break
            if used_source is None:
                return self._requeue(op, "no reachable healthy source")
            svc._stale.get(target, set()).discard(slot)
            svc._save_health_meta()
            svc.count["handoff_artifacts"].inc(copied)
            svc.runtime.repair_update(
                op["id"], "done", source=used_source,
                detail=f"{copied} artifacts copied", now=now,
            )
            return "done"

    # -- the tick -------------------------------------------------------------

    def tick(self) -> dict:
        """One full control-loop pass: promote, plan, drain."""
        promoted = self.promote_failed()
        enqueued = self.plan_anti_entropy()
        drained = self.drain()
        self.service.count["repair_ticks"].inc()
        return {
            "ok": True,
            "promoted": promoted,
            "enqueued": enqueued,
            **drained,
        }

    # -- inspection -----------------------------------------------------------

    def view(self, limit: int = 100) -> dict:
        """The ``GET /repairs`` payload: journal, health, replication map."""
        svc = self.service
        with svc._cluster_lock:
            rows = svc._worker_rows()
            stale = {w: set(s) for w, s in svc._stale.items() if s}
            degraded = sorted(svc._degraded)
        members = sorted(w for w, row in rows.items() if not row["failed"])
        failed_workers = sorted(
            w for w, row in rows.items() if row["failed"]
        )
        replication: dict[str, dict] = {}
        fully_replicated = True
        under = []
        for slot in range(svc.topology.n_slots):
            owners = svc._owners(slot, members)
            healthy = [
                o for o in owners if slot not in stale.get(o, set())
            ]
            want = min(svc.topology.replication, len(members))
            ok = slot not in degraded and len(healthy) >= want
            if not ok:
                fully_replicated = False
                under.append(slot)
            replication[str(slot)] = {
                "owners": list(owners),
                "healthy": healthy,
                "want": want,
                "ok": ok,
            }
        return {
            "ok": True,
            "fully_replicated": fully_replicated,
            "under_replicated_slots": under,
            "degraded_slots": degraded,
            "failed_workers": failed_workers,
            "stale": {w: sorted(s) for w, s in stale.items()},
            "journal": svc.runtime.repair_stats(),
            "ops": svc.runtime.repairs(limit=limit),
            "replication": replication,
        }
