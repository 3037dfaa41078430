"""Always-on summarization daemon: asyncio HTTP JSON API, stdlib only.

:class:`SummaryService` ties every layer of the repo together into one
long-running process:

* the **ingest path** accepts batched events over HTTP, applies
  *backpressure* through a bounded queue (an overfull queue answers
  ``429`` instead of buffering without limit), and feeds a single worker
  that drives :meth:`LiveWindowManager.ingest` — the engine's exact
  partition-once batch path — off the event loop's thread;
* the **query path** answers estimate/jaccard requests through the
  :class:`~repro.service.planner.QueryPlanner`'s merged live + stored
  view, bit-identical to an offline :class:`~repro.engine.queries.
  QueryEngine` run over the same artifacts;
* a **background ticker** rotates live windows on bucket boundaries and
  periodically compacts stored buckets (minute → hour/day);
* **shutdown** (signal or ``POST /shutdown``) stops accepting, drains the
  ingest queue, and checkpoints every live window into the store, so the
  next start resumes the stream bit-identically.

The routes are ``SummaryService.routes`` (``GET /no-such-path`` lists
them); what the table cannot say::

    /health, /healthz   lock-free: never touch the manager or planner
                        locks, so a wedged query or ingest cannot make
                        the daemon look dead (coordinators heartbeat here)
    POST /ingest        {"namespace", "keys", "weights": {assignment:
                        [...]}, "sync"} — or a codec ``event_batch``
                        frame (binary, recognised by its magic): several
                        namespaces' events; either is validated whole
                        and accepted or refused whole
    /query              one grammar, POST body or GET query string:
                        :class:`~repro.service.planner.QuerySpec`
    GET /bundle         codec-encoded partials (binary): the merged
                        live+stored view of ``namespace``; one raw
                        artifact (``bucket`` + ``part``); the JSON
                        artifact listing (``list=1``); or, with
                        ``have={namespace: token|null, ...}``, several
                        views as one flat ``bundle_batch`` frame (one
                        header; per assignment the views' sketch
                        columns concatenated), the slots of one window
                        group folded once for all of them, a namespace
                        whose version still equals its token answered
                        ``unchanged`` without being built, and the
                        worker's lease (``lease_s``) on the tokens,
                        taken after closed windows rotate
    POST /bundle        upload one encoded artifact (bucket handoff)
    POST /bundle/reset  purge a namespace (live window + artifacts): a
                        handoff target is reset before the copy so a
                        former holder's leftovers cannot double-count
    POST /rotate        flush live windows to the store (durability; the
                        windows keep accumulating)

The HTTP layer is a deliberately small HTTP/1.1 subset shared with the
cluster coordinator (:mod:`repro.service.httpbase`) — request line,
headers, Content-Length bodies, keep-alive — because the stdlib-only
constraint rules out real frameworks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from typing import Callable

from repro.obs import bind_parent, current_span
from repro.service.config import ServiceConfig, unknown_namespace
from repro.service.httpbase import (
    BinaryResponse,
    DaemonThread,
    HttpServerBase,
    _HttpError,
)
from repro.service.jsonutil import restore_non_finite
from repro.service.planner import QueryPlanner, view_bundles
from repro.service.windows import LiveWindowManager
from repro.store.codec import encode, encode_bundle_batch
from repro.store.store import SummaryStore

__all__ = ["SummaryService", "ServiceThread"]

#: seconds a ``GET /bundle?have=`` lease stops short of the next token
#: move this worker schedules itself (a bucket boundary, a compaction)
LEASE_MARGIN_S = 0.5


class SummaryService(HttpServerBase):
    """The ``repro-serve`` daemon (see module docstring)."""

    role = "worker"
    counted = {
        **HttpServerBase.counted,
        "ingest_batches": "Ingest batches applied (a JSON body or a frame).",
        "ingest_rejected": "Ingest batches refused with 429 (queue full).",
        "ingest_errors": "Queued ingest batches that failed to apply.",
    }
    stats_series = {  # the window manager's
        "ingested_events": "repro_ingest_events_total",
        "rotations": "repro_window_rotations_total",
        "compactions": "repro_compactions_total",
    }
    counter_series = {
        **HttpServerBase.counter_series,
        "ingest_batches": "repro_ingest_batches_total",
        "ingested_events": "repro_ingest_events_total",
        "rejected_batches": "repro_ingest_rejected_total",
        "ingest_errors": "repro_ingest_errors_total",
        "rotations": "repro_window_rotations_total",
        "compactions": "repro_compactions_total",
    }
    query_reply = {"ok": True}

    def __init__(
        self,
        config: ServiceConfig,
        clock: Callable[[], float] = time.time,
    ) -> None:
        super().__init__(config, clock)
        self.store = SummaryStore(config.store_root)
        self.runtime = self.store.runtime
        self.manager = LiveWindowManager(
            self.store,
            config.namespaces,
            granularity=config.granularity,
            clock=clock,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.planner = QueryPlanner(self.manager, tracer=self.tracer)
        # point-in-time state, read by /status and the stats verb through
        # the registry rather than recomputed ad hoc per request
        self.metrics.gauge(
            "repro_ingest_queue_depth",
            "Batches waiting in the bounded ingest queue.",
            callback=lambda: (
                self._queue.qsize() if self._queue is not None else 0
            ),
        )
        self.metrics.gauge(
            "repro_ingest_queue_capacity",
            "Ingest queue size that triggers 429 backpressure.",
        ).set(config.ingest_queue_batches)
        self._queue: asyncio.Queue | None = None
        #: ingest batches acknowledged (or about to be) and not yet
        #: applied, the one in the apply included; no lease while > 0
        self._unapplied = 0
        #: when the ticker next compacts, on ``clock``; ``None``: never
        self._compact_due: float | None = None
        self._tasks: list[asyncio.Task] = []
        self.routes.update({
            ("GET", "/status"): self._handle_status,
            ("POST", "/ingest"): self._handle_ingest,
            ("GET", "/query"): self._handle_query,
            ("POST", "/query"): self._handle_query,
            ("GET", "/bundle"): self._handle_bundle_get,
            ("POST", "/bundle"): self._handle_bundle_put,
            ("POST", "/bundle/reset"): self._handle_bundle_reset,
            ("POST", "/rotate"): self._handle_rotate,
            ("GET", "/watch"): self._handle_watch_list,
            ("POST", "/watch"): self._handle_watch_register,
            ("POST", "/watch/remove"): self._handle_watch_remove,
            ("GET", "/watch/poll"): self._handle_watch_poll,
        })

    # -- lifecycle ------------------------------------------------------------

    def _launch(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.config.ingest_queue_batches)
        if self.config.compact_to is not None:
            self._compact_due = self.clock() + self.config.compact_every_s
        self._tasks = [
            asyncio.create_task(self._ingest_worker(), name="ingest-worker"),
            asyncio.create_task(self._ticker(), name="ticker"),
        ]

    async def _finish(self) -> None:
        """Drain queued ingests, then checkpoint every live window."""
        # Everything already queued still lands in the live windows (and
        # therefore in the checkpoint) before the sentinel stops the
        # worker; nothing new is queued once ``_stopping`` is set.
        await self._queue.put(None)
        _worker, ticker = self._tasks
        ticker.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, self.manager.checkpoint
        )

    # -- background tasks -----------------------------------------------------

    async def _ingest_worker(self) -> None:
        """Apply queued batches in arrival order, off the event loop."""
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            try:
                if item is None:
                    return
                sections, span, future = item
                try:
                    result = await loop.run_in_executor(
                        None, self._apply_batch, sections, span
                    )
                except Exception as err:
                    self.count["ingest_errors"].inc()
                    self.last_error = f"ingest: {err}"
                    if future is not None and not future.done():
                        # The batch was validated whole, so a failure
                        # here is the server's and may have landed some
                        # sections: 500, never one of the refusal
                        # statuses that promise nothing was applied.
                        future.set_exception(_HttpError(
                            500, f"ingest failed: {err}"
                        ))
                else:
                    self.count["ingest_batches"].inc()
                    if future is not None and not future.done():
                        future.set_result(result)
                self._unapplied -= 1
            finally:
                self._queue.task_done()

    def _apply_batch(self, sections: list, parent) -> dict:
        # Keys and weights were normalised and validated at accept time.
        # The span hangs under the request span that carried the batch
        # (which the sender's X-Repro-Trace parented), even when an
        # async reply went out long before the apply.
        with self.tracer.span(
            "ingest-apply", parent=parent, sections=len(sections),
        ) as span:
            # one apply: the slots of a routed frame land in their
            # shared table at once; one section's bucket and version
            # ride along
            result = self.manager.ingest_sections(sections)
            span.annotate(events=result["events"])
            return result

    async def _ticker(self) -> None:
        """Rotate on bucket boundaries; write the result cache behind;
        compact on the configured cadence; re-evaluate due
        continuous-query registrations."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.tick_s)
            try:
                # one instant per tick: a bucket that closed by it is
                # published before a compaction due by it runs
                now = self.clock()
                await loop.run_in_executor(None, self.manager.rotate, now)
                await loop.run_in_executor(None, self.runtime.cache_flush)
                await loop.run_in_executor(None, self._compact_if_due, now)
                await self._evaluate_due_watches(loop)
            except asyncio.CancelledError:
                raise
            except Exception as err:  # keep ticking; surface via /status
                self.last_error = f"ticker: {err}"

    def _compact_if_due(self, now: float) -> None:
        """The ticker's compaction step: roll stored buckets up once
        ``now`` reaches the due time, then set the next one — only after
        the rollup is in, so a lease granted meanwhile read a due time
        already past."""
        if self._compact_due is None or now < self._compact_due:
            return
        self.manager.compact(self.config.compact_to)
        self._compact_due = self.clock() + self.config.compact_every_s

    async def _evaluate_due_watches(self, loop) -> None:
        """Re-evaluate every registration whose cadence has elapsed."""
        watches = await loop.run_in_executor(
            None, self.store.runtime.watches
        )
        now = self.clock()
        due = [
            watch
            for watch in watches
            if watch["enabled"]
            and (
                watch["last_eval_at"] is None
                or now - watch["last_eval_at"] >= watch["cadence_s"]
            )
        ]
        for watch in due:
            await loop.run_in_executor(None, self._evaluate_watch, watch)
        if due:
            async with self._wakeup:
                self._wakeup.notify_all()

    @staticmethod
    def _threshold_triggered(estimate, threshold: dict) -> bool:
        """Trigger test against an ``{"above": x}`` / ``{"below": x}``.

        ``None`` (an empty-window answer) and NaN (a restored non-finite
        estimate) never trigger — both comparisons are False for NaN,
        which is the conservative reading of "crossed the threshold".
        """
        if not isinstance(estimate, (int, float)) or isinstance(
            estimate, bool
        ):
            return False
        if "above" in threshold:
            return estimate > threshold["above"]
        return estimate < threshold["below"]

    def _evaluate_watch(self, watch: dict) -> None:
        """One registration evaluation: answer, trigger test, materialize.

        Runs on an executor thread.  Failures (including "no data yet")
        become an error row instead of propagating — a registration made
        before its first ingest starts answering as soon as data lands.
        """
        runtime = self.store.runtime
        try:
            answer = self.planner.answer(self._parse_query(watch["spec"]))
            restored = restore_non_finite(dict(answer))
            triggered = self._threshold_triggered(
                restored.get("estimate"), watch["threshold"]
            )
            error = None
        except Exception as err:
            answer, triggered, error = None, False, str(err)
        # A KeyError here means the registration vanished mid-evaluation
        # (concurrent remove) — nothing left to materialize into.
        with contextlib.suppress(KeyError):
            runtime.record_watch_eval(watch["id"], answer, triggered, error)

    # -- handlers -------------------------------------------------------------

    async def _handle_status(self, params, body):
        loop = asyncio.get_running_loop()

        def gauge(name: str) -> int:
            # point-in-time values read through the registry's gauges —
            # the same series /metrics exposes
            return int(self.metrics.get(name).value())

        def snapshot() -> dict:
            with self.manager.lock:
                return {
                    "ok": True,
                    "uptime_s": round(
                        time.monotonic() - self._started_monotonic, 3
                    ),
                    "namespaces": {
                        name: self.manager.live_info(name)
                        for name in self.manager.configs
                    },
                    "store": self.store.ls_json(),
                    "queue": {
                        "depth": gauge("repro_ingest_queue_depth"),
                        "capacity": gauge("repro_ingest_queue_capacity"),
                    },
                    "result_cache": {
                        "entries": gauge("repro_result_cache_entries"),
                    },
                    "planner": dict(self.planner.stats),
                    **self._count_sections(),
                }

        return 200, await loop.run_in_executor(None, snapshot)

    async def _handle_ingest(self, params, body):
        """One ingest batch, a JSON body or an ``event_batch`` frame:
        every section is validated before anything is queued, the batch
        takes one queue slot, and its sections apply in order — so any
        refusal (400, 404, 413, 429, 503) provably applied nothing on
        this worker."""
        sections, sync = self._ingest_sections(
            body, self.manager.configs, self.config.max_batch_events
        )
        if self._stopping:
            raise _HttpError(
                503, "service is shutting down; batch not accepted"
            )
        future = (
            asyncio.get_running_loop().create_future() if sync else None
        )
        self._unapplied += 1  # before any ack: see _lease_s
        try:
            self._queue.put_nowait((sections, current_span(), future))
        except asyncio.QueueFull:
            self._unapplied -= 1
            self.count["ingest_rejected"].inc()
            raise _HttpError(
                429,
                f"ingest queue full ({self.config.ingest_queue_batches} "
                "batches queued); retry with backoff",
            ) from None
        reply = {
            "ok": True,
            "queued": sum(len(keys) for _, keys, _ in sections),
            "sections": len(sections),
            "applied": sync,
        }
        if sync:  # wait for the apply: its events, bucket and version
            reply.update(await future)
        return 200, reply

    async def _handle_watch_register(self, params, body):
        """Register a continuous query: (spec, threshold, cadence).

        The spec is validated by the same code path that will re-evaluate
        it, the registration lands in ``runtime.sqlite`` (restart-
        durable), and a first evaluation is materialized immediately so
        ``GET /watch`` shows health without waiting a cadence.
        """
        payload = self._json_body(body)
        spec = payload.get("query")
        if not isinstance(spec, dict):
            raise _HttpError(
                400, "watch registration needs a 'query' object (same "
                "shape as a /query body)"
            )
        spec = {**spec, "namespace": payload.get("namespace")}
        namespace = self._parse_query(spec).namespace
        threshold = payload.get("threshold")
        if (
            not isinstance(threshold, dict)
            or len(threshold) != 1
            or next(iter(threshold)) not in ("above", "below")
        ):
            raise _HttpError(
                400,
                "watch 'threshold' must be {\"above\": x} or {\"below\": x}",
            )
        limit = next(iter(threshold.values()))
        if not isinstance(limit, (int, float)) or isinstance(limit, bool) \
                or limit != limit or limit in (float("inf"), float("-inf")):
            raise _HttpError(400, "watch threshold value must be finite")
        try:
            cadence_s = float(payload.get("cadence_s", 0))
        except (TypeError, ValueError):
            raise _HttpError(400, "watch 'cadence_s' must be a number") \
                from None
        if not cadence_s > 0:
            raise _HttpError(400, "watch 'cadence_s' must be > 0")
        loop = asyncio.get_running_loop()
        runtime = self.store.runtime
        watch_id = await loop.run_in_executor(
            None,
            lambda: runtime.register_watch(
                namespace, spec, threshold, cadence_s
            ),
        )
        await loop.run_in_executor(
            None,
            lambda: self._evaluate_watch(runtime.get_watch(watch_id)),
        )
        watch = await loop.run_in_executor(
            None, runtime.get_watch, watch_id
        )
        return 200, {"ok": True, "watch": watch}

    async def _handle_watch_list(self, params, body):
        namespace = params.get("namespace")
        watches = await asyncio.get_running_loop().run_in_executor(
            None, self.store.runtime.watches, namespace
        )
        return 200, {"ok": True, "watches": watches}

    async def _handle_watch_remove(self, params, body):
        try:
            watch_id = int(self._json_body(body).get("id"))
        except (TypeError, ValueError):
            raise _HttpError(400, "watch removal needs a numeric 'id'") \
                from None
        removed = await asyncio.get_running_loop().run_in_executor(
            None, self.store.runtime.remove_watch, watch_id
        )
        if not removed:
            raise _HttpError(
                404, f"no continuous-query registration {watch_id}"
            )
        return 200, {"ok": True, "removed": watch_id}

    async def _handle_watch_poll(self, params, body):
        """Long-poll one registration for an evaluation newer than ``after``.

        Returns as soon as ``update_seq > after`` (every ticker
        evaluation bumps it, triggered or not), or with ``timed_out:
        true`` at the deadline — the client re-polls with the last seen
        ``update_seq`` as its new ``after``, so no update is ever missed
        between polls.
        """
        try:
            watch_id = int(params["id"])
        except (KeyError, ValueError):
            raise _HttpError(400, "poll needs a numeric 'id'") from None
        try:
            after = int(params.get("after", 0))
            timeout = float(params.get("timeout", 30.0))
        except ValueError:
            raise _HttpError(
                400, "'after' must be an int, 'timeout' a number"
            ) from None
        timeout = min(max(timeout, 0.0), 120.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            watch = await loop.run_in_executor(
                None, self.store.runtime.get_watch, watch_id
            )
            if watch is None:
                raise _HttpError(
                    404, f"no continuous-query registration {watch_id}"
                )
            if watch["update_seq"] > after:
                return 200, {"ok": True, "watch": watch, "timed_out": False}
            remaining = deadline - loop.time()
            if remaining <= 0 or self._stopping:
                return 200, {"ok": True, "watch": watch, "timed_out": True}
            async with self._wakeup:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._wakeup.wait(), min(remaining, 1.0)
                    )

    async def _handle_rotate(self, params, body):
        loop = asyncio.get_running_loop()
        written = await loop.run_in_executor(
            None, lambda: self.manager.rotate(force=True)
        )
        return 200, {
            "ok": True,
            "written": [
                {"namespace": e.namespace, "bucket": e.bucket, "part": e.part}
                for e in written
            ],
        }

    # -- sketch-bundle transport (cluster) ------------------------------------

    def _merged_bundle(self, namespace, since, until):
        """The planner's :meth:`~QueryPlanner.view` — the snapshot a query
        plans from, stored side out of the same memo — merged.

        Returns ``(bundle | None, version, sources)``: ``None`` when the
        selection holds no data; stored entries plus the live window.
        """
        stored, live, version, sources = self.planner.view(
            namespace, since, until
        )
        bundles = view_bundles(stored, live)
        if not bundles:
            return None, version, 0
        count = sources["stored_entries"] + (live is not None)
        merged = bundles[0]  # one source is its own exact merge
        if len(bundles) > 1:
            with self.tracer.span("merge", namespace=namespace, sources=count):
                merged = bundles[0].merge(*bundles[1:])
        return merged, version, count

    def _merged_bundle_blob(self, namespace, since, until):
        """:meth:`_merged_bundle` with the bundle codec-encoded."""
        bundle, version, sources = self._merged_bundle(
            namespace, since, until
        )
        if bundle is not None:
            with self.tracer.span("encode", namespace=namespace):
                bundle = encode(bundle)
        return bundle, version, sources

    def _lease_s(self) -> float:
        """Seconds from now, on ``clock``, for which no version token of
        this worker moves unless a request moves it: until the oldest
        live window's bucket ends or the next compaction is due, less
        :data:`LEASE_MARGIN_S`; 0 while an ingest batch is accepted but
        not applied (its ack may already be out, its token not yet)."""
        if self._unapplied:
            return 0.0
        due = self.manager.rotation_due()
        if self._compact_due is not None:
            due = min(due, self._compact_due)
        return max(0.0, due - self.clock() - LEASE_MARGIN_S)

    def _bundle_frame(self, held: dict, since, until) -> bytes:
        """One ``bundle_batch`` frame answering ``held`` (namespace ->
        the caller's version token or ``None``) in its order, with this
        worker's lease.

        A namespace whose current version equals the caller's token is
        an ``unchanged`` section — no view, no merge; the data behind a
        token never changes, so the caller's copy is still exactly this
        worker's view.  The slot namespaces of one window group fold
        once for all of them, and the frame is encoded once.  Windows
        whose bucket has closed rotate first, as an ingest would rotate
        them, so the lease runs to the next boundary instead of none
        until the ticker's rotation.  The lease is taken before any
        token is read, so no batch applied after it hides behind it.
        """
        self.manager.rotate()
        lease_s = self._lease_s()
        sections = []
        for namespace, token in held.items():
            with self.manager.lock:
                version = self.manager.version(namespace)
            if version == token:
                sections.append((namespace, "unchanged", version, None))
                continue
            bundle, version, _sources = self._merged_bundle(
                namespace, since, until
            )
            state = "empty" if bundle is None else "bundle"
            sections.append((namespace, state, version, bundle))
        with self.tracer.span("encode", sections=len(sections)):
            return encode_bundle_batch(sections, lease_s)

    def _require_namespace(self, params) -> str:
        namespace = params.get("namespace")
        if not namespace:
            raise _HttpError(400, "bundle request needs a 'namespace'")
        if namespace not in self.manager.configs:
            raise _HttpError(
                404, unknown_namespace(namespace, self.manager.configs)
            )
        return namespace

    async def _handle_bundle_get(self, params, body):
        loop = asyncio.get_running_loop()
        since, until = params.get("since"), params.get("until")
        if "have" in params:
            try:
                held = json.loads(params["have"])
            except json.JSONDecodeError:
                held = None
            if not isinstance(held, dict) or not held or not all(
                token is None or isinstance(token, str)
                for token in held.values()
            ):
                raise _HttpError(
                    400, "'have' must be a non-empty JSON object of "
                    "namespace -> version token or null"
                )
            for namespace in held:
                self._require_namespace({"namespace": namespace})
            frame = await loop.run_in_executor(
                None, bind_parent, current_span(),
                self._bundle_frame, held, since, until,
            )
            return 200, BinaryResponse(frame)
        namespace = self._require_namespace(params)
        if params.get("list"):
            entries = await loop.run_in_executor(
                None, self.store.bundle_entries, namespace
            )
            with self.manager.lock:
                version = self.manager.version(namespace)
            return 200, {
                "ok": True,
                "namespace": namespace,
                "version": version,
                "entries": [
                    {
                        "bucket": entry.bucket,
                        "part": entry.part,
                        "kind": entry.kind,
                        "nbytes": entry.nbytes,
                    }
                    for entry in entries
                ],
            }
        bucket, part = params.get("bucket"), params.get("part")
        if (bucket is None) != (part is None):
            raise _HttpError(
                400, "artifact fetch needs both 'bucket' and 'part'"
            )
        if bucket is not None:
            blob = await loop.run_in_executor(
                None, self.store.read_blob, namespace, bucket, part
            )
            return 200, BinaryResponse(blob, {
                "X-Repro-Namespace": namespace,
                "X-Repro-Bucket": bucket,
                "X-Repro-Part": part,
            })
        blob, version, sources = await loop.run_in_executor(
            None, bind_parent, current_span(), self._merged_bundle_blob,
            namespace, since, until,
        )
        if blob is None:
            return 200, {
                "ok": True,
                "empty": True,
                "namespace": namespace,
                "version": version,
            }
        return 200, BinaryResponse(blob, {
            "X-Repro-Namespace": namespace,
            "X-Repro-Version": version,
            "X-Repro-Sources": str(sources),
        })

    async def _handle_bundle_reset(self, params, body):
        # The cluster-handoff purge: the coordinator resets a handoff
        # target's slot namespace before copying, so leftover artifacts
        # from an earlier ownership epoch can never double-count against
        # the fresh copy.
        namespace = self._require_namespace(self._json_body(body))
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            None, self.manager.reset, namespace
        )
        return 200, {"ok": True, **result}

    async def _handle_bundle_put(self, params, body: bytes):
        namespace = self._require_namespace(params)
        bucket, part = params.get("bucket"), params.get("part")
        if not bucket or not part:
            raise _HttpError(
                400, "bundle upload needs 'bucket' and 'part' params"
            )
        if not body:
            raise _HttpError(400, "bundle upload needs a codec-encoded body")
        overwrite = bool(params.get("overwrite"))
        loop = asyncio.get_running_loop()
        try:
            entry = await loop.run_in_executor(
                None,
                lambda: self.store.import_bundle(
                    namespace, bucket, part, body, overwrite=overwrite
                ),
            )
        except FileExistsError as err:
            raise _HttpError(409, str(err)) from None
        return 200, {
            "ok": True,
            "namespace": entry.namespace,
            "bucket": entry.bucket,
            "part": entry.part,
            "nbytes": entry.nbytes,
        }


class ServiceThread(DaemonThread):
    """A :class:`SummaryService` on a background thread; ``stop()``
    drains and checkpoints, ``kill()`` simulates a SIGKILL'd worker."""

    service_class = SummaryService
