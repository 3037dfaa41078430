"""Live windowed summaries: in-memory windows rotating into the store.

:class:`LiveWindowManager` is the stateful heart of the always-on service.
Per namespace it keeps one **live window** — an in-memory
:class:`~repro.engine.ShardedSummarizer` covering the current time bucket
— and moves data through the persistence layers:

* **ingest** — event batches feed the live window's exact partition-once
  :meth:`~repro.engine.ShardedSummarizer.ingest_multi` path;
* **rotation** — when the clock crosses a bucket boundary (minute by
  default), the window's sketches are published into the
  :class:`~repro.store.SummaryStore` as one
  :class:`~repro.store.codec.SketchBundle` for the closed bucket and a
  fresh window opens; because the bundle merge is exact, queries spanning
  live + stored data never change answers across a rotation;
* **compaction** — stored minute buckets roll up to hour/day through
  :meth:`~repro.store.SummaryStore.compact`;
* **checkpoint / resume** — a clean shutdown (and every mid-bucket
  flush) freezes each non-empty live window as a
  :class:`~repro.store.codec.SummarizerCheckpoint` artifact in its
  namespace/bucket slot; the next start restores it and continues the
  stream bit-identically to never having stopped, and a boundary
  rotation retires it once the published bundle supersedes it.

Every store mutation here (flush, rotation, checkpoint, reset, rescue)
commits as ONE :meth:`~repro.store.SummaryStore.transaction` with the
sequence counters it moves: a crash leaves all of it or none of it.

Exactness contract: summaries merge exactly over *key-disjoint* data, so
a key must not recur across different time buckets of one namespace
(repeats within a bucket are fine — they aggregate in the live window).
This is the store's documented rollup contract; violating it makes query
merges raise rather than silently double-count.

Every public method takes the manager's re-entrant lock, so one manager
may be shared by the asyncio server's ingest worker, query handlers, and
background ticker without interleaving mutations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.sharded import SlotSummarizers
from repro.obs import MetricsRegistry, default_tracer
from repro.service.cluster.topology import parse_slot_namespace
from repro.service.config import NamespaceConfig, unknown_namespace
from repro.store.store import (
    BUNDLE_KINDS,
    LIVE_CHECKPOINT_PART,
    StoreEntry,
    SummaryStore,
    bucket_bounds,
    bucket_for,
)

__all__ = ["LiveWindow", "LiveWindowManager", "CHECKPOINT_PART", "LIVE_PART"]

#: part name of a namespace's live-window checkpoint artifact.  Defined
#: by the store layer (it gates compaction on it); re-exported here as
#: the service's name for it.
CHECKPOINT_PART = LIVE_CHECKPOINT_PART

#: part name a live window publishes its bucket bundle under.  One part
#: per (namespace, bucket), written with ``overwrite=True``: a mid-bucket
#: flush and the final boundary rotation replace the same artifact, so
#: the store can never hold two bundles with overlapping keys for one
#: window.
LIVE_PART = "live"


class _Group:
    """The live windows that share one bucket and one
    :class:`~repro.engine.sharded.SlotSummarizers`: the slot namespaces
    of one logical namespace that share its configuration
    (``web--s000``, ``web--s001``, … — :func:`parse_slot_namespace`), in
    slot order, or one namespace alone.  A group rotates, flushes and
    checkpoints as one: its slots never sit in different buckets."""

    __slots__ = ("names", "config", "bucket", "summarizers")

    def __init__(self, names: list[str], config: NamespaceConfig) -> None:
        self.names, self.config = names, config

    def open(self, bucket: str) -> None:
        """A fresh (empty) live window over ``bucket`` for every member."""
        self.bucket = bucket
        self.summarizers = SlotSummarizers(
            self.config.make_summarizer, len(self.names)
        )


@dataclass
class LiveWindow:
    """One namespace's live window: its ``slot`` of its group's
    summarizers, over the group's current bucket.

    ``events`` is the namespace's ``buffered_events``: the rows it holds
    — aggregated keys plus not-yet-folded events, summed over assignments
    — so it counts raw events until the window's first query or flush and
    distinct keys after one, identically before and after a checkpoint →
    resume.  Zero means rotation has nothing to publish.
    """

    group: _Group
    slot: int

    @property
    def bucket(self) -> str:
        return self.group.bucket

    @property
    def events(self) -> int:
        return self.group.summarizers.events(self.slot)


def _groups(configs: dict) -> list[list[str]]:
    """The namespaces of ``configs`` by window group, each in slot order."""
    groups: dict = {}
    for name, config in configs.items():
        parsed = parse_slot_namespace(name)
        ident = name if parsed is None else (
            parsed[0], config.k, tuple(config.assignments), config.salt,
            config.family,
        )
        groups.setdefault(ident, []).append((parsed, name))
    return [[name for _, name in sorted(group)] for group in groups.values()]


class LiveWindowManager:
    """Per-namespace live windows over one summary store.

    Parameters
    ----------
    store:
        the :class:`~repro.store.SummaryStore` rotated bundles and
        checkpoints are published into.
    namespaces:
        the :class:`~repro.service.config.NamespaceConfig` of every served
        namespace.
    granularity:
        live-window bucket granularity (rotation boundary).
    clock:
        injectable UTC-seconds source (tests drive rotation
        deterministically through it).
    metrics:
        the :class:`~repro.obs.MetricsRegistry` the manager (and a
        planner over it) counts in; a manager built without one makes
        its own.

    The slot namespaces of one logical namespace (a cluster worker's) are
    one window group: their windows share one slotted table, so a batch
    routed to several of them is one apply and a read of any of them
    folds all of them once; each keeps its own version token, stored
    artifacts, checkpoint artifact and reset.

    Construction *resumes*: any ``live-window`` checkpoint artifact left
    by a previous shutdown or flush is restored into the live window.
    The artifact stays in the store until a boundary rotation publishes
    the bundle that supersedes it; the resumed window masks and
    overwrites its bucket's flush artifact, so its events are never
    double-counted.
    """

    def __init__(
        self,
        store: SummaryStore,
        namespaces: Sequence[NamespaceConfig],
        granularity: str = "minute",
        clock: Callable[[], float] = time.time,
        metrics=None,
        tracer=None,
    ) -> None:
        self.store = store
        self.granularity = granularity
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else default_tracer()
        self._ingest_events = self.metrics.counter(
            "repro_ingest_events_total",
            "Events applied to live windows, by namespace.",
            labelnames=("namespace",),
        )
        self._ingest_seconds = self.metrics.histogram(
            "repro_ingest_apply_seconds",
            "Latency of applying one ingest batch to its live window.",
            labelnames=("namespace",),
        )
        self._live_finalize_seconds = self.metrics.histogram(
            "repro_live_finalize_seconds",
            "Latency of folding a live window group's new events.",
        )
        self._rotations = self.metrics.counter(
            "repro_window_rotations_total",
            "Live-window bundles published into the store.",
        )
        self._compactions = self.metrics.counter(
            "repro_compactions_total", "Coarse buckets written by compaction."
        )
        self._rotation_seconds = self.metrics.histogram(
            "repro_rotation_seconds",
            "Latency of rotations that published at least one bundle.",
        )
        self.configs = {config.name: config for config in namespaces}
        if len(self.configs) != len(list(namespaces)):
            raise ValueError("namespace names must be distinct")
        if not self.configs:
            raise ValueError("need at least one namespace")
        self._lock = threading.RLock()
        # Per namespace (window_seq, ingest_seq), mirrored from the
        # runtime tier where they persist across restarts: the live half
        # of the version token survives a clean shutdown, so cached
        # answers stay valid.
        self._live_seqs: dict[str, tuple[int, int]] = {}
        self._windows: dict[str, LiveWindow] = {}
        self._groups: list[_Group] = []
        now_bucket = bucket_for(self.clock(), self.granularity)
        for names in _groups(self.configs):
            group = _Group(names, self.configs[names[0]])
            self._groups.append(group)
            self._windows.update(
                (name, LiveWindow(group, slot))
                for slot, name in enumerate(names)
            )
            self._resume(group, now_bucket)

    # -- construction helpers -------------------------------------------------

    def _rescue_orphan_flush(self, name: str, bucket: str) -> None:
        """Re-home a flush artifact a crashed window left in ``bucket``.

        With no checkpoint to resume, a fresh window is about to open over
        this bucket.  Left at :data:`LIVE_PART`, the artifact would be
        treated as the *new* window's own flush: masked by the query
        planner as soon as one event arrives, then overwritten by the next
        publish — silently destroying data an earlier flush made durable.
        Renaming it to a ``recovered-NNNN`` part (one transaction: write
        the copy, remove the original) turns it into a plain stored
        bundle that queries serve and rotation never touches.  (If keys
        recur across the crash boundary within the bucket, the merge
        raises — the store's documented contract — rather than losing or
        double-counting them.)
        """
        if not any(
            entry.part == LIVE_PART and entry.kind in BUNDLE_KINDS
            for entry in self.store.entries(name, buckets=[bucket])
        ):
            return
        bundle = self.store.read(name, bucket, LIVE_PART)
        with self.store.transaction():
            part = self.store._free_part_tx(name, bucket, "recovered")
            self.store.write(name, bucket, bundle, part=part)
            self.store.remove(name, bucket, LIVE_PART)

    def _checkpoint_of(self, config: NamespaceConfig):
        """``(bucket, checkpoint)`` of a previous shutdown's or flush's
        checkpoint of one namespace, or ``None``.

        The checkpoint artifact stays in the store: it is only retired
        when a boundary rotation publishes the window's bundle (which
        supersedes it), so a crash right after a restart cannot lose
        events that were already durable.  Because a mid-bucket flush
        commits the checkpoint together with its bundle (see
        :meth:`rotate`), the resumed state is never staler than the
        bucket's flush artifact — masking and later overwriting that
        artifact with the resumed window's state is always exact.
        """
        from repro.ranks.families import get_rank_family

        entries = [
            entry
            for entry in self.store.entries(config.name, kind="checkpoint")
            if entry.part == CHECKPOINT_PART
        ]
        if not entries:
            return None
        # At most one should exist (shutdown overwrites, rotation retires);
        # after an unclean history keep the most recent bucket's state.
        entries.sort(key=lambda entry: entry.bucket)
        state = self.store.load(entries[-1])
        if (
            state.k != config.k
            or list(state.assignments) != list(config.assignments)
            or state.hasher_salt != config.salt
            or state.family != get_rank_family(config.family)
        ):
            raise ValueError(
                f"checkpoint for namespace {config.name!r} was written "
                f"under a different configuration (k={state.k}, "
                f"assignments={list(state.assignments)}, "
                f"salt={state.hasher_salt}, family={state.family.name}); "
                "coordination parameters must not change across restarts"
            )
        with self.store.transaction():
            for entry in entries[:-1]:  # retire stale extras, keep the newest
                self.store.remove(
                    entry.namespace, entry.bucket, entry.part, missing_ok=True
                )
        return entries[-1].bucket, state

    def _resume(self, group: _Group, now_bucket: str) -> None:
        """Open ``group``'s windows, restoring its members' checkpoints.

        The group opens over its members' checkpoint bucket (``now_bucket``
        when none has one).  A checkpoint in an older bucket — a store
        written before its slots were grouped — is published at once, as
        the boundary rotation it missed would have.
        """
        resumed = {
            name: self._checkpoint_of(self.configs[name])
            for name in group.names
        }
        buckets = [found[0] for found in resumed.values() if found]
        group.open(max(buckets, default=now_bucket))
        for slot, name in enumerate(group.names):
            window_seq, ingest_seq, checkpoint_seq = (
                self.store.runtime.live_seqs(name)
            )
            found = resumed[name]
            if found is not None and found[0] != group.bucket:
                self._publish_closed(name, *found)
                found = None
            if found is None:
                self._rescue_orphan_flush(name, group.bucket)
                stale = window_seq != ingest_seq
            else:
                group.summarizers.restore(slot, found[1])
                # A resumed checkpoint frozen at the stream head (a clean
                # shutdown) reproduces the pre-shutdown state exactly, so
                # the old token — and every answer cached under it —
                # remains valid.  A checkpoint older than the stream head
                # (a crash lost in-memory events) must not.
                stale = checkpoint_seq != ingest_seq
            if stale and window_seq != ingest_seq:
                self.store.runtime.set_window_seq(name, ingest_seq)
                window_seq = ingest_seq
            self._live_seqs[name] = (window_seq, ingest_seq)

    def _publish_closed(self, name: str, bucket: str, state) -> None:
        """Publish a checkpoint's bundle into its closed ``bucket`` and
        retire the checkpoint: one transaction."""
        from repro.engine.sharded import ShardedSummarizer

        bundle = ShardedSummarizer.from_checkpoint(state).sketch_bundle()
        with self.store.transaction():
            self.store.write(
                name, bucket, bundle, part=LIVE_PART, overwrite=True
            )
            self.store.remove(name, bucket, CHECKPOINT_PART, missing_ok=True)

    # -- introspection --------------------------------------------------------

    @property
    def lock(self) -> threading.RLock:
        """The manager's re-entrant lock.

        Callers composing several calls into one atomic read — the query
        planner snapshotting (version, stored entries, live bundle)
        together — hold it across the sequence; individual methods acquire
        it on their own.
        """
        return self._lock

    def _window(self, namespace: str) -> LiveWindow:
        try:
            return self._windows[namespace]
        except KeyError:
            raise KeyError(
                unknown_namespace(namespace, self.configs)
            ) from None

    def version(self, namespace: str) -> str:
        """Version token covering the live window *and* the stored buckets.

        ``w<window_seq>.<ingest_seq>:<bundle fingerprint>`` — changes on
        every ingest, rotation, and query-servable store mutation of the
        namespace; the key the planner's result cache is invalidated by.
        Both halves persist in the runtime tier (the sequence counters in
        ``live_state``, the bundle revision in ``revisions``), and a
        checkpoint write moves neither, so a clean shutdown → restart
        cycle reproduces the token and keeps cached answers servable.
        """
        with self._lock:
            self._window(namespace)  # validates the name
            window_seq, ingest_seq = self._live_seqs[namespace]
            return (
                f"w{window_seq}.{ingest_seq}:"
                f"{self.store.bundle_version(namespace)}"
            )

    def rotation_due(self) -> float:
        """The first instant (POSIX seconds on the manager's clock) at
        which a boundary rotation can move a token: the end of the
        oldest live window's bucket."""
        with self._lock:
            buckets = {group.bucket for group in self._groups}
        return min(bucket_bounds(bucket)[1] for bucket in buckets).timestamp()

    def live_info(self, namespace: str) -> dict:
        """Status snapshot of one live window (for ``/status``)."""
        with self._lock:
            window = self._window(namespace)
            config = self.configs[namespace]
            return {
                "namespace": namespace,
                "bucket": window.bucket,
                "buffered_events": window.events,
                "version": self.version(namespace),
                "k": config.k,
                "assignments": list(config.assignments),
            }

    def live_bundle(self, namespace: str):
        """The bundle of :meth:`live_view` alone.

        Kept for the frozen benchmark probe (``benchmarks/perf``), its
        last caller; new code reads :meth:`live_view`.
        """
        return self.live_view(namespace)[2]

    def live_view(self, namespace: str) -> tuple[str, int, "object | None"]:
        """Atomic ``(bucket, events, bundle)`` snapshot of the live window.

        One lock acquisition covers all three reads, so the bundle (or
        ``None`` when the window is empty) is guaranteed to belong to the
        returned bucket — the invariant the query planner's temporal
        snapshot needs when it decides which windows the live data falls
        into.  The first read after an ingest folds the new events of the
        window's whole group, under a ``live-finalize`` span and the
        ``repro_live_finalize_seconds`` histogram; every other read of
        the group (and an empty window) folds and records nothing.
        """
        with self._lock:
            window = self._window(namespace)
            if not window.events:
                return window.bucket, 0, None
            held = window.group.summarizers
            if not held.finalized(window.slot):
                started = time.perf_counter()
                with self._tracer.span("live-finalize", namespace=namespace):
                    held.finalize(window.slot)
                self._live_finalize_seconds.observe(
                    time.perf_counter() - started
                )
            return window.bucket, window.events, held.sketch_bundle(
                window.slot
            )

    # -- mutation -------------------------------------------------------------

    def ingest(
        self,
        namespace: str,
        keys,
        weights_by_assignment,
        when: float | None = None,
    ) -> dict:
        """Feed one event batch into a namespace's live window (one
        section of :meth:`ingest_sections`)."""
        return self.ingest_sections(
            [(namespace, keys, weights_by_assignment)], when
        )

    def ingest_sections(self, sections, when: float | None = None) -> dict:
        """Apply one batch of ``(namespace, keys, weights_by_assignment)``
        sections, each namespace at most once, as one apply: one lock,
        one rotation check, one ingest per window group (so the slots a
        routed frame carries land in their shared table at once) and one
        runtime transaction moving every section's ingest position.

        Rotates first when the clock has crossed a bucket boundary, so the
        batch always lands in the bucket of its arrival time.  Unknown
        assignment names and malformed weights (each section's checked
        against its own keys) raise ``ValueError`` before the state of
        their window group changes.  Returns the batch's event count and
        the last section's bucket and version.
        """
        started = time.perf_counter()
        with self._lock:
            for namespace, _, _ in sections:
                self._window(namespace)  # validates the name
            self.rotate(when=when)
            parts: dict[int, list] = {}
            for namespace, keys, weights in sections:
                window = self._windows[namespace]
                parts.setdefault(id(window.group), [window.group]).append(
                    (window.slot, keys, weights)
                )
            for group, *group_parts in parts.values():
                group.summarizers.ingest(group_parts)
            elapsed = time.perf_counter() - started
            # the runtime tier's own transaction: no stored artifact
            # changes, so the store's manifest cache is not re-read
            with self.store.runtime.transaction():
                for namespace, keys, _ in sections:
                    self._ingest_events.inc(len(keys), namespace=namespace)
                    self._ingest_seconds.observe(elapsed, namespace=namespace)
                    ingest_seq = self.store.runtime.record_ingest(namespace)
                    window_seq, _ = self._live_seqs[namespace]
                    self._live_seqs[namespace] = (window_seq, ingest_seq)
            return {
                "events": sum(len(keys) for _, keys, _ in sections),
                "bucket": self._windows[namespace].bucket,
                "version": self.version(namespace),
            }

    def rotate(
        self, when: float | None = None, force: bool = False
    ) -> list[StoreEntry]:
        """Publish closed live windows into the store; open fresh ones.

        A window's bundle is always published under the same
        :data:`LIVE_PART` name with ``overwrite=True``.  Two cases, each
        ONE store transaction per window group:

        * **boundary rotation** — the clock (or ``when``) has moved to a
          different bucket: each window's final bundle replaces any
          earlier flush of its bucket, its checkpoint (superseded by that
          bundle) is retired, the window positions move, and once that
          commits fresh windows open;
        * **flush** (``force`` inside the current bucket) — each window's
          checkpoint, its bundle and the checkpoint's ingest position
          commit together for crash durability, and the windows keep
          accumulating; because the next publish *overwrites* the same
          parts, keys repeating later in the bucket can never produce two
          store artifacts with overlapping keys.  While the window is
          non-empty the query planner serves the live view and ignores
          the window's own flush artifact, so nothing is double-counted.

        A crash before a commit leaves the previous checkpoint and the
        flush it covers; a crash after it, all of the new state.

        Empty windows never publish; they just follow the clock.  Returns
        the newly written sketch-bundle entries (checkpoint artifacts are
        plumbing, not query-servable data).
        """
        started = time.perf_counter()
        with self._lock:
            now = self.clock() if when is None else when
            now_bucket = bucket_for(now, self.granularity)
            written: list[StoreEntry] = []
            for group in self._groups:
                closing = group.bucket != now_bucket
                held = group.summarizers
                full = [
                    (slot, name) for slot, name in enumerate(group.names)
                    if held.events(slot)
                ]
                if not closing and not (force and full):
                    continue
                # every checkpoint before the first bundle folds them
                states = [
                    None if closing else held.checkpoint_state(slot)
                    for slot, _ in full
                ]
                bundles = [held.sketch_bundle(slot) for slot, _ in full]
                with self.store.transaction():
                    for (_, name), state, bundle in zip(full, states, bundles):
                        if state is not None:
                            self._write_checkpoint(name, group.bucket, state)
                        written.append(self.store.write(
                            name, group.bucket, bundle,
                            part=LIVE_PART, overwrite=True,
                        ))
                        if closing:  # the bundle supersedes the checkpoint
                            self.store.remove(
                                name, group.bucket, CHECKPOINT_PART,
                                missing_ok=True,
                            )
                    if closing:
                        for name in group.names:
                            window_seq, ingest_seq = self._live_seqs[name]
                            if window_seq != ingest_seq:
                                self.store.runtime.set_window_seq(
                                    name, ingest_seq
                                )
                if closing:
                    group.open(now_bucket)
                    for name in group.names:
                        ingest_seq = self._live_seqs[name][1]
                        self._live_seqs[name] = (ingest_seq, ingest_seq)
            if written:
                self._rotations.inc(len(written))
                self._rotation_seconds.observe(time.perf_counter() - started)
            return written

    def _write_checkpoint(self, name: str, bucket: str, state):
        """Write ``name``'s checkpoint and record the ingest position it
        froze (inside the caller's transaction)."""
        entry = self.store.write(
            name, bucket, state, part=CHECKPOINT_PART, overwrite=True
        )
        self.store.runtime.set_checkpoint_seq(name, self._live_seqs[name][1])
        return entry

    def reset(self, namespace: str) -> dict:
        """Purge one namespace: live window, store artifacts, checkpoint.

        The cluster-handoff primitive: before a worker receives a copied
        slot it may have held before, its leftover state must go — a
        former holder's artifacts are either outdated (they missed the
        deliveries made after ownership moved away) or duplicated
        key-for-key by the incoming copy, and either way the exact merge
        would reject or miscount them.  The ingest sequence advances, so
        the namespace's version token moves and no answer cached against
        the pre-purge state can replay.  The window's group rotates
        first when its bucket has closed, so the emptied window opens
        over the current bucket, as its siblings' do.
        """
        with self._lock:
            window = self._window(namespace)
            self.rotate()
            with self.store.transaction():
                entries = self.store.entries(namespace)
                for entry in entries:
                    self.store.remove(
                        namespace, entry.bucket, entry.part, missing_ok=True
                    )
                ingest_seq = self.store.runtime.record_ingest(namespace)
                self.store.runtime.set_window_seq(namespace, ingest_seq)
            window.group.summarizers.drop(window.slot)
            self._live_seqs[namespace] = (ingest_seq, ingest_seq)
            return {"namespace": namespace, "removed": len(entries)}

    def compact(self, to: str = "hour") -> list[StoreEntry]:
        """Roll stored buckets up to coarser granularity (exact merge).

        The coarse group a *non-empty* live window is still feeding is
        skipped: its :data:`LIVE_PART` artifact will be overwritten again
        (flush, boundary rotation), which must not race a rollup that
        folded the stale revision in.  Once the window has moved on, the
        group compacts on the next pass.  Exactness makes compaction
        invisible to queries: the version token still changes (the
        manifest moved), so cached results rebuild, but the rebuilt
        answers are bit-identical.
        """
        from repro.store.store import (
            GRANULARITIES,
            bucket_granularity,
            coarsen_bucket,
        )

        with self._lock:
            written: list[StoreEntry] = []
            for name, window in self._windows.items():
                exclude = None
                if window.events and (
                    GRANULARITIES.index(bucket_granularity(window.bucket))
                    <= GRANULARITIES.index(to)
                ):
                    exclude = [coarsen_bucket(window.bucket, to)]
                written.extend(
                    self.store.compact(
                        name, to=to, exclude_buckets=exclude
                    )
                )
            self._compactions.inc(len(written))
            return written

    def checkpoint(self) -> list[StoreEntry]:
        """Freeze every non-empty live window into the store (shutdown).

        Each window's :class:`~repro.store.codec.SummarizerCheckpoint`
        lands at ``<namespace>/<bucket>/live-window`` (overwriting any
        stale one), so the next :class:`LiveWindowManager` resumes the
        stream bit-identically.  Every window's checkpoint and ingest
        position commit in one transaction; a restart that resumes a
        checkpoint frozen at the stream head keeps the version token (and
        the answers cached under it).  The result cache's pending rows
        are written in the same transaction.  Windows stay usable after
        checkpointing.
        """
        with self._lock, self.store.transaction():
            written = [
                self._write_checkpoint(
                    name, window.bucket,
                    window.group.summarizers.checkpoint_state(window.slot),
                )
                for name, window in self._windows.items()
                if window.events
            ]
            self.store.runtime.cache_flush()
            return written

    def __repr__(self) -> str:
        return (
            f"LiveWindowManager(namespaces={list(self.configs)!r}, "
            f"granularity={self.granularity!r})"
        )
