"""Durable summary registry: namespaces, time buckets, exact rollups.

:class:`SummaryStore` persists the engine's artifacts so summaries survive
process restarts and can be served long after ingestion:

* **layout** — one WAL-mode SQLite ``runtime.sqlite`` at the root (the
  :class:`~repro.store.runtime.RuntimeStore` tier) holds a manifest row
  per artifact and, under the same key, its codec bytes (format v1, what
  a ``.cws`` file holds; ``repro-store export`` writes one out);
* **one transaction per mutation** — :meth:`write`, :meth:`remove` and
  :meth:`compact` each touch rows only, in one ``BEGIN IMMEDIATE``
  transaction with the part allocation and revision bumps, and
  :meth:`transaction` composes several into one commit.  A crash leaves
  the state before a commit or after it; concurrent writers sharing one
  root compose instead of losing each other's entries;
* **legacy roots are refused, not read** — a root that still holds the
  pre-runtime-tier JSON ``manifest.json`` and no ``runtime.sqlite``, or a
  schema-v1 tier whose manifest names files under ``data/``, raises
  :class:`~repro.store.codec.UnsupportedFormatError` on open and is left
  unchanged;
* **time buckets** — bucket ids are UTC timestamps at ``minute``
  (``YYYYMMDDTHHMM``), ``hour`` (``YYYYMMDDTHH``), or ``day``
  (``YYYYMMDD``) granularity, so a bucket id *is* its coarsening prefix;
* **merge-based compaction** — :meth:`compact` rolls fine buckets up into
  coarser ones (minute→hour→day) with the exact
  :func:`~repro.engine.merge.merge_bottomk` / ``merge_poisson``
  primitives, so a compacted store answers
  :class:`~repro.engine.queries.QueryEngine` queries identically to
  merging the raw artifacts in memory.  Rollups require the grouped
  artifacts to be key-disjoint (shards of one partition, or event logs
  whose keys do not recur across buckets); duplicate keys make the merge
  raise rather than silently double-count.

The store holds three artifact kinds: :class:`~repro.store.codec.SketchBundle`
(per-assignment sketches — the unit of rollups and query serving),
:class:`~repro.core.summary.MultiAssignmentSummary` (assembled summaries,
stored as-is), and :class:`~repro.store.codec.SummarizerCheckpoint`
(mid-ingestion snapshots of a
:class:`~repro.engine.ShardedSummarizer`, restored with
``ShardedSummarizer.from_checkpoint(store.load(entry))``).
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

from repro.core.summary import MultiAssignmentSummary
from repro.store.codec import (
    CodecError,
    SketchBundle,
    SummarizerCheckpoint,
    UnsupportedFormatError,
    decode,
    encode,
)
from repro.store.runtime import RUNTIME_FILENAME, RuntimeStore

__all__ = [
    "GRANULARITIES",
    "BUNDLE_KINDS",
    "bucket_granularity",
    "coarsen_bucket",
    "bucket_for",
    "bucket_bounds",
    "StoreEntry",
    "SummaryStore",
]

#: bucket granularities, finest first
GRANULARITIES = ("minute", "hour", "day")

_BUCKET_FORMATS = {
    "minute": ("%Y%m%dT%H%M", 13),
    "hour": ("%Y%m%dT%H", 11),
    "day": ("%Y%m%d", 8),
}

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: the JSON manifest of stores written before the runtime tier (PR 6)
_LEGACY_MANIFEST = "manifest.json"


def bucket_granularity(bucket: str) -> str:
    """Granularity of a bucket id, inferred from its format.

    >>> bucket_granularity("20260728T1201")
    'minute'
    >>> bucket_granularity("20260728")
    'day'
    """
    for granularity, (fmt, width) in _BUCKET_FORMATS.items():
        if len(bucket) == width:
            try:
                datetime.strptime(bucket, fmt)
            except ValueError:
                break
            return granularity
    raise ValueError(
        f"invalid bucket id {bucket!r}; expected YYYYMMDDTHHMM (minute), "
        "YYYYMMDDTHH (hour), or YYYYMMDD (day)"
    )


def coarsen_bucket(bucket: str, to: str) -> str:
    """Coarsen a bucket id to granularity ``to`` (a prefix truncation).

    >>> coarsen_bucket("20260728T1201", "hour")
    '20260728T12'
    >>> coarsen_bucket("20260728T12", "day")
    '20260728'
    """
    if to not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity {to!r}; known: {', '.join(GRANULARITIES)}"
        )
    current = bucket_granularity(bucket)
    if GRANULARITIES.index(current) > GRANULARITIES.index(to):
        raise ValueError(
            f"cannot refine bucket {bucket!r} ({current}) to finer "
            f"granularity {to!r}"
        )
    return bucket[: _BUCKET_FORMATS[to][1]]


def bucket_for(when: datetime | float, granularity: str = "minute") -> str:
    """Bucket id of a timestamp (datetime or POSIX seconds, UTC).

    >>> bucket_for(datetime(2026, 7, 28, 12, 1, tzinfo=timezone.utc))
    '20260728T1201'
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity {granularity!r}; known: "
            f"{', '.join(GRANULARITIES)}"
        )
    if not isinstance(when, datetime):
        when = datetime.fromtimestamp(float(when), tz=timezone.utc)
    elif when.tzinfo is not None:
        when = when.astimezone(timezone.utc)
    return when.strftime(_BUCKET_FORMATS[granularity][0])


def _as_utc(when: datetime | float | None) -> datetime | None:
    """Normalize an instant (datetime or POSIX seconds) to aware UTC."""
    if when is None:
        return None
    if not isinstance(when, datetime):
        return datetime.fromtimestamp(float(when), tz=timezone.utc)
    if when.tzinfo is None:
        return when.replace(tzinfo=timezone.utc)
    return when.astimezone(timezone.utc)


def bucket_bounds(bucket: str) -> tuple[datetime, datetime]:
    """UTC half-open time span ``[start, end)`` a bucket id covers.

    Lets callers intersect buckets of *different* granularities — a minute
    bucket, the hour rollup that absorbed it, and a day bucket all report
    overlapping spans, so time-range selection keeps working across
    compaction.

    >>> lo, hi = bucket_bounds("20260728T12")
    >>> (hi - lo).total_seconds()
    3600.0
    """
    granularity = bucket_granularity(bucket)
    fmt, _ = _BUCKET_FORMATS[granularity]
    start = datetime.strptime(bucket, fmt).replace(tzinfo=timezone.utc)
    if granularity == "minute":
        return start, start + timedelta(minutes=1)
    if granularity == "hour":
        return start, start + timedelta(hours=1)
    return start, start + timedelta(days=1)


@dataclass(frozen=True)
class StoreEntry:
    """One manifest row: which artifact, what it holds, which write.

    ``seq`` numbers the write (monotonic, never reused), so loading an
    entry whose part was since overwritten or removed raises
    :class:`FileNotFoundError` rather than reading other bytes."""

    namespace: str
    bucket: str
    part: str
    kind: str  # "bottomk" | "poisson" | "summary" | "checkpoint"
    assignments: tuple[str, ...]
    nbytes: int
    seq: int

    @property
    def granularity(self) -> str:
        return bucket_granularity(self.bucket)

    def to_json(self) -> dict:
        return {
            "namespace": self.namespace,
            "bucket": self.bucket,
            "part": self.part,
            "kind": self.kind,
            "assignments": list(self.assignments),
            "nbytes": self.nbytes,
            "seq": self.seq,
        }


#: entry kinds that participate in rollups and query serving
BUNDLE_KINDS = ("bottomk", "poisson")

#: part name of a service live-window checkpoint.  Its presence marks a
#: bucket whose bundle may still be *re-published* (the stopped service
#: resumes the checkpoint and overwrites the bucket's flush artifact on
#: rotation), so compaction refuses to fold that bucket's group into a
#: rollup until the checkpoint is consumed.  Other checkpoint artifacts
#: (arbitrary mid-ingestion snapshots) do not block compaction.
LIVE_CHECKPOINT_PART = "live-window"


class SummaryStore:
    """Namespace- and time-bucket-partitioned registry of codec artifacts.

    >>> import tempfile
    >>> from repro.ranks import IppsRanks, KeyHasher
    >>> from repro.sampling.bottomk import BottomKStreamSampler
    >>> from repro.store.codec import SketchBundle
    >>> sampler = BottomKStreamSampler(2, IppsRanks(), KeyHasher(7))
    >>> sampler.process_stream([("a", 3.0), ("b", 1.0)])
    >>> bundle = SketchBundle("bottomk", {"h1": sampler.sketch()},
    ...                       IppsRanks(), hasher_salt=7)
    >>> root = tempfile.mkdtemp()
    >>> store = SummaryStore(root)
    >>> entry = store.write("flows", "20260728T1201", bundle)
    >>> [e.bucket for e in store.entries("flows")]
    ['20260728T1201']
    >>> SummaryStore(root).load(entry).equals(bundle)
    True
    """

    def __init__(self, root, create: bool = True) -> None:
        self.root = Path(root)
        self._entries: list[StoreEntry] = []
        self._revisions: dict[str, tuple[int, int]] = {}
        self._global_rev = 0
        if not (self.root / RUNTIME_FILENAME).exists():
            if (self.root / _LEGACY_MANIFEST).exists():
                # Opening would initialize an empty runtime tier over the
                # artifacts the JSON manifest lists: a store that looks
                # empty and answers from nothing.
                raise UnsupportedFormatError(
                    f"{self.root / _LEGACY_MANIFEST} is a pre-runtime-tier "
                    f"store manifest and the root has no {RUNTIME_FILENAME}; "
                    "this version no longer reads that format — open the "
                    "root once with a PR 6–16 tree, which migrates it in "
                    "place"
                )
            if not create:
                raise FileNotFoundError(
                    f"no store at {self.root} (missing its manifest, "
                    f"{RUNTIME_FILENAME}); pass create=True to initialize one"
                )
        self.root.mkdir(parents=True, exist_ok=True)
        self.runtime = RuntimeStore(self.root)
        self._sync()

    # -- manifest -------------------------------------------------------------

    def _sync(self) -> None:
        """Mirror the runtime tier's manifest into this handle's caches."""
        snapshot = self.runtime.manifest_snapshot()
        self._entries = [
            StoreEntry(**row) for row in snapshot["entries"]
        ]
        self._revisions = snapshot["revisions"]
        self._global_rev = snapshot["global_rev"]

    def refresh(self) -> None:
        """Re-read the manifest (picks up other processes' mutations)."""
        self._sync()

    @contextlib.contextmanager
    def transaction(self):
        """Compose several mutations into ONE runtime-tier commit.

        :meth:`write`, :meth:`remove` and :meth:`compact` each run in one;
        nested scopes join the outermost.  Once the outermost commits — or
        rolls back — the handle's cached manifest is re-read, so it never
        shows a rolled-back row.
        """
        outermost = False
        try:
            with self.runtime.transaction():
                outermost = self.runtime.depth == 1
                yield self
        finally:
            if outermost:
                self._sync()

    # -- listing --------------------------------------------------------------

    def entries(
        self,
        namespace: str | None = None,
        buckets: Sequence[str] | None = None,
        kind: str | None = None,
    ) -> list[StoreEntry]:
        """Manifest entries, optionally filtered; manifest order."""
        wanted = None if buckets is None else set(buckets)
        return [
            entry
            for entry in self._entries
            if (namespace is None or entry.namespace == namespace)
            and (wanted is None or entry.bucket in wanted)
            and (kind is None or entry.kind == kind)
        ]

    def namespaces(self) -> list[str]:
        """Distinct namespaces, in first-write order."""
        seen: dict[str, None] = {}
        for entry in self._entries:
            seen.setdefault(entry.namespace, None)
        return list(seen)

    def ls(self, namespace: str | None = None) -> str:
        """Human-readable manifest listing (the CLI's ``ls`` output)."""
        selected = self.entries(namespace)
        if not selected:
            return (
                f"(empty store at {self.root})"
                if namespace is None
                else f"(no artifacts for namespace {namespace!r})"
            )
        rows = [("NAMESPACE", "BUCKET", "GRAN", "PART", "KIND",
                 "ASSIGNMENTS", "BYTES")]
        for entry in selected:
            rows.append((
                entry.namespace,
                entry.bucket,
                entry.granularity,
                entry.part,
                entry.kind,
                ",".join(entry.assignments) or "-",
                f"{entry.nbytes:,}",
            ))
        widths = [max(len(row[col]) for row in rows) for col in range(7)]
        return "\n".join(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in rows
        )

    def version(self, namespace: str | None = None) -> str:
        """Manifest revision fingerprint (optionally one namespace).

        Changes exactly when the covered entries change — a write, remove,
        overwrite, or compaction — which is what lets callers *watch* the
        store: the service's query planner keys its result cache on this
        value, so cached answers are invalidated the moment the backing
        artifacts move.  Derived in O(1) from the runtime tier's
        monotonic revision counters (no manifest re-serialization); call
        :meth:`refresh` first to observe other processes' mutations.
        """
        if namespace is None:
            return f"r{self._global_rev}"
        rev, _bundle_rev = self._revisions.get(namespace, (0, 0))
        return f"{namespace}.r{rev}"

    def bundle_version(self, namespace: str) -> str:
        """Fingerprint of a namespace's *query-servable* content.

        Moves only when sketch-bundle entries change (write, overwrite,
        remove, compaction) — checkpoint and summary artifacts leave it
        alone.  The service keys its persistent result cache on this, so
        a clean shutdown (which writes a live-window checkpoint) followed
        by a restart keeps previously cached answers valid.
        """
        _rev, bundle_rev = self._revisions.get(namespace, (0, 0))
        return f"b{bundle_rev}"

    def ls_json(self, namespace: str | None = None) -> dict:
        """Machine-readable manifest listing (``repro-store ls --json``).

        One format shared by the CLI and the service's ``/status``
        endpoint: per namespace its version fingerprint, bucket ids, total
        bytes, and the full entry rows.
        """
        namespaces = []
        for name in self.namespaces():
            if namespace is not None and name != namespace:
                continue
            rows = self.entries(name)
            namespaces.append({
                "namespace": name,
                "version": self.version(name),
                "nbytes": sum(entry.nbytes for entry in rows),
                "buckets": sorted({entry.bucket for entry in rows}),
                "entries": [
                    {**entry.to_json(), "granularity": entry.granularity}
                    for entry in rows
                ],
            })
        return {
            "root": str(self.root),
            "version": self.version(),
            "namespaces": namespaces,
        }

    def bundle_entries(
        self,
        namespace: str,
        buckets: Sequence[str] | None = None,
        since: str | None = None,
        until: str | None = None,
    ) -> list[StoreEntry]:
        """Sketch-bundle entries of a namespace, optionally time-windowed.

        ``since`` / ``until`` are bucket ids of *any* granularity naming an
        inclusive time window (the span of ``since`` up to the end of the
        span of ``until``); an entry is selected when its own bucket span
        intersects the window, so the selection is stable across
        minute→hour→day compaction.  ``buckets`` restricts to exact bucket
        ids instead (mutually exclusive with the window).
        """
        if buckets is not None and (since is not None or until is not None):
            raise ValueError("pass either buckets or a since/until window")
        selected = [
            entry
            for entry in self.entries(namespace, buckets)
            if entry.kind in BUNDLE_KINDS
        ]
        if since is None and until is None:
            return selected
        window_lo = bucket_bounds(since)[0] if since is not None else None
        window_hi = bucket_bounds(until)[1] if until is not None else None
        windowed = []
        for entry in selected:
            lo, hi = bucket_bounds(entry.bucket)
            if window_lo is not None and hi <= window_lo:
                continue
            if window_hi is not None and lo >= window_hi:
                continue
            windowed.append(entry)
        return windowed

    def bundle_entries_spanning(
        self,
        namespace: str,
        start: datetime | float | None = None,
        end: datetime | float | None = None,
    ) -> list[StoreEntry]:
        """Sketch-bundle entries whose bucket span intersects ``[start, end)``.

        The timestamp-level sibling of :meth:`bundle_entries`: selection is
        by raw UTC instants (datetime or POSIX seconds) against each
        entry's half-open :func:`bucket_bounds` span, which is what the
        service's sliding-window planner resolves ``window=15m step=1m``
        specs with.  Like the bucket-id form, the selection is stable
        across minute→hour→day compaction — a rollup bucket is selected
        whenever any instant of the window falls inside it.
        """
        start_dt = _as_utc(start)
        end_dt = _as_utc(end)
        selected = []
        for entry in self.entries(namespace):
            if entry.kind not in BUNDLE_KINDS:
                continue
            lo, hi = bucket_bounds(entry.bucket)
            if start_dt is not None and hi <= start_dt:
                continue
            if end_dt is not None and lo >= end_dt:
                continue
            selected.append(entry)
        return selected

    # -- writing --------------------------------------------------------------

    @staticmethod
    def _kind_of(obj) -> tuple[str, tuple[str, ...]]:
        if isinstance(obj, SketchBundle):
            return obj.kind, tuple(obj.assignments)
        if isinstance(obj, MultiAssignmentSummary):
            return "summary", tuple(obj.assignments)
        if isinstance(obj, SummarizerCheckpoint):
            return "checkpoint", tuple(obj.assignments)
        raise CodecError(
            f"a store holds SketchBundle, MultiAssignmentSummary, or "
            f"SummarizerCheckpoint artifacts, got {type(obj).__name__}"
        )

    def _free_part_tx(self, namespace: str, bucket: str, stem: str) -> str:
        """Transaction-consistent part allocation (committed rows + ours)."""
        taken = self.runtime.slot_parts(namespace, bucket)
        index = 0
        while f"{stem}-{index:04d}" in taken:
            index += 1
        return f"{stem}-{index:04d}"

    def _publish(
        self, namespace, bucket, part, kind, assignments, blob: bytes
    ) -> StoreEntry:
        """Upsert one artifact's row and bytes (inside a transaction)."""
        seq = self.runtime.replace_entry(
            namespace, bucket, part, kind, assignments, blob
        )
        return StoreEntry(
            namespace, bucket, part, kind, tuple(assignments), len(blob), seq
        )

    def write(
        self,
        namespace: str,
        bucket: str,
        obj,
        part: str | None = None,
        overwrite: bool = False,
    ) -> StoreEntry:
        """Encode one artifact and publish it in one transaction.

        ``part`` names the artifact within its (namespace, bucket) slot and
        defaults to the next free ``part-NNNN``; writing an existing part
        raises unless ``overwrite=True``.

        The part allocation, existence check, row and bytes, and revision
        bump commit together, so concurrent writers sharing one root
        cannot lose each other's entries or collide on part names, and an
        overwrite replaces the bytes exactly when it replaces the row.
        """
        if not _NAME_RE.match(namespace):
            raise ValueError(
                f"invalid namespace {namespace!r}; use letters, digits, "
                "and _ . - (leading alphanumeric)"
            )
        bucket_granularity(bucket)  # validates
        if part is not None and not _NAME_RE.match(part):
            raise ValueError(
                f"invalid part name {part!r}; use letters, digits, and "
                "_ . - (leading alphanumeric)"
            )
        kind, assignments = self._kind_of(obj)
        blob = encode(obj)
        with self.transaction():
            if part is None:
                part = self._free_part_tx(namespace, bucket, "part")
            if not overwrite and self.runtime.get_entry(
                namespace, bucket, part
            ) is not None:
                raise FileExistsError(
                    f"artifact {namespace}/{bucket}/{part} already exists; "
                    "pass overwrite=True to replace it"
                )
            entry = self._publish(
                namespace, bucket, part, kind, assignments, blob
            )
            self.runtime.record_mutation(
                namespace, bundles_changed=kind in BUNDLE_KINDS
            )
        return entry

    def remove(
        self, namespace: str, bucket: str, part: str, missing_ok: bool = False
    ) -> StoreEntry | None:
        """Drop one artifact — row and bytes — in one transaction.

        Returns the removed entry, or ``None`` when ``missing_ok`` and no
        such artifact exists.
        """
        with self.transaction():
            row = self.runtime.get_entry(namespace, bucket, part)
            if row is None:
                if missing_ok:
                    return None
                raise KeyError(
                    f"no artifact {namespace}/{bucket}/{part} in the store"
                )
            self.runtime.delete_entry(namespace, bucket, part)
            self.runtime.record_mutation(
                namespace, bundles_changed=row["kind"] in BUNDLE_KINDS
            )
        return StoreEntry(**row)

    # -- reading --------------------------------------------------------------

    def _resolve(
        self, namespace: str, bucket: str, part: str
    ) -> StoreEntry:
        for entry in self._entries:
            if (entry.namespace, entry.bucket, entry.part) == (
                namespace, bucket, part,
            ):
                return entry
        raise KeyError(f"no artifact {namespace}/{bucket}/{part} in the store")

    def _bytes(self, entry: StoreEntry) -> bytes:
        data = self.runtime.artifact_bytes(
            entry.namespace, entry.bucket, entry.part, entry.seq
        )
        if data is None:
            raise FileNotFoundError(
                f"artifact {entry.namespace}/{entry.bucket}/{entry.part} "
                f"(publication {entry.seq}) is no longer in the store"
            )
        return data

    def load(self, entry: StoreEntry, writable: bool = False):
        """Decode one artifact (CRC-verified; arrays read-only by default).

        Raises :class:`FileNotFoundError` when the entry's publication was
        removed or overwritten since the entry was listed.
        """
        return decode(self._bytes(entry), writable=writable, verify=True)

    def read(self, namespace: str, bucket: str, part: str, **kwargs):
        """Convenience: :meth:`load` by (namespace, bucket, part)."""
        return self.load(self._resolve(namespace, bucket, part), **kwargs)

    def read_blob(self, namespace: str, bucket: str, part: str) -> bytes:
        """One artifact's raw codec bytes (the ``GET /bundle`` wire form).

        No decode on the serving side: the blob was CRC-stamped by
        :func:`~repro.store.codec.encode` at write time and the receiver
        verifies it, so shipping the stored bytes verbatim is both the
        cheapest and the safest transport.
        """
        return self._bytes(self._resolve(namespace, bucket, part))

    def import_bundle(
        self,
        namespace: str,
        bucket: str,
        part: str,
        blob: bytes,
        overwrite: bool = False,
    ) -> StoreEntry:
        """Adopt one codec-encoded sketch bundle shipped from another store.

        The bucket-handoff receive path of cluster rebalancing: the blob
        is decoded with CRC verification (a corrupted transfer fails
        loudly before anything is published) and must be a sketch bundle
        — raw event checkpoints never travel between workers.  The
        re-encode inside :meth:`write` is deterministic, so the adopted
        artifact is byte-identical to the source worker's.
        """
        obj = decode(blob, verify=True)
        kind, _assignments = self._kind_of(obj)
        if kind not in BUNDLE_KINDS:
            raise ValueError(
                f"refusing to import artifact of kind {kind!r}; only "
                f"sketch bundles ({', '.join(BUNDLE_KINDS)}) are handed off"
            )
        return self.write(namespace, bucket, obj, part=part,
                          overwrite=overwrite)

    def merged_bundle(
        self, namespace: str, buckets: Sequence[str] | None = None
    ) -> SketchBundle:
        """Exact merge of every sketch bundle in a namespace (or buckets).

        The merge is per assignment over all matching artifacts, so it
        spans parts within a bucket and buckets across time alike; the
        underlying primitives raise on duplicate keys (not a key-disjoint
        partition) and on mismatched coordination metadata.
        """
        selected = self.bundle_entries(namespace, buckets)
        if not selected:
            raise KeyError(
                f"no sketch bundles for namespace {namespace!r}"
                + (f" in buckets {list(buckets)!r}" if buckets else "")
            )
        bundles = [self.load(entry) for entry in selected]
        return bundles[0].merge(*bundles[1:])

    def summary(
        self, namespace: str, buckets: Sequence[str] | None = None
    ) -> MultiAssignmentSummary:
        """Dispersed multi-assignment summary of a namespace's bundles."""
        return self.merged_bundle(namespace, buckets).summary()

    # -- compaction -----------------------------------------------------------

    def compact(
        self,
        namespace: str,
        to: str = "hour",
        exclude_buckets: Sequence[str] | None = None,
    ) -> list[StoreEntry]:
        """Roll sketch bundles up to coarser time buckets, exactly.

        Groups every bundle artifact of ``namespace`` whose bucket is finer
        than (or at) granularity ``to`` by its coarsened bucket id, merges
        each group with the exact sketch-merge primitives, publishes one
        ``rollup-NNNN`` artifact per coarse bucket, and retires the
        originals.  Groups that are already a single artifact at the target
        granularity are left untouched.  Summary and checkpoint artifacts
        never participate.

        Coarse buckets roll up one after another, in bucket order: each
        group's parts are loaded (CRC-verified), merged and encoded, and
        the rollup is published, all inside one transaction.  A merge of
        k-key sketches costs less than handing it to a worker, so there
        is no pool.  Once it commits, the pages the retired parts held go
        back to the file system.

        ``exclude_buckets`` names coarse (target-granularity) bucket ids
        to leave alone — the service uses it to skip the group its live
        window is still feeding, so an artifact a non-empty window will
        overwrite again never gets folded into a rollup.

        Returns the newly written entries.
        """
        if to not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {to!r}; known: {', '.join(GRANULARITIES)}"
            )
        with self.transaction():
            self._sync()
            written = self._compact_locked(namespace, to, exclude_buckets)
        if written:
            self.runtime.incremental_vacuum()
        return written

    def _compact_locked(
        self, namespace: str, to: str, exclude_buckets=None
    ) -> list[StoreEntry]:
        excluded = set() if exclude_buckets is None else set(exclude_buckets)
        # A live-window checkpoint marks a bucket whose bundle may still
        # be re-published (the stopped service resumes from it and
        # overwrites its flush on rotation).  Folding such a bucket into
        # a rollup would leave the rollup and the re-published bundle
        # holding the same keys — an unmergeable store.  Skip those
        # groups; they compact once the checkpoint is consumed.
        target_index = GRANULARITIES.index(to)
        for entry in self.entries(namespace, kind="checkpoint"):
            if entry.part != LIVE_CHECKPOINT_PART:
                continue
            if GRANULARITIES.index(entry.granularity) <= target_index:
                excluded.add(coarsen_bucket(entry.bucket, to))
        groups: dict[str, list[StoreEntry]] = {}
        for entry in self.entries(namespace):
            if entry.kind not in BUNDLE_KINDS:
                continue
            if GRANULARITIES.index(entry.granularity) > GRANULARITIES.index(to):
                continue  # already coarser than the target
            coarse = coarsen_bucket(entry.bucket, to)
            if coarse in excluded:
                continue
            groups.setdefault(coarse, []).append(entry)
        plan = [
            (coarse_bucket, group,
             self._free_part_tx(namespace, coarse_bucket, "rollup"))
            for coarse_bucket, group in sorted(groups.items())
            if len(group) > 1 or group[0].bucket != coarse_bucket
        ]
        if not plan:
            return []
        written: list[StoreEntry] = []
        for coarse_bucket, group, part in plan:
            bundles = [self.load(entry) for entry in group]
            blob = encode(bundles[0].merge(*bundles[1:]))
            for entry in group:
                self.runtime.delete_entry(
                    entry.namespace, entry.bucket, entry.part
                )
            # the merge's assignments: the union, first-encounter order
            assignments = dict.fromkeys(
                name for entry in group for name in entry.assignments
            )
            written.append(self._publish(
                namespace, coarse_bucket, part, group[0].kind,
                tuple(assignments), blob,
            ))
        self.runtime.record_mutation(namespace, bundles_changed=True)
        return written

    def __repr__(self) -> str:
        return (
            f"SummaryStore(root={str(self.root)!r}, "
            f"entries={len(self._entries)})"
        )
