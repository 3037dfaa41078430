"""Durable SQLite runtime tier: manifest, artifacts, query cache, journals.

:class:`RuntimeStore` is one WAL-mode ``runtime.sqlite`` per store root,
holding every piece of *runtime state* that used to live in ad-hoc JSON
files or evaporate with the process:

* the **bucket manifest** — one row per artifact, mutated in
  transactions (``BEGIN IMMEDIATE``), so a write + retire + compaction
  publishes atomically instead of rewriting a whole JSON file under a
  cross-process lock file;
* the **artifact bytes** — an ``artifacts`` row per manifest row, same
  key, written and deleted in the manifest row's transaction (a sibling
  table: handles re-read the whole manifest, the bytes only on a load);
* **revision counters** — a monotonic per-namespace (and global)
  revision that moves on every manifest mutation, plus a ``bundle``
  revision that moves only when *query-servable* entries (sketch
  bundles) change.  Version fingerprints derive from these in O(1)
  instead of re-hashing the manifest;
* **live-window sequence counters** — the service's per-namespace
  ingest/window positions, persisted so a version token survives a
  clean restart (which is what lets the result cache below keep
  serving across daemon restarts);
* a **persistent query-result cache** — answers keyed by the planner's
  version fingerprint with hit counts and timestamps, evicted least
  recently used first at a capacity bound.  Its rows live in memory,
  loaded once at open: a probe or a put runs no SQL, and
  :meth:`RuntimeStore.cache_flush` writes what changed since the last
  flush (puts, hit counts, evictions) behind, in one transaction;
* a coordinator's **membership** and **repair journal**, a worker's
  **continuous-query registrations**.

No event counts live here (a daemon's registry counts them, per
process): the tallies :meth:`RuntimeStore.stats` reports are durable,
each read from its own table — the result cache's from its rows in
memory, which the next flush writes.

Concurrency: every connection takes a process-wide thread lock around
its statements and relies on SQLite's own cross-process locking (WAL +
``busy_timeout``) between processes, so several ``SummaryStore`` writers
sharing one root compose without an advisory lock file.  A transaction
that cannot acquire the database write lock within the timeout raises
:class:`TimeoutError`.  The in-memory result cache has a lock of its own
(:attr:`RuntimeStore.cache_lock`), never held across a statement.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.store.codec import UnsupportedFormatError

__all__ = ["RuntimeStore", "RUNTIME_FILENAME"]

#: file name of the runtime tier database inside a store root
RUNTIME_FILENAME = "runtime.sqlite"

#: capacity of the persistent query-result cache (rows), workers' and
#: coordinators' alike
RESULT_CACHE_ENTRIES = 1024

#: v2: artifact bytes in ``artifacts`` (v1: files named by manifest.path)
_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS manifest (
    namespace   TEXT    NOT NULL,
    bucket      TEXT    NOT NULL,
    part        TEXT    NOT NULL,
    kind        TEXT    NOT NULL,
    assignments TEXT    NOT NULL,
    nbytes      INTEGER NOT NULL,
    seq         INTEGER NOT NULL,
    PRIMARY KEY (namespace, bucket, part)
);
CREATE INDEX IF NOT EXISTS manifest_seq ON manifest (seq);
CREATE TABLE IF NOT EXISTS artifacts (
    namespace TEXT NOT NULL,
    bucket    TEXT NOT NULL,
    part      TEXT NOT NULL,
    data      BLOB NOT NULL,
    PRIMARY KEY (namespace, bucket, part)
);
CREATE TABLE IF NOT EXISTS revisions (
    namespace  TEXT PRIMARY KEY,
    rev        INTEGER NOT NULL,
    bundle_rev INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS live_state (
    namespace      TEXT PRIMARY KEY,
    ingest_seq     INTEGER NOT NULL,
    window_seq     INTEGER NOT NULL,
    checkpoint_seq INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS query_cache (
    key         TEXT PRIMARY KEY,
    namespace   TEXT NOT NULL,
    version     TEXT NOT NULL,
    payload     TEXT NOT NULL,
    hits        INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    last_hit_at REAL NOT NULL
);
DROP TABLE IF EXISTS counters;
CREATE TABLE IF NOT EXISTS cluster_workers (
    worker_id TEXT PRIMARY KEY,
    host      TEXT    NOT NULL,
    port      INTEGER NOT NULL,
    joined_at REAL    NOT NULL,
    last_seen REAL,
    alive     INTEGER NOT NULL DEFAULT 1,
    failed    INTEGER NOT NULL DEFAULT 0,
    failed_at REAL
);
CREATE TABLE IF NOT EXISTS repairs (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    kind       TEXT    NOT NULL,
    slot       INTEGER NOT NULL,
    target     TEXT    NOT NULL,
    source     TEXT,
    status     TEXT    NOT NULL DEFAULT 'queued',
    reason     TEXT,
    detail     TEXT,
    attempts   INTEGER NOT NULL DEFAULT 0,
    created_at REAL    NOT NULL,
    updated_at REAL    NOT NULL
);
CREATE INDEX IF NOT EXISTS repairs_status ON repairs (status);
CREATE TABLE IF NOT EXISTS registrations (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    namespace       TEXT    NOT NULL,
    spec            TEXT    NOT NULL,
    threshold       TEXT    NOT NULL,
    cadence_s       REAL    NOT NULL,
    enabled         INTEGER NOT NULL DEFAULT 1,
    created_at      REAL    NOT NULL,
    update_seq      INTEGER NOT NULL DEFAULT 0,
    evaluations     INTEGER NOT NULL DEFAULT 0,
    triggered_count INTEGER NOT NULL DEFAULT 0,
    last_answer     TEXT,
    last_triggered  INTEGER NOT NULL DEFAULT 0,
    last_eval_at    REAL,
    last_error      TEXT
);
"""


def _json_default(obj):
    """Fold NumPy scalars (and anything ``.item()``-able) to plain numbers.

    Cached payloads must round-trip bit-identically; ``float(np.float64)``
    and ``int(np.int64)`` are exact, so coercion never changes an answer.
    """
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"cannot cache a result containing {type(obj).__name__!r}"
    )


@dataclass(slots=True)
class _CachedAnswer:
    """One result-cache row held in memory (``payload`` as persisted)."""

    namespace: str
    version: str
    payload: str
    hits: int
    created_at: float
    last_hit_at: float


_CACHE_UPSERT = (
    "INSERT INTO query_cache (key, namespace, version, payload, hits, "
    "created_at, last_hit_at) VALUES (?, ?, ?, ?, ?, ?, ?) "
    "ON CONFLICT(key) DO UPDATE SET payload = excluded.payload, "
    "version = excluded.version, hits = excluded.hits, "
    "last_hit_at = excluded.last_hit_at"
)


class RuntimeStore:
    """Thread-safe handle on one store root's ``runtime.sqlite``.

    All statements run on a single connection guarded by an
    :class:`threading.RLock`; write transactions open with ``BEGIN
    IMMEDIATE`` so cross-process writers serialize on SQLite's database
    lock (``busy_timeout`` bounded) instead of a lock file.
    :meth:`transaction` is nestable within a thread — inner scopes join
    the outer transaction, and only the outermost commit publishes.
    """

    def __init__(self, root, timeout: float = 30.0) -> None:
        self.root = Path(root)
        self.path = self.root / RUNTIME_FILENAME
        self.timeout = timeout
        self._lock = threading.RLock()
        self._depth = 0
        self._cache_lock = threading.RLock()
        # the query_cache rows, least recently used first, and the keys
        # changed (put or hit) / evicted since the last flush
        self._results: OrderedDict[str, _CachedAnswer] = OrderedDict()
        self._dirty: set[str] = set()
        self._evicted: set[str] = set()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False,
            isolation_level=None,
        )
        self._conn.row_factory = sqlite3.Row
        try:
            with self._lock:
                self._open()
        except BaseException:
            self._conn.close()
            raise

    def _open(self) -> None:
        self._conn.execute(
            f"PRAGMA busy_timeout = {int(self.timeout * 1000)}"
        )
        try:
            version = self.get_meta("schema_version")
        except sqlite3.OperationalError:  # a new database: no tables yet
            version = None
        if version is None:
            # only a database without tables takes an auto_vacuum mode
            self._conn.execute("PRAGMA auto_vacuum = INCREMENTAL")
        elif version != str(_SCHEMA_VERSION):
            raise UnsupportedFormatError(
                f"runtime tier schema version {version} at {self.path} "
                f"is not supported (supported: {_SCHEMA_VERSION})"
            )
        with contextlib.suppress(sqlite3.OperationalError):
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.executescript(_SCHEMA)
        if version is None:
            self.set_meta("schema_version", str(_SCHEMA_VERSION))
        for row in self._conn.execute(
            "SELECT key, namespace, version, payload, hits, created_at, "
            "last_hit_at FROM query_cache ORDER BY last_hit_at, created_at"
        ):
            self._results[row["key"]] = _CachedAnswer(*tuple(row)[1:])
        self._evict(RESULT_CACHE_ENTRIES)

    def close(self) -> None:
        """Flush the result cache, then close the connection."""
        with self._lock:
            try:
                self.cache_flush()
            finally:
                self._conn.close()

    # -- transactions ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Open :meth:`transaction` scopes (meaningful to the lock holder)."""
        return self._depth

    @contextlib.contextmanager
    def transaction(self):
        """One serialized write transaction (``BEGIN IMMEDIATE``), nestable.

        Raises :class:`TimeoutError` when another process holds the
        database write lock past ``busy_timeout``.
        """
        with self._lock:
            if self._depth == 0:
                try:
                    self._conn.execute("BEGIN IMMEDIATE")
                except sqlite3.OperationalError as err:
                    raise TimeoutError(
                        f"could not acquire the runtime-tier write lock on "
                        f"{self.path} within {self.timeout:.0f}s: {err}"
                    ) from None
            self._depth += 1
            try:
                yield self._conn
            except BaseException:
                self._depth -= 1
                if self._depth == 0:
                    self._conn.execute("ROLLBACK")
                raise
            else:
                self._depth -= 1
                if self._depth == 0:
                    try:
                        self._conn.execute("COMMIT")
                    except sqlite3.OperationalError as err:
                        self._conn.execute("ROLLBACK")
                        raise TimeoutError(
                            f"could not commit to the runtime tier at "
                            f"{self.path}: {err}"
                        ) from None

    def _execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        with self._lock:
            return self._conn.execute(sql, params)

    # -- meta -----------------------------------------------------------------

    def get_meta(self, key: str) -> str | None:
        row = self._execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row["value"]

    def set_meta(self, key: str, value: str) -> None:
        with self.transaction():
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )

    # -- manifest rows --------------------------------------------------------

    @staticmethod
    def _row_dict(row: sqlite3.Row) -> dict:
        return {
            "namespace": row["namespace"],
            "bucket": row["bucket"],
            "part": row["part"],
            "kind": row["kind"],
            "assignments": tuple(json.loads(row["assignments"])),
            "nbytes": row["nbytes"],
            "seq": row["seq"],
        }

    def manifest_snapshot(self) -> dict:
        """Entries + revision counters in one consistent read.

        Rows come back in publication order (an overwrite re-appends at
        the end).
        """
        with self.transaction():
            rows = self._conn.execute(
                "SELECT * FROM manifest ORDER BY seq"
            ).fetchall()
            revs = self._conn.execute("SELECT * FROM revisions").fetchall()
            global_rev = self.get_meta("rev")
        return {
            "entries": [self._row_dict(row) for row in rows],
            "revisions": {
                row["namespace"]: (row["rev"], row["bundle_rev"])
                for row in revs
            },
            "global_rev": 0 if global_rev is None else int(global_rev),
        }

    def get_entry(self, namespace: str, bucket: str, part: str) -> dict | None:
        row = self._execute(
            "SELECT * FROM manifest WHERE namespace = ? AND bucket = ? "
            "AND part = ?",
            (namespace, bucket, part),
        ).fetchone()
        return None if row is None else self._row_dict(row)

    def slot_parts(self, namespace: str, bucket: str) -> set[str]:
        """Part names already taken in one (namespace, bucket) slot."""
        rows = self._execute(
            "SELECT part FROM manifest WHERE namespace = ? AND bucket = ?",
            (namespace, bucket),
        ).fetchall()
        return {row["part"] for row in rows}

    def _next_seq(self) -> int:
        """The next publication number: monotonic and never reused, so
        ``(namespace, bucket, part, seq)`` names one write for good."""
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES ('seq', 1) "
            "ON CONFLICT(key) DO UPDATE SET value = value + 1"
        )
        return int(self.get_meta("seq"))

    def replace_entry(
        self, namespace, bucket, part, kind, assignments, data: bytes
    ) -> int:
        """Upsert one artifact — manifest row and bytes — at the end of
        publication order; returns its publication number (``seq``).

        Must run inside :meth:`transaction` alongside the revision bump
        (:meth:`record_mutation`) — callers compose write + retire +
        rollup into one atomic publication.
        """
        with self.transaction():
            seq = self._next_seq()
            self._conn.execute(
                "INSERT INTO manifest (namespace, bucket, part, kind, "
                "assignments, nbytes, seq) VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(namespace, bucket, part) DO UPDATE SET "
                "kind = excluded.kind, assignments = excluded.assignments, "
                "nbytes = excluded.nbytes, seq = excluded.seq",
                (
                    namespace, bucket, part, kind,
                    json.dumps(list(assignments)), len(data), seq,
                ),
            )
            self._conn.execute(
                "INSERT INTO artifacts (namespace, bucket, part, data) "
                "VALUES (?, ?, ?, ?) ON CONFLICT(namespace, bucket, part) "
                "DO UPDATE SET data = excluded.data",
                (namespace, bucket, part, data),
            )
            return seq

    def delete_entry(self, namespace: str, bucket: str, part: str) -> None:
        """Drop one artifact's manifest row and bytes together."""
        key = (namespace, bucket, part)
        with self.transaction():
            for table in ("manifest", "artifacts"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE namespace = ? AND "
                    "bucket = ? AND part = ?",
                    key,
                )

    def artifact_bytes(
        self, namespace: str, bucket: str, part: str, seq: int
    ) -> bytes | None:
        """The bytes of publication ``seq`` of one artifact, or ``None``
        once that publication was removed or overwritten."""
        row = self._execute(
            "SELECT artifacts.data FROM artifacts JOIN manifest "
            "USING (namespace, bucket, part) WHERE namespace = ? "
            "AND bucket = ? AND part = ? AND seq = ?",
            (namespace, bucket, part, seq),
        ).fetchone()
        return None if row is None else row["data"]

    def incremental_vacuum(self) -> None:
        """Hand the pages freed by deleted artifacts back to the file
        system (a no-op inside a transaction: they stay free for reuse)."""
        with self._lock:
            if not self._depth:  # executescript steps it to completion
                self._conn.executescript("PRAGMA incremental_vacuum;")

    def record_mutation(
        self, namespace: str, bundles_changed: bool
    ) -> None:
        """Bump the namespace's (and the global) revision counters.

        ``bundles_changed`` additionally moves the namespace's *bundle*
        revision — the fingerprint component query answers depend on.
        Checkpoint and summary artifacts leave it alone, which is what
        lets a shutdown-checkpoint → restart cycle keep its persistent
        result-cache entries valid.
        """
        with self.transaction():
            self._conn.execute(
                "INSERT INTO revisions (namespace, rev, bundle_rev) "
                "VALUES (?, 1, ?) "
                "ON CONFLICT(namespace) DO UPDATE SET "
                "rev = rev + 1, bundle_rev = bundle_rev + excluded.bundle_rev",
                (namespace, 1 if bundles_changed else 0),
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'rev'"
            ).fetchone()
            current = 0 if row is None else int(row["value"])
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('rev', ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (str(current + 1),),
            )

    # -- live-window sequence counters ----------------------------------------

    def live_seqs(self, namespace: str) -> tuple[int, int, int]:
        """``(window_seq, ingest_seq, checkpoint_seq)`` of a namespace.

        ``(0, 0, 0)`` when the namespace has never ingested.
        ``checkpoint_seq`` records the ingest position the namespace's
        live-window checkpoint was frozen at — equal to ``ingest_seq``
        exactly when the stored checkpoint holds everything ever
        ingested (a clean shutdown), which is what lets a restart keep
        its version token and its cached answers.
        """
        row = self._execute(
            "SELECT window_seq, ingest_seq, checkpoint_seq FROM live_state "
            "WHERE namespace = ?",
            (namespace,),
        ).fetchone()
        if row is None:
            return 0, 0, 0
        return (
            int(row["window_seq"]),
            int(row["ingest_seq"]),
            int(row["checkpoint_seq"]),
        )

    def record_ingest(self, namespace: str, events: int = 0) -> int:
        """Advance the namespace's ingest position by one batch.

        Returns the new ``ingest_seq``.  The batch size ``events`` is not
        stored: a daemon's registry counts events.
        """
        with self.transaction():
            self._conn.execute(
                "INSERT INTO live_state (namespace, ingest_seq, window_seq) "
                "VALUES (?, 1, 0) ON CONFLICT(namespace) DO UPDATE SET "
                "ingest_seq = ingest_seq + 1",
                (namespace,),
            )
            row = self._conn.execute(
                "SELECT ingest_seq FROM live_state WHERE namespace = ?",
                (namespace,),
            ).fetchone()
            return int(row["ingest_seq"])

    def set_window_seq(self, namespace: str, value: int) -> None:
        """Pin the namespace's window position (fresh window opened)."""
        with self.transaction():
            self._conn.execute(
                "INSERT INTO live_state (namespace, ingest_seq, window_seq) "
                "VALUES (?, 0, ?) ON CONFLICT(namespace) DO UPDATE SET "
                "window_seq = excluded.window_seq",
                (namespace, value),
            )

    def set_checkpoint_seq(self, namespace: str, value: int) -> None:
        """Record the ingest position a live-window checkpoint froze."""
        with self.transaction():
            self._conn.execute(
                "INSERT INTO live_state (namespace, ingest_seq, window_seq, "
                "checkpoint_seq) VALUES (?, 0, 0, ?) "
                "ON CONFLICT(namespace) DO UPDATE SET "
                "checkpoint_seq = excluded.checkpoint_seq",
                (namespace, value),
            )

    # -- persistent query-result cache ----------------------------------------

    @property
    def cache_lock(self) -> threading.RLock:
        """The in-memory result cache's lock.

        Held only around dictionary work, never across SQL, so a caller
        that must not wait (the daemon's event loop) can take it with
        ``acquire(blocking=False)`` and go elsewhere when it is busy.
        """
        return self._cache_lock

    def cache_get(self, key: str) -> dict | None:
        """The cached payload for ``key``, bumping its hit count — or None.

        Memory only: the hit reaches ``runtime.sqlite`` at the next
        :meth:`cache_flush`.
        """
        with self._cache_lock:
            row = self._results.get(key)
            if row is None:
                return None
            self._results.move_to_end(key)
            row.hits += 1
            row.last_hit_at = time.time()
            self._dirty.add(key)
            payload = row.payload
        return json.loads(payload)

    def cache_put(
        self,
        key: str,
        namespace: str,
        version: str,
        payload: dict,
        max_entries: int = RESULT_CACHE_ENTRIES,
    ) -> None:
        """Keep one computed answer; evict least recently used entries
        past capacity, never the one just put.

        Memory only: the row reaches ``runtime.sqlite`` at the next
        :meth:`cache_flush`, so a process killed before it loses the row
        (the next start recomputes that answer, it never serves a wrong
        one).
        """
        # allow_nan=False: cache rows obey the same RFC 8259-strict
        # contract as the wire (the planner sanitizes non-finite floats
        # into null + "non_finite" markers before they reach here), so a
        # replayed answer is byte-identical to the first serving and a
        # missed sanitization fails loudly instead of persisting an
        # unparseable row.
        blob = json.dumps(payload, default=_json_default, allow_nan=False)
        now = time.time()
        with self._cache_lock:
            row = self._results.get(key)
            if row is None:
                self._results[key] = _CachedAnswer(
                    namespace, version, blob, 0, now, now
                )
            else:
                row.version, row.payload, row.last_hit_at = version, blob, now
                self._results.move_to_end(key)
            self._dirty.add(key)
            self._evicted.discard(key)
            self._evict(max_entries)

    def _evict(self, max_entries: int) -> None:
        """Drop least recently used rows down to ``max_entries`` (at
        least the most recent row stays); the caller holds the lock."""
        while len(self._results) > max(1, max_entries):
            key, _row = self._results.popitem(last=False)
            self._dirty.discard(key)
            self._evicted.add(key)

    def cache_flush(self) -> int:
        """Write the result cache's changes since the last flush —
        puts, hit counts and evictions — in one transaction; returns the
        rows written or deleted.

        The cache lock is held only to take the changes, never across
        the SQL; the connection lock is held throughout, so a
        :meth:`cache_purge` cannot interleave and be undone.  A failed
        write leaves the changes pending for the next flush.
        """
        with self._lock:
            with self._cache_lock:
                rows = [
                    (key, row.namespace, row.version, row.payload, row.hits,
                     row.created_at, row.last_hit_at)
                    for key in self._dirty
                    for row in (self._results[key],)
                ]
                gone = [(key,) for key in self._evicted]
                self._dirty, self._evicted = set(), set()
            if not rows and not gone:
                return 0
            try:
                with self.transaction():
                    self._conn.executemany(
                        "DELETE FROM query_cache WHERE key = ?", gone
                    )
                    self._conn.executemany(_CACHE_UPSERT, rows)
            except BaseException:
                with self._cache_lock:
                    self._dirty.update(
                        row[0] for row in rows if row[0] in self._results
                    )
                    self._evicted.update(
                        key for (key,) in gone if key not in self._results
                    )
                raise
            return len(rows) + len(gone)

    def cache_purge(self, fragment: str) -> None:
        """Delete the cached answers whose version string contains
        ``fragment`` — from memory and, at once, from ``runtime.sqlite``
        (a purge is what keeps a reissued version token from hitting a
        stale row, so it is not written behind)."""
        with self._lock:
            with self._cache_lock:
                for key in [
                    key for key, row in self._results.items()
                    if fragment in row.version
                ]:
                    del self._results[key]
                    self._dirty.discard(key)
            with self.transaction():
                self._conn.execute(
                    "DELETE FROM query_cache WHERE instr(version, ?) > 0",
                    (fragment,),
                )

    def cache_stats(self) -> dict:
        """Entries and total hits, read from memory without a lock."""
        rows = list(self._results.values())
        return {"entries": len(rows), "hits": sum(row.hits for row in rows)}

    # -- cluster membership (coordinator runtime tier) ------------------------

    def cluster_join(
        self, worker_id: str, host: str, port: int,
        now: float | None = None,
    ) -> None:
        """Register (or re-register) one worker in the membership table.

        Re-joining with a new address updates the row in place — the
        restart-with-same-id path — and always marks the worker alive
        and un-failed (the next heartbeat round corrects an optimistic
        join; a promoted-failed worker re-enters service by rejoining).
        ``now`` lets the coordinator stamp rows from its injectable
        clock; defaults to wall time.
        """
        now = time.time() if now is None else now
        with self.transaction():
            self._conn.execute(
                "INSERT INTO cluster_workers "
                "(worker_id, host, port, joined_at, last_seen, alive, "
                "failed, failed_at) "
                "VALUES (?, ?, ?, ?, ?, 1, 0, NULL) "
                "ON CONFLICT(worker_id) DO UPDATE SET "
                "host = excluded.host, port = excluded.port, "
                "last_seen = excluded.last_seen, alive = 1, "
                "failed = 0, failed_at = NULL",
                (worker_id, host, int(port), now, now),
            )

    def cluster_leave(self, worker_id: str) -> bool:
        """Drop one worker from membership; True when it was registered."""
        with self.transaction():
            cursor = self._conn.execute(
                "DELETE FROM cluster_workers WHERE worker_id = ?",
                (worker_id,),
            )
            return cursor.rowcount > 0

    def cluster_mark(
        self, worker_id: str, alive: bool, now: float | None = None
    ) -> None:
        """Record one heartbeat outcome (``last_seen`` moves only on life)."""
        now = time.time() if now is None else now
        with self.transaction():
            if alive:
                self._conn.execute(
                    "UPDATE cluster_workers SET alive = 1, last_seen = ? "
                    "WHERE worker_id = ?",
                    (now, worker_id),
                )
            else:
                self._conn.execute(
                    "UPDATE cluster_workers SET alive = 0 "
                    "WHERE worker_id = ?",
                    (worker_id,),
                )

    def cluster_set_failed(
        self, worker_id: str, failed: bool = True,
        now: float | None = None,
    ) -> bool:
        """Flip one worker's *failed* promotion flag; True when changed.

        A failed worker stays registered (its row documents the
        failure) but drops out of effective membership — routing,
        query planning, and ownership all ignore it until a rejoin
        clears the flag.
        """
        now = time.time() if now is None else now
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE cluster_workers SET failed = ?, failed_at = ? "
                "WHERE worker_id = ? AND failed != ?",
                (1 if failed else 0, now if failed else None,
                 worker_id, 1 if failed else 0),
            )
            return cursor.rowcount > 0

    def cluster_workers(self) -> list[dict]:
        """Membership rows, stable worker-id order."""
        rows = self._execute(
            "SELECT worker_id, host, port, joined_at, last_seen, alive, "
            "failed, failed_at "
            "FROM cluster_workers ORDER BY worker_id"
        ).fetchall()
        return [
            {
                **dict(row),
                "alive": bool(row["alive"]),
                "failed": bool(row["failed"]),
            }
            for row in rows
        ]

    # -- repair journal (coordinator runtime tier) ----------------------------

    @staticmethod
    def _repair_dict(row: sqlite3.Row) -> dict:
        return {
            "id": int(row["id"]),
            "kind": row["kind"],
            "slot": int(row["slot"]),
            "target": row["target"],
            "source": row["source"],
            "status": row["status"],
            "reason": row["reason"],
            "detail": row["detail"],
            "attempts": int(row["attempts"]),
            "created_at": float(row["created_at"]),
            "updated_at": float(row["updated_at"]),
        }

    def repair_enqueue(
        self,
        kind: str,
        slot: int,
        target: str,
        source: str | None = None,
        reason: str | None = None,
        now: float | None = None,
        dedupe: bool = True,
    ) -> int | None:
        """Queue one repair op; returns its id (``None`` when deduped).

        With ``dedupe`` (the default) an op is skipped when a queued or
        active op already covers the same ``(slot, target)`` — the
        planner re-scans stale bookkeeping every tick, and one pending
        op per broken copy is enough.
        """
        now = time.time() if now is None else now
        with self.transaction():
            if dedupe:
                existing = self._conn.execute(
                    "SELECT id FROM repairs WHERE slot = ? AND target = ? "
                    "AND status IN ('queued', 'active') LIMIT 1",
                    (int(slot), target),
                ).fetchone()
                if existing is not None:
                    return None
            cursor = self._conn.execute(
                "INSERT INTO repairs (kind, slot, target, source, status, "
                "reason, attempts, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, 'queued', ?, 0, ?, ?)",
                (kind, int(slot), target, source, reason, now, now),
            )
            return int(cursor.lastrowid)

    def repair_claim(
        self, op_id: int, now: float | None = None
    ) -> dict | None:
        """Atomically move one queued op to *active*; None when raced."""
        now = time.time() if now is None else now
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE repairs SET status = 'active', updated_at = ? "
                "WHERE id = ? AND status = 'queued'",
                (now, int(op_id)),
            )
            if cursor.rowcount == 0:
                return None
            row = self._conn.execute(
                "SELECT * FROM repairs WHERE id = ?", (int(op_id),)
            ).fetchone()
            return self._repair_dict(row)

    def repair_update(
        self,
        op_id: int,
        status: str,
        detail: str | None = None,
        source: str | None = None,
        bump_attempts: bool = False,
        now: float | None = None,
    ) -> None:
        """Resolve (or requeue) one op, recording outcome and timestamps."""
        now = time.time() if now is None else now
        with self.transaction():
            self._conn.execute(
                "UPDATE repairs SET status = ?, updated_at = ?, "
                "detail = COALESCE(?, detail), "
                "source = COALESCE(?, source), "
                "attempts = attempts + ? WHERE id = ?",
                (status, now, detail, source,
                 1 if bump_attempts else 0, int(op_id)),
            )

    def repair_requeue_active(self, now: float | None = None) -> int:
        """Return in-flight ops to the queue (coordinator restart resume).

        Every repair op is a purge-then-copy, idempotent end to end, so
        an op interrupted mid-copy by a coordinator crash simply runs
        again from the top.
        """
        now = time.time() if now is None else now
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE repairs SET status = 'queued', updated_at = ?, "
                "detail = 'requeued after coordinator restart' "
                "WHERE status = 'active'",
                (now,),
            )
            return cursor.rowcount

    def repairs(
        self, status: str | None = None, limit: int = 200
    ) -> list[dict]:
        """Journal rows, oldest first (optionally one status)."""
        if status is None:
            rows = self._execute(
                "SELECT * FROM repairs ORDER BY id LIMIT ?", (int(limit),)
            ).fetchall()
        else:
            rows = self._execute(
                "SELECT * FROM repairs WHERE status = ? ORDER BY id "
                "LIMIT ?",
                (status, int(limit)),
            ).fetchall()
        return [self._repair_dict(row) for row in rows]

    def repair_stats(self) -> dict:
        """Journal rollup for the stats surfaces."""
        rows = self._execute(
            "SELECT status, COUNT(*) AS n FROM repairs GROUP BY status"
        ).fetchall()
        counts = {row["status"]: int(row["n"]) for row in rows}
        return {
            "queued": counts.get("queued", 0),
            "active": counts.get("active", 0),
            "done": counts.get("done", 0),
            "failed": counts.get("failed", 0),
            "total": sum(counts.values()),
        }

    # -- continuous-query registrations ---------------------------------------

    @staticmethod
    def _watch_dict(row: sqlite3.Row) -> dict:
        answer = row["last_answer"]
        return {
            "id": int(row["id"]),
            "namespace": row["namespace"],
            "spec": json.loads(row["spec"]),
            "threshold": json.loads(row["threshold"]),
            "cadence_s": float(row["cadence_s"]),
            "enabled": bool(row["enabled"]),
            "created_at": float(row["created_at"]),
            "update_seq": int(row["update_seq"]),
            "evaluations": int(row["evaluations"]),
            "triggered_count": int(row["triggered_count"]),
            "last_answer": None if answer is None else json.loads(answer),
            "last_triggered": bool(row["last_triggered"]),
            "last_eval_at": (
                None if row["last_eval_at"] is None
                else float(row["last_eval_at"])
            ),
            "last_error": row["last_error"],
        }

    def register_watch(
        self,
        namespace: str,
        spec: dict,
        threshold: dict,
        cadence_s: float,
    ) -> int:
        """Persist one continuous-query registration; returns its id.

        ``spec`` is the query body the ticker will re-evaluate (same
        shape as a ``/query`` request), ``threshold`` an
        ``{"above": x}`` / ``{"below": x}`` trigger condition, and
        ``cadence_s`` the re-evaluation period.  Registrations live in
        ``runtime.sqlite``, so they survive daemon restarts.
        """
        with self.transaction():
            cursor = self._conn.execute(
                "INSERT INTO registrations (namespace, spec, threshold, "
                "cadence_s, created_at) VALUES (?, ?, ?, ?, ?)",
                (
                    namespace,
                    json.dumps(spec, allow_nan=False),
                    json.dumps(threshold, allow_nan=False),
                    float(cadence_s),
                    time.time(),
                ),
            )
            return int(cursor.lastrowid)

    def watches(self, namespace: str | None = None) -> list[dict]:
        """Every registration (optionally one namespace's), oldest first."""
        if namespace is None:
            rows = self._execute(
                "SELECT * FROM registrations ORDER BY id"
            ).fetchall()
        else:
            rows = self._execute(
                "SELECT * FROM registrations WHERE namespace = ? ORDER BY id",
                (namespace,),
            ).fetchall()
        return [self._watch_dict(row) for row in rows]

    def get_watch(self, watch_id: int) -> dict | None:
        row = self._execute(
            "SELECT * FROM registrations WHERE id = ?", (int(watch_id),)
        ).fetchone()
        return None if row is None else self._watch_dict(row)

    def remove_watch(self, watch_id: int) -> bool:
        """Delete one registration; True when a row was removed."""
        with self.transaction():
            cursor = self._conn.execute(
                "DELETE FROM registrations WHERE id = ?", (int(watch_id),)
            )
            return cursor.rowcount > 0

    def record_watch_eval(
        self,
        watch_id: int,
        answer: dict | None,
        triggered: bool,
        error: str | None = None,
    ) -> int:
        """Materialize one evaluation's outcome; returns the new update_seq.

        Every evaluation bumps ``update_seq`` (the long-poll wake
        cursor) and ``evaluations``; a triggered one additionally bumps
        ``triggered_count``.  The last answer row is what ``repro-serve
        stats`` and ``GET /watch`` report as registered-query health.
        """
        with self.transaction():
            self._conn.execute(
                "UPDATE registrations SET "
                "update_seq = update_seq + 1, "
                "evaluations = evaluations + 1, "
                "triggered_count = triggered_count + ?, "
                "last_answer = ?, last_triggered = ?, last_eval_at = ?, "
                "last_error = ? WHERE id = ?",
                (
                    1 if triggered else 0,
                    None if answer is None
                    else json.dumps(
                        answer, default=_json_default, allow_nan=False
                    ),
                    1 if triggered else 0,
                    time.time(),
                    error,
                    int(watch_id),
                ),
            )
            row = self._conn.execute(
                "SELECT update_seq FROM registrations WHERE id = ?",
                (int(watch_id),),
            ).fetchone()
            if row is None:
                raise KeyError(f"no continuous-query registration {watch_id}")
            return int(row["update_seq"])

    def watch_stats(self) -> dict:
        """Registered-query health rollup for the stats surfaces."""
        row = self._execute(
            "SELECT COUNT(*) AS n, "
            "COALESCE(SUM(evaluations), 0) AS evaluations, "
            "COALESCE(SUM(triggered_count), 0) AS triggers, "
            "COALESCE(SUM(last_triggered), 0) AS currently_triggered, "
            "COALESCE(SUM(last_error IS NOT NULL), 0) AS erroring "
            "FROM registrations"
        ).fetchone()
        return {
            "registrations": int(row["n"]),
            "evaluations": int(row["evaluations"]),
            "triggers": int(row["triggers"]),
            "currently_triggered": int(row["currently_triggered"]),
            "erroring": int(row["erroring"]),
        }

    # -- inspection -----------------------------------------------------------

    def stats(self) -> dict:
        """One machine-readable snapshot of the whole runtime tier.

        The payload behind ``repro-store stats`` and the ``runtime``
        section of a daemon's ``/status``.
        """
        snapshot = self.manifest_snapshot()
        per_namespace: dict[str, dict] = {}
        for entry in snapshot["entries"]:
            info = per_namespace.setdefault(
                entry["namespace"], {"entries": 0, "nbytes": 0}
            )
            info["entries"] += 1
            info["nbytes"] += entry["nbytes"]
        for namespace, (rev, bundle_rev) in snapshot["revisions"].items():
            info = per_namespace.setdefault(
                namespace, {"entries": 0, "nbytes": 0}
            )
            info["rev"] = rev
            info["bundle_rev"] = bundle_rev
        return {
            "path": str(self.path),
            "schema_version": _SCHEMA_VERSION,
            "revision": snapshot["global_rev"],
            "namespaces": per_namespace,
            "cache": self.cache_stats(),
            "watches": self.watch_stats(),
            "repairs": self.repair_stats(),
        }

    def __repr__(self) -> str:
        return f"RuntimeStore(path={str(self.path)!r})"
