"""Multicore execution layer: injectable executors + shared-memory handoff.

The paper's summaries are *mergeable over key-disjoint partitions by
construction* (Sections 4, 7), which makes shard-level parallelism free:
each shard of a :class:`~repro.engine.sharded.ShardedSummarizer` can fold
its pending events into its aggregated table in its own process, and the
parent's exact
:func:`~repro.engine.merge.merge_bottomk` reduction reproduces the serial
result bit for bit.  This module supplies the machinery:

* **executors** — :class:`SerialExecutor` (the default everywhere; runs
  tasks inline so small workloads and tests pay zero overhead),
  :class:`ThreadExecutor`, and :class:`ProcessExecutor`, all behind one
  :class:`Executor` interface whose :meth:`Executor.map` preserves input
  order and applies *chunked backpressure*: at most ``queue_depth`` tasks
  are in flight, and task payloads are materialized lazily at submission
  time, so a thousand-shard pipeline never stages a thousand payloads at
  once;
* **spec strings** — :func:`get_executor` parses ``"serial"``,
  ``"thread[:workers[:queue_depth]]"``, and
  ``"process[:workers[:queue_depth]]"``, the format every CLI flag and
  constructor argument accepts (:func:`executor_scope` additionally closes
  executors it created while leaving caller-owned ones alone);
* **shared-memory handoff** — :func:`ship_arrays` / :func:`open_arrays`
  move numeric numpy buffers to worker processes through
  :mod:`multiprocessing.shared_memory` segments instead of pickling the
  payload bytes: the parent packs each shard's pending ``(keys, weights)``
  chunks and its aggregated table into one segment, the worker maps them
  back as zero-copy views, and only a descriptor dict and the shard's
  ``k + 1`` entries cross the pipe — and only the fold's delta (touched
  keys, their new totals, the new entries) comes back;
* **worker entry points** — module-level functions (picklable under any
  start method) for the three parallel pipelines: per-shard fold
  (:func:`fold_shard_task`), per-bucket compaction merge
  (:func:`compact_group_task`), and per-namespace query serving
  (:func:`serve_namespace_task`).

Every parallel path reuses the exact serial code on the worker side, so
parallel results are bit-identical to serial ones by construction — the
property ``tests/test_parallel.py`` pins down.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "executor_scope",
    "available_workers",
    "ship_arrays",
    "ship_chunks",
    "open_arrays",
    "fold_shard_task",
    "sample_shard_task",
    "compact_group_task",
    "serve_namespace_task",
]


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# executor abstraction
# ---------------------------------------------------------------------------


class Executor:
    """Ordered task mapping with chunked backpressure.

    Subclasses set :attr:`cross_process` (whether task payloads cross an
    address-space boundary and therefore need shared-memory shipping) and
    implement :meth:`_submit`.  ``queue_depth`` bounds the number of
    in-flight tasks; because :meth:`map` pulls items from its iterable only
    when a submission slot frees up, lazily-built payloads (e.g. staged
    shared-memory segments) are never all materialized at once.
    """

    #: do task payloads cross process boundaries?
    cross_process = False

    def __init__(self, workers: int = 1, queue_depth: int | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth if queue_depth is not None else 2 * workers

    # -- subclass hooks -------------------------------------------------------

    def _submit(self, fn: Callable[[Any], Any], item: Any):
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    # -- public API -----------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list:
        """Apply ``fn`` to every item; results in input order.

        At most ``queue_depth`` tasks are in flight: the next item is drawn
        from ``items`` only once a slot frees up, and the oldest future is
        awaited first so results stream back in order.
        ``on_result(index, result)`` fires as each result is collected —
        callers that stage per-task resources (e.g. shared-memory
        segments) release them there, so live staging is bounded by the
        backpressure window rather than the whole task list.
        """
        iterator = iter(items)
        in_flight: deque = deque()
        results: list = []
        exhausted = False
        try:
            while True:
                while not exhausted and len(in_flight) < self.queue_depth:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    in_flight.append(self._submit(fn, item))
                if not in_flight:
                    return results
                results.append(in_flight.popleft().result())
                if on_result is not None:
                    on_result(len(results) - 1, results[-1])
        finally:
            for future in in_flight:
                future.cancel()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"queue_depth={self.queue_depth})"
        )


class _InlineFuture:
    """Minimal completed-future shim for the serial executor."""

    __slots__ = ("_value", "_error")

    def __init__(self, fn: Callable[[Any], Any], item: Any) -> None:
        self._error = None
        self._value = None
        try:
            self._value = fn(item)
        except BaseException as err:  # re-raised from result(), like a Future
            self._error = err

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def cancel(self) -> bool:
        return False


class SerialExecutor(Executor):
    """Runs every task inline in the calling thread (the default mode).

    ``map`` degenerates to a plain loop, so serial pipelines execute the
    exact pre-existing code path with zero overhead — the property that
    keeps default behavior (and stored artifacts) byte-identical.
    """

    def __init__(self) -> None:
        super().__init__(workers=1, queue_depth=1)

    def _submit(self, fn: Callable[[Any], Any], item: Any):
        return _InlineFuture(fn, item)


class ThreadExecutor(Executor):
    """Thread-pool executor: shared memory, no payload shipping.

    Best for I/O-heavy stages (store compaction, query serving from disk)
    and for numpy-heavy stages that release the GIL.
    """

    def __init__(
        self, workers: int | None = None, queue_depth: int | None = None
    ) -> None:
        super().__init__(
            available_workers() if workers is None else workers, queue_depth
        )
        self._pool: ThreadPoolExecutor | None = None

    def _submit(self, fn: Callable[[Any], Any], item: Any):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool.submit(fn, item)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessExecutor(Executor):
    """Process-pool executor: true multicore, shared-memory payloads.

    Task functions must be module-level (picklable); large numpy payloads
    should travel via :func:`ship_arrays` rather than pickling.  The pool
    is created lazily on first use, so constructing one (e.g. from a CLI
    default) costs nothing until work is actually submitted.
    """

    cross_process = True

    def __init__(
        self,
        workers: int | None = None,
        queue_depth: int | None = None,
        start_method: str | None = None,
    ) -> None:
        super().__init__(
            available_workers() if workers is None else workers, queue_depth
        )
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None

    def _submit(self, fn: Callable[[Any], Any], item: Any):
        if self._pool is None:
            context = None
            if self.start_method is not None:
                import multiprocessing

                context = multiprocessing.get_context(self.start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool.submit(fn, item)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_MODES = ("serial", "thread", "process")


def get_executor(spec: "str | Executor | None") -> Executor:
    """Build an executor from a spec string (or pass an instance through).

    Spec grammar: ``mode[:workers[:queue_depth]]`` with mode one of
    ``serial``, ``thread``, ``process``.  ``None`` and ``"serial"`` give
    the inline serial executor; workers default to the available CPUs.

    >>> get_executor("process:4:16")
    ProcessExecutor(workers=4, queue_depth=16)
    >>> get_executor(None)
    SerialExecutor(workers=1, queue_depth=1)
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    parts = str(spec).strip().lower().split(":")
    mode = parts[0]
    if mode not in _MODES or len(parts) > 3:
        raise ValueError(
            f"invalid executor spec {spec!r}; expected "
            "'serial', 'thread[:workers[:queue_depth]]', or "
            "'process[:workers[:queue_depth]]'"
        )
    try:
        workers = int(parts[1]) if len(parts) > 1 and parts[1] else None
        queue_depth = int(parts[2]) if len(parts) > 2 and parts[2] else None
    except ValueError:
        raise ValueError(
            f"invalid executor spec {spec!r}; workers and queue_depth "
            "must be integers"
        ) from None
    if mode == "serial":
        if workers not in (None, 1):
            raise ValueError(
                f"invalid executor spec {spec!r}; serial mode is "
                "single-worker by definition"
            )
        return SerialExecutor()
    if mode == "thread":
        return ThreadExecutor(workers, queue_depth)
    return ProcessExecutor(workers, queue_depth)


@contextmanager
def executor_scope(spec: "str | Executor | None") -> Iterator[Executor]:
    """Resolve a spec to an executor, closing it only if created here.

    Call sites accept ``str | Executor | None`` everywhere; this context
    manager keeps the ownership rule in one place: an executor *instance*
    belongs to the caller (left open for reuse across calls), while one
    built from a spec string is torn down on exit.
    """
    if isinstance(spec, Executor):
        yield spec
        return
    executor = get_executor(spec)
    try:
        yield executor
    finally:
        executor.close()


# ---------------------------------------------------------------------------
# shared-memory array shipping
# ---------------------------------------------------------------------------

_SHM_ALIGN = 64


@contextmanager
def _untracked_shm_attach() -> Iterator[None]:
    """Suppress resource-tracker registration while attaching a segment.

    Before Python 3.13 every attaching process registers the segment with
    a resource tracker, which either unlinks it out from under the owner
    at exit (spawn: per-process trackers, cpython#82300) or double-frees
    the owner's registration (fork: shared tracker).  The parent owns the
    segment lifecycle here — create, then unlink after the map completes —
    so workers must attach without registering at all.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):  # pragma: no cover - exercised in workers
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


def ship_arrays(arrays: "dict[str, np.ndarray]") -> tuple[dict, Any]:
    """Pack numeric arrays into one shared-memory segment.

    Returns ``(descriptor, shm)``: the descriptor is a small picklable dict
    a worker hands to :func:`open_arrays`; ``shm`` is the parent's handle,
    which must stay alive until every worker is done and is then released
    with :func:`release_shipment`.  Arrays must have a fixed-width
    non-object dtype (callers route object-dtype key arrays through plain
    pickling instead).
    """
    from multiprocessing import shared_memory

    layout: dict[str, dict] = {}
    offset = 0
    for name, arr in arrays.items():
        if arr.dtype.hasobject:
            raise ValueError(
                f"array {name!r} has object dtype; shared-memory shipping "
                "needs fixed-width dtypes (pickle object arrays instead)"
            )
        layout[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape)}
        offset += -offset % _SHM_ALIGN
        layout[name]["offset"] = offset
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for name, arr in arrays.items():
        spec = layout[name]
        flat = np.ascontiguousarray(arr)
        view = np.ndarray(
            flat.shape, dtype=flat.dtype, buffer=shm.buf, offset=spec["offset"]
        )
        view[...] = flat
        del view
    return {"shm": shm.name, "arrays": layout}, shm


def open_arrays(descriptor: dict) -> tuple["dict[str, np.ndarray]", Any]:
    """Map a :func:`ship_arrays` descriptor back to zero-copy views.

    Returns ``(arrays, shm)``.  The views alias the segment buffer: the
    caller must drop every reference to them (and anything sliced from
    them) before calling ``shm.close()``.
    """
    from multiprocessing import shared_memory

    with _untracked_shm_attach():
        shm = shared_memory.SharedMemory(name=descriptor["shm"])
    return _segment_views(descriptor["arrays"], shm), shm


def _segment_views(layout: dict, shm: Any) -> "dict[str, np.ndarray]":
    """Zero-copy array views over a segment, per its descriptor layout."""
    return {
        name: np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=shm.buf,
            offset=spec["offset"],
        )
        for name, spec in layout.items()
    }


def ship_chunks(
    chunks: "list[tuple[np.ndarray, np.ndarray]]",
    table: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> tuple[dict, Any]:
    """Concatenate one shard's chunks straight into a shared segment.

    Like ``ship_arrays({"keys": concat, "weights": concat})`` but without
    the intermediate concatenated copies: the segment is sized up front
    and each chunk is copied into its slice exactly once.  All chunk key
    arrays must share one fixed-width dtype (the caller's eligibility
    check); weights are float64 by construction.  ``table`` — the shard's
    aggregated ``(keys, totals)`` — rides along as ``table_keys`` /
    ``table_totals``: one copy into the segment, never pickled.
    """
    from multiprocessing import shared_memory

    total = sum(len(chunk_keys) for chunk_keys, _ in chunks)
    shapes = {"keys": (chunks[0][0].dtype, total), "weights": ("<f8", total)}
    if table is not None:
        shapes["table_keys"] = (table[0].dtype, len(table[0]))
        shapes["table_totals"] = ("<f8", len(table[1]))
    layout: dict[str, dict] = {}
    offset = 0
    for name, (dtype, length) in shapes.items():
        offset += -offset % _SHM_ALIGN
        layout[name] = {
            "dtype": np.dtype(dtype).str, "shape": [length], "offset": offset,
        }
        offset += length * np.dtype(dtype).itemsize
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    views = _segment_views(layout, shm)
    position = 0
    for chunk_keys, chunk_weights in chunks:
        end = position + len(chunk_keys)
        views["keys"][position:end] = chunk_keys
        views["weights"][position:end] = chunk_weights
        position = end
    if table is not None:
        views["table_keys"][:], views["table_totals"][:] = table
    del views
    return {"shm": shm.name, "arrays": layout}, shm


def release_shipment(shm: Any) -> None:
    """Close and unlink a parent-side shared-memory handle (idempotent)."""
    if shm is None:
        return
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


# ---------------------------------------------------------------------------
# worker entry point: per-shard fold
# ---------------------------------------------------------------------------


@dataclass
class ShardTask:
    """One (assignment, shard) unit of finalization work.

    ``payload`` holds the shard's pending events, as one of:

    * ``("chunks", [(keys, weights), ...])`` — in-memory chunk list
      (serial and thread executors; pickled as-is, state included, if
      sent to a process — the summarizer folds such shards itself);
    * ``("shm", descriptor)`` — concatenated ``keys``/``weights`` buffers
      shipped through shared memory (numeric keys under processes).

    The shared-memory form is exact: the vectorized aggregation path
    concatenates its chunks before ``np.unique`` anyway, so handing the
    worker the pre-concatenated arrays reproduces the serial result bit
    for bit.

    ``state`` is the :class:`~repro.engine.sharded.ShardState` the events
    fold onto (``None``: an empty shard).  In the shared-memory form its
    table rides in the segment (``table_keys`` / ``table_totals``) and
    ``state`` carries only the ``k + 1`` entries, so what is pickled to a
    worker is O(k) and what comes back — a
    :class:`~repro.engine.sharded.ShardDelta` — is O(touched keys).
    """

    k: int
    family: Any
    hasher: Any
    payload: tuple
    state: Any = None


def fold_shard_task(task: ShardTask):
    """Worker entry: the delta of folding the payload onto the state."""
    from repro.engine.sharded import ShardState

    state = task.state if task.state is not None else ShardState()
    form, payload = task.payload
    if form == "chunks":
        return state.delta(task.k, task.family, task.hasher, payload)
    if form != "shm":
        raise ValueError(f"unknown shard payload form {form!r}")
    arrays, shm = open_arrays(payload)
    chunks = [(arrays["keys"], arrays["weights"])]
    if "table_keys" in arrays:
        state = ShardState(
            arrays["table_keys"], arrays["table_totals"], state.entries
        )
    try:
        # np.unique and the gathers in delta copy, so nothing in the
        # returned delta aliases the segment.
        return state.delta(task.k, task.family, task.hasher, chunks)
    finally:
        del arrays, chunks, state
        shm.close()


def sample_shard_task(task: ShardTask):
    """The bottom-k sketch of a shard after :func:`fold_shard_task`."""
    return fold_shard_task(task).entries.sketch(task.k)


def build_shard_tasks(
    k: int,
    family,
    hasher,
    shards: list,
    cross_process: bool,
) -> Iterator[tuple[ShardTask, Any]]:
    """Yield ``(task, shm_handle)`` pairs for a finalization run, lazily.

    ``shards`` holds the summarizer's stale shards (``state`` + ``pending``
    chunks).  Payloads are built one at a time as the executor's
    backpressure window admits them: under a process executor, a shard
    whose fold stays numeric has its pending chunks concatenated once in
    the parent and shipped, with its table, via shared memory (the handle
    is yielded so the caller can release the segment once the result
    lands); everything else rides the chunk-list form.
    """
    from repro.engine.sharded import ShardState

    for shard in shards:
        state, chunks = shard.state, shard.pending
        shm = None
        payload = ("chunks", chunks)
        # Ship pre-concatenated only when the fold would concatenate too
        # (same predicate, shared so it can't drift).
        if cross_process and chunks and state.stays_numeric(chunks):
            descriptor, shm = ship_chunks(
                chunks, state.chunk() if len(state) else None
            )
            payload = ("shm", descriptor)
            state = ShardState(entries=state.entries)
        yield ShardTask(k, family, hasher, payload, state), shm


# ---------------------------------------------------------------------------
# worker entry point: per-bucket compaction merge
# ---------------------------------------------------------------------------


def compact_group_task(task: dict) -> dict:
    """Merge one coarse bucket's artifacts and publish the rollup blob.

    ``task`` carries ``root``, the group's blob ``paths`` (store-relative,
    manifest order), and the ``target`` relative path.  The merged blob is
    written atomically; the manifest row stays the parent's job, so a
    failed or crashed worker strands at most an orphaned data file —
    exactly the serial crash contract.
    """
    from repro.store.codec import atomic_write_bytes, encode, read_file

    root = task["root"]
    bundles = [
        read_file(os.path.join(root, path), verify=True)
        for path in task["paths"]
    ]
    merged = bundles[0].merge(*bundles[1:])
    blob = encode(merged)
    atomic_write_bytes(os.path.join(root, task["target"]), blob)
    return {
        "bucket": task["bucket"],
        "kind": merged.kind,
        "assignments": tuple(merged.assignments),
        "nbytes": len(blob),
    }


# ---------------------------------------------------------------------------
# worker entry point: per-namespace query serving
# ---------------------------------------------------------------------------


def serve_namespace_task(task: dict) -> list:
    """Answer one namespace's query batch from a store on disk.

    The worker merges the namespace's bundles once, builds one
    :class:`~repro.engine.queries.QueryEngine` over the summary, and runs
    the whole batch through it — so the decoded summary views and kernel
    caches are shared across every query of the namespace, per worker.
    """
    from repro.engine.queries import QueryEngine
    from repro.store.store import SummaryStore

    store = SummaryStore(task["root"], create=False)
    engine = QueryEngine.from_store(
        store, task["namespace"], buckets=task.get("buckets")
    )
    return engine.run(task["queries"])
