"""Executor specs over stdlib pools, for the three coarse-grained pipelines.

The paper's summaries are *mergeable over key-disjoint partitions by
construction* (Sections 4, 7), so independent pieces of work can run on
any worker in any order and still reduce to the serial result bit for
bit.  Three pipelines use that, each with a whole unit of work per task:

* :meth:`SummaryStore.compact <repro.store.SummaryStore.compact>` — one
  coarse bucket's load + merge + encode + publish
  (:func:`compact_group_task`);
* :meth:`QueryEngine.serve_many <repro.engine.queries.QueryEngine.
  serve_many>` — one namespace's whole query batch
  (:func:`serve_namespace_task`);
* :func:`~repro.evaluation.runner.run_sigma_v` — one evaluation run.

Each takes ``executor=``: ``None`` (inline, the default everywhere), a
spec string ``mode[:workers]`` with mode ``serial``, ``thread`` or
``process`` — the format of every ``--executor`` flag — or a
caller-owned :class:`concurrent.futures.Executor`.  :func:`get_executor`
turns a spec into a stdlib pool, :func:`executor_scope` adds the
ownership rule (a pool built from a spec is shut down on exit, an
instance handed in is the caller's and stays open), and the pipelines
map over it with the stdlib's ordered :meth:`~concurrent.futures.
Executor.map`.  Task functions are module-level and take one picklable
argument, so they run under any pool.

Finalization is *not* one of the pipelines: a
:class:`~repro.engine.sharded.ShardedSummarizer` folds its tables inline
(a fold costs about what handing its inputs to a worker costs; the
README's "Scaling out" section records the measurement).
"""

from __future__ import annotations

import multiprocessing
import os
import re
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "available_workers",
    "parse_executor_spec",
    "get_executor",
    "executor_scope",
    "compact_group_task",
    "serve_namespace_task",
]


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


class _InlineExecutor(Executor):
    """Runs each task in the calling thread, at submission.

    A task that raises propagates out of :meth:`submit` — and so out of
    ``map`` — at that task, and no later task starts: what a plain loop
    does, which keeps the serial crash contract of the pipelines (at
    most the failing task's own partial output is left behind).
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


_SPEC = re.compile(r"(serial|thread|process)(?::([0-9]*))?")


def parse_executor_spec(spec: "str | None") -> "tuple[str, int | None]":
    """``(mode, workers)`` of a ``mode[:workers]`` spec string.

    Builds nothing, so it is also how a CLI refuses a bad ``--executor``
    before doing any work.  ``None`` means ``"serial"``; omitted workers
    come back as ``None`` (:func:`get_executor` then uses
    :func:`available_workers`).

    >>> parse_executor_spec("process:4")
    ('process', 4)
    >>> parse_executor_spec(None)
    ('serial', None)
    """
    match = _SPEC.fullmatch(
        "serial" if spec is None else str(spec).strip().lower()
    )
    workers = int(match[2]) if match and match[2] else None
    if (
        match is None
        or workers == 0
        or (match[1] == "serial" and workers not in (None, 1))
    ):
        raise ValueError(
            f"invalid executor spec {spec!r}; expected 'serial', "
            "'thread[:workers]' or 'process[:workers]' with workers >= 1 "
            "(serial is single-worker by definition)"
        )
    return match[1], workers


def get_executor(spec: "str | Executor | None") -> Executor:
    """The executor a spec names (an instance passes through).

    ``thread`` gives a :class:`~concurrent.futures.ThreadPoolExecutor`
    (I/O-heavy stages, numpy work that releases the GIL), ``process`` a
    :class:`~concurrent.futures.ProcessPoolExecutor` whose workers are
    *spawned* — they import the task's module afresh and share nothing
    with a parent that may hold threads or an open SQLite transaction —
    and ``None`` / ``"serial"`` the inline executor.  Pools start their
    workers on first use.

    >>> with get_executor("thread:2") as pool:
    ...     list(pool.map(abs, [-1, 2, -3]))
    [1, 2, 3]
    """
    if isinstance(spec, Executor):
        return spec
    mode, workers = parse_executor_spec(spec)
    if mode == "serial":
        return _InlineExecutor()
    workers = available_workers() if workers is None else workers
    if mode == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )


@contextmanager
def executor_scope(spec: "str | Executor | None") -> Iterator[Executor]:
    """Resolve a spec to an executor, shutting it down only if built here.

    Call sites accept ``str | Executor | None``; this context manager
    keeps the ownership rule in one place: an executor *instance*
    belongs to the caller (left open for reuse across calls), one built
    from a spec is shut down — its running tasks awaited — on exit.
    """
    if isinstance(spec, Executor):
        yield spec
        return
    with get_executor(spec) as executor:
        yield executor


# ---------------------------------------------------------------------------
# worker entry point: per-bucket compaction merge
# ---------------------------------------------------------------------------


def compact_group_task(blobs: list) -> bytes:
    """Merge one coarse bucket's artifacts into the rollup's codec blob.

    ``blobs`` are the group's codec bytes in manifest order; each is
    CRC-verified on decode.  The worker never opens the store: the parent
    publishes every rollup and retires every part in its one
    transaction, so a failed or crashed worker leaves nothing behind.
    """
    from repro.store.codec import decode, encode

    bundles = [decode(blob, verify=True) for blob in blobs]
    return encode(bundles[0].merge(*bundles[1:]))


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
