"""Crash at every transaction: SIGKILL just before or just after COMMIT.

Every durable mutation commits as ONE runtime-tier transaction: a store
write (new part and overwrite), a remove, a compaction (to the hour and
to the day), a live window's flush, a boundary rotation, the rescue of
an orphaned flush, and a namespace reset.  Run to completion, each makes
exactly one COMMIT that changes the database.  A child process prepares the operation, arms a
trap on its store's SQLite connection and runs it; the trap SIGKILLs the
child at that COMMIT — before the statement runs, or right after it
returns.

The reopened root must then equal the state before the operation (every
entry, the SHA-256 of every artifact's bytes, the live sequence
counters, the version fingerprints) or the state after it, and queries
on it must be bit-identical to an offline engine over exactly the data
that state holds.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import signal
from datetime import datetime, timezone

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service.config import NamespaceConfig
from repro.service.planner import QueryPlanner
from repro.service.windows import LiveWindowManager
from repro.store import SummaryStore

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=9)
T0 = datetime(2026, 7, 28, 12, 0, 30, tzinfo=timezone.utc).timestamp()
FUNCTIONS = ("max", "min", "l1")


def batch(index: int):
    """Event batch ``index``: its own 40 keys (batches are key-disjoint)."""
    keys = [f"k{index}-{i}" for i in range(40)]
    weights = np.linspace(1.0, 5.0, len(keys)) * (index + 1)
    return keys, {"h1": weights, "h2": weights[::-1] * 2.0}


def bundle(index: int):
    summarizer = NS.make_summarizer()
    summarizer.ingest_multi(*batch(index))
    return summarizer.sketch_bundle()


def offline(indices) -> QueryEngine:
    summarizer = NS.make_summarizer()
    for index in indices:
        summarizer.ingest_multi(*batch(index))
    return QueryEngine(summarizer.summary())


class Clock:
    def __init__(self, now: float) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# -- the operations -------------------------------------------------------------
#
# ``setup(root)`` builds the starting root in-process; ``run(store, arm)``
# prepares in the child, calls ``arm()`` and performs the one operation.
# ``pre`` / ``post`` name the data each state holds — bundle indices for
# the store operations, batch indices (served at ``clock``) for the live
# window ones.


def _store_setup(root) -> None:
    store = SummaryStore(root)
    store.write("web", "20260728T1201", bundle(0))
    store.write("web", "20260728T1202", bundle(1))
    store.write("web", "20260728T1203", bundle(2), part="p")
    store.runtime.close()


def _windows_setup(root, *, orphan: bool = False, reset: bool = False):
    clock = Clock(T0)
    manager = LiveWindowManager(SummaryStore(root), [NS], clock=clock)
    manager.ingest("web", *batch(0))
    if orphan:
        # published by a boundary rotation, so no checkpoint covers it; a
        # restart back inside its bucket finds an orphaned flush
        clock.now += 60.0
        manager.rotate()
        manager.store.runtime.close()
        return
    manager.rotate(force=True)  # flush: checkpoint + bundle hold batch 0
    if reset:
        clock.now += 60.0
        manager.ingest("web", *batch(1))  # rotates batch 0 out first
        manager.rotate(force=True)
    manager.store.runtime.close()


def _manager(store, now):
    return LiveWindowManager(store, [NS], clock=Clock(now))


def _flush(store, arm):
    manager = _manager(store, T0)  # resumes batch 0
    manager.ingest("web", *batch(1))
    arm()
    manager.rotate(force=True)


def _rotation(store, arm):
    manager = _manager(store, T0)
    manager.ingest("web", *batch(1))
    manager.clock.now += 60.0
    arm()
    manager.rotate()


def _rescue(store, arm):
    arm()
    _manager(store, T0)  # construction re-homes the orphaned flush


def _reset(store, arm):
    manager = _manager(store, T0 + 60.0)
    arm()
    manager.reset("web")


CASES = {
    "write_new": dict(
        setup=_store_setup, pre=[0, 1, 2], post=[0, 1, 2, 3],
        run=lambda store, arm: (
            arm(), store.write("web", "20260728T1204", bundle(3))
        ),
    ),
    "write_overwrite": dict(
        setup=_store_setup, pre=[0, 1, 2], post=[0, 1, 4],
        run=lambda store, arm: (arm(), store.write(
            "web", "20260728T1203", bundle(4), part="p", overwrite=True
        )),
    ),
    "remove": dict(
        setup=_store_setup, pre=[0, 1, 2], post=[0, 2],
        run=lambda store, arm: (
            arm(), store.remove("web", "20260728T1202", "part-0000")
        ),
    ),
    "compact_serial": dict(
        setup=_store_setup, pre=[0, 1, 2], post=[0, 1, 2],
        run=lambda store, arm: (arm(), store.compact("web", to="hour")),
    ),
    "compact_day": dict(
        setup=_store_setup, pre=[0, 1, 2], post=[0, 1, 2],
        run=lambda store, arm: (arm(), store.compact("web", to="day")),
    ),
    "flush": dict(
        setup=_windows_setup, run=_flush, clock=T0, pre=[0], post=[0, 1],
    ),
    "rotation": dict(
        setup=_windows_setup, run=_rotation, clock=T0 + 60.0,
        pre=[0], post=[0, 1],
    ),
    "rescue": dict(
        setup=lambda root: _windows_setup(root, orphan=True), run=_rescue,
        clock=T0, pre=[0], post=[0],
    ),
    "reset": dict(
        setup=lambda root: _windows_setup(root, reset=True), run=_reset,
        clock=T0 + 60.0, pre=[0, 1], post=[],
    ),
}


# -- the trap -------------------------------------------------------------------


class _Stop(Exception):
    """Stops a run just short of its operation (the pre-state)."""


class _TrapAtCommit:
    """A SQLite connection trapped at each COMMIT that changes the
    database: ``"before"`` SIGKILLs the child's process group instead of
    committing, ``"after"`` right after committing, ``"post"`` counts
    them."""

    def __init__(self, conn, when: str) -> None:
        self._conn = conn
        self._when = when
        self._begun = 0
        self.commits = 0

    def execute(self, sql, *args):
        if sql == "BEGIN IMMEDIATE":
            self._begun = self._conn.total_changes
        if sql != "COMMIT" or self._conn.total_changes == self._begun:
            return self._conn.execute(sql, *args)
        if self._when == "before":
            os.killpg(0, signal.SIGKILL)
        cursor = self._conn.execute(sql, *args)
        if self._when == "after":
            os.killpg(0, signal.SIGKILL)
        self.commits += 1
        return cursor

    def __getattr__(self, name):
        return getattr(self._conn, name)


def perform(root, case: str, trap: str) -> int:
    """Run ``case``'s operation on ``root`` trapped as
    :class:`_TrapAtCommit` says — or, with ``"pre"``, not at all.
    Returns the number of database-changing COMMITs it made."""
    if trap in ("before", "after"):
        os.setpgrp()  # a child: its group is what the trap kills
    store = SummaryStore(root, create=False)
    trapped = None

    def arm():
        nonlocal trapped
        if trap == "pre":
            raise _Stop
        trapped = _TrapAtCommit(store.runtime._conn, trap)
        store.runtime._conn = trapped

    try:
        CASES[case]["run"](store, arm)
    except _Stop:
        pass
    store.runtime.close()
    return 0 if trapped is None else trapped.commits


# -- the checks -----------------------------------------------------------------


def state(root) -> dict:
    store = SummaryStore(root, create=False)
    snapshot = {
        "entries": [
            {
                **entry.to_json(),
                "sha256": hashlib.sha256(store.read_blob(
                    entry.namespace, entry.bucket, entry.part
                )).hexdigest(),
            }
            for entry in store.entries()
        ],
        "live_seqs": store.runtime.live_seqs("web"),
        "versions": (store.version(), store.bundle_version("web")),
    }
    store.runtime.close()
    return snapshot


def assert_serves(root, case: str, indices) -> None:
    """Queries on ``root`` equal an offline engine over ``indices``."""
    spec = CASES[case]
    store = SummaryStore(root, create=False)
    expected = offline(indices)
    if "clock" not in spec:
        engine = QueryEngine.from_store(store, "web")
        for function in FUNCTIONS:
            query = AggregationSpec(function, ("h1", "h2"))
            assert engine.estimate(query) == expected.estimate(query)
    else:
        planner = QueryPlanner(_manager(store, spec["clock"]))
        for function in FUNCTIONS:
            if not indices:
                with pytest.raises(LookupError, match="no data"):
                    planner.estimate("web", function, ("h1", "h2"))
                continue
            served = planner.estimate("web", function, ("h1", "h2"))
            assert served["estimate"] == expected.estimate(
                AggregationSpec(function, ("h1", "h2"))
            )
    store.runtime.close()


@pytest.mark.parametrize("case", sorted(CASES))
def test_crash_at_commit_leaves_before_or_after(case, tmp_path):
    base = tmp_path / "base"
    CASES[case]["setup"](base)
    roots = {}
    for mode in ("pre", "post", "before", "after"):
        roots[mode] = tmp_path / mode
        shutil.copytree(base, roots[mode])
    perform(roots["pre"], case, "pre")
    assert perform(roots["post"], case, "post") == 1  # one transaction
    context = multiprocessing.get_context("spawn")
    for mode in ("before", "after"):
        child = context.Process(
            target=perform, args=(roots[mode], case, mode)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL, (mode, child.exitcode)

    pre, post = state(roots["pre"]), state(roots["post"])
    assert pre != post  # the operation changed something durable
    assert state(roots["before"]) == pre
    assert state(roots["after"]) == post
    assert_serves(roots["before"], case, CASES[case]["pre"])
    assert_serves(roots["after"], case, CASES[case]["post"])
    for root in roots.values():
        assert not (root / "data").exists()
