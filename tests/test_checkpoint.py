"""Checkpoint/resume: interrupted ingestion is invisible in the output.

The acceptance property pinned here: checkpoint/resume of a
ShardedSummarizer yields summaries **bit-identical** to an uninterrupted
run — same keys, same rank bits, same thresholds, same seeds.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.engine.sharded import ShardedSummarizer
from repro.ranks.families import ExponentialRanks, IppsRanks
from repro.ranks.hashing import KeyHasher
from repro.store import SummaryStore
from repro.store.cli import main as store_cli
from repro.store.codec import SummarizerCheckpoint, decode, encode


def make_events(n=4000, n_keys=800, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, n)
    weights = rng.pareto(1.2, n) + 0.01
    return keys, weights


def feed(engine, assignment, keys, weights, batch=512):
    for lo in range(0, len(keys), batch):
        engine.ingest(assignment, keys[lo : lo + batch],
                      weights[lo : lo + batch])


@pytest.mark.parametrize(
    "family", [IppsRanks(), ExponentialRanks()], ids=lambda f: f.name
)
def test_resume_is_bit_identical(tmp_path, family):
    keys, weights = make_events()
    half = len(keys) // 2

    def fresh():
        return ShardedSummarizer(
            k=64, assignments=["h1", "h2"], family=family,
            hasher=KeyHasher(42),
        )

    uninterrupted = fresh()
    feed(uninterrupted, "h1", keys, weights)
    feed(uninterrupted, "h2", keys[::2], weights[::2] * 3.0)

    interrupted = fresh()
    feed(interrupted, "h1", keys[:half], weights[:half])
    SummaryStore(tmp_path).write(
        "flows", "20260728T1201", interrupted.checkpoint_state(),
        part="ingest",
    )
    del interrupted  # the "crash"

    store = SummaryStore(tmp_path, create=False)  # a fresh process
    resumed = ShardedSummarizer.from_checkpoint(
        store.read("flows", "20260728T1201", "ingest")
    )
    feed(resumed, "h1", keys[half:], weights[half:])
    feed(resumed, "h2", keys[::2], weights[::2] * 3.0)

    assert resumed.summary().equals(uninterrupted.summary())
    for name, sk in resumed.sketches().items():
        assert sk.equals(uninterrupted.sketches()[name])


def test_resume_with_string_and_tuple_keys(tmp_path):
    events = [(f"flow-{i % 37}", float(i % 11) + 0.5) for i in range(200)]
    events += [(("src", i % 13, "dst"), 1.25) for i in range(100)]

    def run(interrupt):
        engine = ShardedSummarizer(
            k=16, assignments=["a"], hasher=KeyHasher(7)
        )
        if interrupt:
            engine.ingest_stream("a", events[:150])
            engine = decode(encode(engine.checkpoint_state())).restore()
            engine.ingest_stream("a", events[150:])
        else:
            engine.ingest_stream("a", events)
        return engine.summary()

    assert run(interrupt=True).equals(run(interrupt=False))


def test_checkpoint_into_store(tmp_path):
    keys, weights = make_events(n=600, n_keys=100)
    engine = ShardedSummarizer(k=8, assignments=["h1"], hasher=KeyHasher(5))
    feed(engine, "h1", keys, weights)
    store = SummaryStore(tmp_path)
    entry = store.write("flows", "20260728T1201", engine.checkpoint_state())
    assert entry.kind == "checkpoint"
    restored = store.load(entry).restore()
    assert restored.summary().equals(engine.summary())


def test_exported_checkpoint_restores(tmp_path, capsys):
    """A stored checkpoint leaves the store as exact codec bytes
    (``repro-store export``) and restores from them."""
    engine = ShardedSummarizer(k=4, assignments=["a"], hasher=KeyHasher(1))
    engine.ingest("a", np.arange(20), np.ones(20))
    root = tmp_path / "store"
    SummaryStore(root).write(
        "flows", "20260728T1201", engine.checkpoint_state(), part="ingest"
    )
    path = tmp_path / "cp.cws"
    assert store_cli([
        "export", "--root", str(root), "--namespace", "flows",
        "--bucket", "20260728T1201", "--part", "ingest", "--out", str(path),
    ]) == 0
    assert "exported flows/20260728T1201/ingest" in capsys.readouterr().out
    state = decode(path.read_bytes(), verify=True)
    assert isinstance(state, SummarizerCheckpoint)
    restored = ShardedSummarizer.from_checkpoint(state)
    assert restored.summary().equals(engine.summary())
    assert encode(state) == path.read_bytes()


def test_checkpoint_requires_plain_hasher():
    class FancyHasher(KeyHasher):
        pass

    engine = ShardedSummarizer(k=4, assignments=["a"], hasher=FancyHasher(1))
    with pytest.raises(ValueError, match="KeyHasher"):
        engine.checkpoint_state()
    # a bundle would store a salt that cannot reproduce the custom hashing
    with pytest.raises(ValueError, match="KeyHasher"):
        engine.sketch_bundle()


def test_checkpoint_state_validation():
    with pytest.raises(ValueError, match="missing"):
        SummarizerCheckpoint(
            k=2, assignments=["a"], family=IppsRanks(), hasher_salt=0,
            chunks={},
        )


def test_multi_shard_checkpoint_of_the_parent_layout_resumes():
    """A blob written when a summarizer hash-partitioned every assignment
    over ``n_shards`` tables names several chunk lists per assignment
    (``a{i}.s{j}.c{n}``).  The lists are key-disjoint, so reading them one
    after another keeps every key's additions in arrival order: the
    restored stream finishes bit-identically to one that never stopped.

    The 1936-byte fixture holds, over 3 shards, tables with pending
    chunks, a table alone and a pending chunk alone, for int and for
    string keys.  Written at commit 41795dc (the last with ``n_shards``)
    by::

        eng = ShardedSummarizer(k=3, assignments=["n", "s"], n_shards=3,
                                hasher=KeyHasher(42))
        eng.ingest("n", np.arange(9), np.arange(1.0, 10.0))
        eng.ingest("s", ["u0", "u1", "u2", "u3"], np.arange(2.0, 6.0))
        eng.summary()  # fold: the shards now hold tables
        eng.ingest("n", np.array([3, 30, 7, 3]),
                   np.array([0.5, 4.0, 0.25, 0.125]))
        eng.ingest("s", ["u1", "v0", "u1"], np.array([0.5, 6.0, 0.25]))
        open(path, "wb").write(encode(eng.checkpoint_state()))
    """
    script = [
        ("n", np.arange(9), np.arange(1.0, 10.0)),
        ("s", ["u0", "u1", "u2", "u3"], np.arange(2.0, 6.0)),
        None,  # summary(): a fold
        ("n", np.array([3, 30, 7, 3]), np.array([0.5, 4.0, 0.25, 0.125])),
        ("s", ["u1", "v0", "u1"], np.array([0.5, 6.0, 0.25])),
    ]
    rest = [
        ("n", np.array([30, 2, 8, 40]), np.array([1.5, 0.75, 2.0, 7.0])),
        ("s", ["v0", "u3", "w0"], np.array([0.125, 8.0, 5.0])),
    ]
    uninterrupted = ShardedSummarizer(
        k=3, assignments=["n", "s"], hasher=KeyHasher(42)
    )
    for step in script:
        if step is None:
            uninterrupted.summary()
        else:
            uninterrupted.ingest(*step)

    blob = (
        pathlib.Path(__file__).parent / "data" / "checkpoint_3shard_pr20.ckpt"
    ).read_bytes()
    state = decode(blob)
    assert state.buffered_events == uninterrupted.buffered_events == 20
    resumed = state.restore()
    assert resumed.buffered_events == 20
    assert resumed.sketch_bundle().equals(uninterrupted.sketch_bundle())
    for step in rest:
        resumed.ingest(*step)
        uninterrupted.ingest(*step)
    assert resumed.summary().equals(uninterrupted.summary())
    assert resumed.buffered_events == uninterrupted.buffered_events
    assert encode(resumed.sketch_bundle()) == encode(
        uninterrupted.sketch_bundle()
    )


def test_buffered_events_property():
    engine = ShardedSummarizer(k=4, assignments=["a"], hasher=KeyHasher(1))
    engine.ingest("a", np.arange(15), np.ones(15))
    assert engine.checkpoint_state().buffered_events == 15


class TestDefensiveAccessors:
    def test_sketches_returns_defensive_copies(self):
        engine = ShardedSummarizer(k=4, assignments=["a"], hasher=KeyHasher(1))
        engine.ingest("a", np.arange(50), np.arange(50, dtype=float) + 1.0)
        handed_out = engine.sketches()["a"]
        handed_out.weights[:] = -99.0
        handed_out.ranks[:] = 0.0
        handed_out.keys[:] = 0
        clean = engine.sketches()["a"]
        assert (clean.weights > 0).all()
        assert not clean.equals(handed_out)
        # the summary path reads the same internal cache and must be clean
        assert np.nanmax(engine.summary().weights) > 0

    def test_sketch_cache_invalidated_by_ingest(self):
        engine = ShardedSummarizer(k=4, assignments=["a"], hasher=KeyHasher(1))
        engine.ingest("a", np.arange(10), np.ones(10))
        before = engine.sketches()["a"]
        engine.ingest("a", np.arange(10, 20), np.full(10, 50.0))
        after = engine.sketches()["a"]
        assert not after.equals(before)  # heavy new keys displaced the old
        reference = ShardedSummarizer(
            k=4, assignments=["a"], hasher=KeyHasher(1)
        )
        reference.ingest("a", np.arange(20),
                         np.concatenate([np.ones(10), np.full(10, 50.0)]))
        assert after.equals(reference.sketches()["a"])

    def test_repeated_calls_share_cache(self):
        engine = ShardedSummarizer(k=4, assignments=["a"], hasher=KeyHasher(1))
        engine.ingest("a", np.arange(10), np.ones(10))
        assert engine._current_sketches() is engine._current_sketches()
