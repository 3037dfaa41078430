"""Typed keys past the fold: an int64 key column is never seen to differ.

An integer table's sketch keeps its key column, the codec writes that
column as the Python ints it holds and reads an all-int64 key buffer back
as one int64 array, and the duplicate checks sort int64 keys instead of
building sets.  Pinned here against the same sketches with the keys cast
to Python objects — the form every served path used to carry:

* every duplicate-key refusal site fires on the same inputs with the
  same message, for int64 and for object keys;
* for any set of int64 keys (negative ones and both int64 limits
  included) the two forms encode to the same bytes, decode to int64, and
  give equal summaries, bit-identical estimates, identical ``key_in``
  masks, Python-int summary keys and byte-identical JSON answers;
* int32 and uint64 tables encode like their object twins; uint64 keys
  beyond int64 stay Python ints; a stored int64 bundle merges with a
  live ``str``-key bundle.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import FUNCTIONS, AggregationSpec
from repro.core.predicates import key_in
from repro.core.summary import build_summary_from_sketches
from repro.engine import ShardedSummarizer
from repro.engine.merge import merge_bottomk, merge_poisson
from repro.engine.queries import QueryEngine
from repro.ranks.hashing import KeyHasher
from repro.sampling.poisson import PoissonSketch
from repro.service import NamespaceConfig
from repro.service.cluster.coordinator import (
    CoordinatorConfig,
    CoordinatorService,
)
from repro.service.planner import StoredPartial, view_bundles
from repro.store.codec import SketchBundle, decode, encode

NAMES = ("h1", "h2")
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def bundle_of(keys, k: int = 16, seed: int = 0) -> SketchBundle:
    summarizer = ShardedSummarizer(k, NAMES, hasher=KeyHasher(5))
    rng = np.random.default_rng(seed)
    summarizer.ingest_multi(keys, {
        name: rng.pareto(1.3, len(keys)) + 0.05 for name in NAMES
    })
    return summarizer.sketch_bundle()


def as_objects(bundle: SketchBundle) -> SketchBundle:
    """The same bundle with every sketch's keys as Python objects."""
    return dataclasses.replace(bundle, sketches={
        name: dataclasses.replace(sk, keys=sk.keys.astype(object))
        for name, sk in bundle.sketches.items()
    })


# -- duplicate refusals -------------------------------------------------------

#: every key of each part is sampled (k > keys); the parts share -7 only
LEFT = np.array([-7, 1, 2, 3, 2**62], dtype=np.int64)
RIGHT = np.array([-7, 10, INT64_MIN], dtype=np.int64)
MESSAGE = (
    "key -7 is present in more than one sketch; merging requires "
    "key-disjoint partitions (aggregate per key before sampling, or "
    "partition the stream by key)"
)


def poisson(sketch) -> PoissonSketch:
    return PoissonSketch(
        tau=1.0, keys=sketch.keys, ranks=sketch.ranks,
        weights=sketch.weights, seeds=sketch.seeds,
    )


def coordinator_merge(tmp_path, left, right) -> None:
    """The coordinator's one merge of the slot bundles it gathered."""
    service = CoordinatorService(CoordinatorConfig(
        root=str(tmp_path / "coordinator"),
        namespaces=(NamespaceConfig("web", NAMES, k=16, salt=5),),
        n_slots=2, replication=1, salt=5,
    ))
    try:
        service._gather = lambda namespace, since, until: (
            [(0, "w1", "t1", left), (1, "w2", "t1", right)], [],
            {"slots": 2, "bytes": 0},
        )
        service._answer_query({
            "namespace": "web", "function": "single", "assignments": ["h1"],
        })
    finally:
        service._fanout.shutdown()
        service.runtime.close()


SITES = {
    "merge_bottomk": lambda _tmp, a, b: merge_bottomk(
        a.sketches["h1"], b.sketches["h1"]
    ),
    "merge_poisson": lambda _tmp, a, b: merge_poisson(
        poisson(a.sketches["h1"]), poisson(b.sketches["h1"])
    ),
    "SketchBundle.merge": lambda _tmp, a, b: a.merge(b),
    "StoredPartial.merged": lambda _tmp, a, b: StoredPartial.merged(
        [StoredPartial.leaf(a), StoredPartial.leaf(b)]
    ),
    "view_bundles": lambda _tmp, a, b: view_bundles(
        StoredPartial.leaf(a), b
    ),
    "coordinator merge": coordinator_merge,
}


@pytest.mark.parametrize("keys", ["int64", "object"])
@pytest.mark.parametrize("site", SITES)
def test_duplicate_refusals_keep_their_message(tmp_path, site, keys):
    left, right = bundle_of(LEFT), bundle_of(RIGHT, seed=1)
    if keys == "object":
        left, right = as_objects(left), as_objects(right)
    else:  # as the store and the wire deliver them
        left, right = decode(encode(left)), decode(encode(right))
    assert left.sketches["h1"].keys.dtype == keys
    with pytest.raises(ValueError) as refused:
        SITES[site](tmp_path, left, right)
    assert str(refused.value) == MESSAGE


@pytest.mark.parametrize("site", SITES)
def test_disjoint_parts_merge_everywhere(tmp_path, site):
    left = decode(encode(bundle_of(LEFT[1:])))
    SITES[site](tmp_path, left, decode(encode(bundle_of(RIGHT, seed=1))))


def test_a_stored_key_dropped_by_the_merge_still_refuses():
    """The sorted sample keys of a merged partial keep what its merged
    bundle dropped."""
    parts = [bundle_of(np.arange(i * 40, i * 40 + 40), k=4, seed=i)
             for i in range(3)]
    stored = StoredPartial.merged([StoredPartial.leaf(p) for p in parts])
    kept = set(stored.bundle.sketches["h1"].keys.tolist())
    dropped = sorted(set(stored.sample_keys["h1"].tolist()) - kept)
    assert dropped and stored.sample_keys["h1"].dtype == np.int64
    live = bundle_of(np.array([dropped[0], 10_000]), k=4)
    with pytest.raises(ValueError, match=f"key {dropped[0]} is present"):
        view_bundles(stored, live)


# -- typed and object keys give the same results -----------------------------

int64_keys = st.lists(
    st.one_of(
        st.integers(INT64_MIN, INT64_MAX),
        st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1,
                         INT64_MAX]),
    ),
    min_size=1, max_size=40, unique=True,
)


def answers(summary, probe) -> str:
    """Every function's estimate and a ``key_in`` estimate, as JSON."""
    engine = QueryEngine(summary)
    out = {"keys": summary.keys}
    for function in FUNCTIONS:
        names = NAMES[:1] if function == "single" else NAMES
        spec = AggregationSpec(
            function, names, ell=1 if function == "lth_largest" else None
        )
        out[function] = engine.estimate(spec)
        out[f"{function} key_in"] = engine.estimate(
            spec, predicate=key_in(probe)
        )
    return json.dumps(out)


@given(keys=int64_keys, k=st.sampled_from([1, 3, 8, 64]),
       split=st.integers(0, 40), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_typed_and_object_keys_give_the_same_results(keys, k, split, seed):
    stored = bundle_of(np.array(keys[:split], dtype=np.int64), k, seed)
    live = bundle_of(np.array(keys[split:], dtype=np.int64), k, seed + 1)
    twins = as_objects(stored), as_objects(live)
    for typed, twin in zip((stored, live), twins):
        assert typed.sketches["h1"].keys.dtype == np.int64
        assert encode(typed) == encode(twin)
        back = decode(encode(twin))
        assert all(sk.keys.dtype == np.int64 for sk in back.sketches.values())
        assert back.equals(typed)
    merged = stored.merge(live).sketches
    merged_twin = twins[0].merge(twins[1]).sketches
    summary = build_summary_from_sketches(merged, stored.family)
    twin_summary = build_summary_from_sketches(merged_twin, stored.family)
    assert summary.equals(twin_summary)
    assert all(type(key) is int for key in summary.keys)
    assert summary.keys == twin_summary.keys
    probe = keys[::3] + [12345]
    rows = np.arange(summary.n_union)
    assert (key_in(probe).mask_at(summary, rows).tolist()
            == key_in(probe).mask_at(twin_summary, rows).tolist())
    assert answers(summary, probe) == answers(twin_summary, probe)
    # the served path: stored and live decoded, refused, merged unchecked
    partial = StoredPartial.leaf(decode(encode(stored)))
    served = QueryEngine.from_bundles(
        view_bundles(partial, decode(encode(live))), disjoint=True
    )
    assert served.summary.equals(twin_summary)


# -- edges -------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.int32, np.uint64])
def test_int32_and_uint64_tables_encode_like_their_object_twins(dtype):
    bundle = bundle_of(np.arange(0, 60, 3).astype(dtype), k=8)
    assert bundle.sketches["h1"].keys.dtype == dtype
    assert encode(bundle) == encode(as_objects(bundle))
    back = decode(encode(bundle))
    assert back.sketches["h1"].keys.dtype == np.int64
    assert back.summary().equals(as_objects(bundle).summary())


def test_uint64_keys_beyond_int64_stay_python_ints():
    keys = np.array([2**63, 2**64 - 1, 5, 2**63 + 7], dtype=np.uint64)
    bundle = bundle_of(keys, k=8)
    blob = encode(bundle)
    assert blob == encode(as_objects(bundle))
    back = decode(blob)
    assert back.sketches["h1"].keys.dtype == object
    assert sorted(back.sketches["h1"].keys.tolist()) == sorted(keys.tolist())
    # a stored int64 bucket beside it: no float64 promotion in the merge
    stored = decode(encode(bundle_of(np.array([-3, 2**62]), k=8)))
    merged = stored.merge(bundle)
    assert sorted(merged.sketches["h1"].keys.tolist()) == sorted(
        [-3, 2**62] + keys.tolist()
    )
    assert merged.summary().equals(
        as_objects(stored).merge(as_objects(bundle)).summary()
    )


def test_stored_int64_bundle_merges_with_a_str_key_live_bundle():
    stored = decode(encode(bundle_of(np.array([-4, 0, 9, 2**40]), k=8)))
    live = bundle_of(["a", "b", "-4"], k=8)
    assert live.sketches["h1"].keys.dtype == object
    partial = StoredPartial.leaf(stored)
    engine = QueryEngine.from_bundles(
        view_bundles(partial, live), disjoint=True
    )
    want = QueryEngine.from_bundles([as_objects(stored), live])
    assert engine.summary.equals(want.summary)
    assert engine.summary.keys == want.summary.keys
    spec = AggregationSpec("max", NAMES)
    assert engine.estimate(spec) == want.estimate(spec)
    clash = bundle_of(["a", 9], k=8)
    with pytest.raises(ValueError, match="key 9 is present"):
        view_bundles(partial, clash)
    with pytest.raises(ValueError, match="key 9 is present"):
        stored.merge(clash)
