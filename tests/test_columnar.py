"""The columnar fresh query: layout and union strategy never show.

The summary builders store the ``(u, m)`` matrices column-major, the dispersed
kernels take the top-1 / top-|R| weight of each key from a column max /
min instead of a per-row sort, and a :class:`ShardedSummarizer` of one
integer key dtype unites its samples by sorting instead of a dictionary
pass.  The contract pinned here: none of that changes a value.

* every kernel gives the same bits on a summary and on a copy whose
  matrices are row-major, at widths where numpy's float reductions do
  and do not depend on the layout (m ≥ 8 vs m < 8);
* a decoded summary keeps the codec's zero-copy row-major views;
* ``ShardedSummarizer.summary()`` equals ``build_summary_from_sketches``
  of its sketches — fields, key order, key types and key index — for
  every key kind, empty sketches and k = 1;
* a sketch builds its membership set on the first lookup only;
* a single-assignment estimate computes its own CDF column only.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregationSpec
from repro.core.summary import (
    _sorted_union,
    build_bottomk_summary,
    build_poisson_summary,
    build_summary_from_sketches,
)
from repro.engine import ShardedSummarizer
from repro.estimators import (
    colocated_kernel,
    generic_kernel,
    ht_kernel,
    l1_kernel,
    lset_kernel,
    plain_rc_kernel,
    sset_kernel,
)
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import get_rank_family
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import bottomk_from_ranks
from repro.sampling.poisson import poisson_from_ranks
from repro.store.codec import decode, encode

MATRICES = ("member", "ranks", "weights", "thresholds", "seeds")

#: widths below, at and above the 8 where a float sum along a contiguous
#: axis starts to pair its terms
WIDTHS = [1, 2, 4, 7, 8, 9, 16]

#: few distinct values, so weight ties (first-max tie breaks) are common
WEIGHT_VALUES = [0.0, 0.5, 1.0, 2.0, 3.0, 7.25, 40.0]


def row_major_copy(summary):
    """The summary with every matrix row-major."""
    copy = dataclasses.replace(summary)
    for name in MATRICES:
        value = getattr(copy, name)
        if value is not None:
            setattr(copy, name, np.ascontiguousarray(value))
    return copy


def outcome(call):
    """A kernel's dense output, or the type of error it raised."""
    try:
        return call()
    except ValueError as error:
        return type(error)


def kernel_outcomes(summary) -> dict:
    names = tuple(summary.assignments)
    subsets = [names, names[::-1], names[::2]]
    specs = []
    for r in subsets:
        specs += [AggregationSpec("max", r), AggregationSpec("min", r)]
        if len(r) >= 2:
            specs.append(AggregationSpec("lth_largest", r, ell=2))
    out = {}
    for spec in specs:
        for kernel in (sset_kernel, lset_kernel, colocated_kernel,
                       generic_kernel):
            out[kernel.__name__, spec.function, spec.assignments,
                spec.ell] = outcome(lambda: kernel(summary, spec))
    for r in subsets:
        for variant in ("s", "l"):
            out["l1", variant, r] = outcome(lambda: l1_kernel(
                summary, AggregationSpec("l1", r), variant
            ))
    for name in names:
        for kernel in (plain_rc_kernel, ht_kernel):
            out[kernel.__name__, name] = outcome(
                lambda: kernel(summary, name)
            )
    return out


def summary_for(kind, weights, k, seed, family_name, method, mode):
    family = get_rank_family(family_name)
    names = [f"w{b}" for b in range(weights.shape[1])]
    if kind == "stream":
        summarizer = ShardedSummarizer(k, names, family=family,
                                       hasher=KeyHasher(seed))
        summarizer.ingest_multi(
            np.arange(len(weights), dtype=np.int64),
            {name: weights[:, b] for b, name in enumerate(names)},
        )
        return summarizer.summary()
    draw = get_rank_method(method).draw(
        family, weights, np.random.default_rng(seed)
    )
    if kind == "bottomk":
        return build_bottomk_summary(weights, draw, k, names, family,
                                     mode=mode)
    taus = np.full(len(names), 0.05 * k)
    return build_poisson_summary(weights, draw, taus, names, family,
                                 mode=mode, expected_size=k)


@st.composite
def summaries(draw, m):
    n = draw(st.integers(1, 24))
    weights = np.array(draw(st.lists(
        st.sampled_from(WEIGHT_VALUES), min_size=n * m, max_size=n * m
    ))).reshape(n, m)
    kind = draw(st.sampled_from(["bottomk", "poisson", "stream"]))
    family = draw(st.sampled_from(["ipps", "exp"]))
    methods = ["shared_seed", "independent"]
    if family == "exp" and kind != "stream":
        methods.append("independent_differences")
    return summary_for(
        kind, weights, draw(st.integers(1, 8)), draw(st.integers(0, 2**31)),
        family, draw(st.sampled_from(methods)),
        draw(st.sampled_from(["colocated", "dispersed"])),
    )


class TestKernelsReadValuesNotLayout:
    @pytest.mark.parametrize("m", WIDTHS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_row_major_copy_gives_the_same_bits(self, m, data):
        summary = data.draw(summaries(m))
        copy = row_major_copy(summary)
        if m > 1 and summary.n_union > 1:
            assert summary.weights.flags.f_contiguous
            assert not copy.weights.flags.f_contiguous
        column_major = kernel_outcomes(summary)
        row_major = kernel_outcomes(copy)
        assert column_major.keys() == row_major.keys()
        for key, got in column_major.items():
            want = row_major[key]
            if isinstance(want, type):
                assert got is want, key
                continue
            assert not isinstance(got, type), key
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert np.array_equal(got, want), key
            assert got.tobytes() == want.tobytes(), key

    def test_every_builder_stores_column_major(self):
        weights = np.arange(1.0, 13.0).reshape(4, 3)
        for kind in ("bottomk", "poisson", "stream"):
            summary = summary_for(kind, weights, 2, 1, "ipps",
                                  "independent", "dispersed")
            for name in MATRICES:
                value = getattr(summary, name)
                if value is not None:
                    assert value.flags.f_contiguous, (kind, name)

    @pytest.mark.parametrize("kind", ["bottomk", "poisson", "stream"])
    def test_decoded_matrices_stay_zero_copy_views(self, kind):
        weights = np.arange(1.0, 13.0).reshape(4, 3)
        summary = summary_for(kind, weights, 2, 1, "ipps",
                              "independent", "dispersed")
        blob = encode(summary)
        back = decode(blob)
        assert back.equals(summary)
        assert encode(back) == blob
        assert back.weights.ndim == 2 and back.n_union > 1
        for name in MATRICES:
            value = getattr(back, name)
            if value is not None:
                assert not value.flags.writeable, (kind, name)
                assert value.base is not None, (kind, name)
                assert value.flags.c_contiguous, (kind, name)


# -- the typed union ----------------------------------------------------------

KEY_KINDS = {
    "int64": lambda ids: np.array(ids, dtype=np.int64) - 20,
    # ids a float64 cannot hold: any promotion on the way corrupts them
    "uint64": lambda ids: np.array(ids, dtype=np.uint64) + np.uint64(2**63),
    "bigint": lambda ids: [2**70 + i for i in ids],
    "float": lambda ids: np.array(ids, dtype=float) + 0.5,
    "bool": lambda ids: np.array(ids, dtype=np.int64) % 2 == 0,
    "str": lambda ids: [f"key-{i}" for i in ids],
    "tuple": lambda ids: [("t", i) for i in ids],
    # 1 and 1.0 name one key; the first met is kept
    "mixed": lambda ids: [
        i if i % 3 == 0 else float(i) if i % 3 == 1 else f"key-{i}"
        for i in ids
    ],
}
#: the kinds whose tables keep one integer dtype: united by sorting
TYPED = {"int64", "uint64"}
NAMES = ["h1", "h2", "h3"]

weights = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def feeds(draw):
    """Batches of one key kind per assignment; an assignment may get
    another kind than the rest, only zero weights, or nothing."""
    kinds = {name: draw(st.sampled_from(sorted(KEY_KINDS))) for name in NAMES}
    if draw(st.booleans()):  # most often, one kind throughout
        kinds = dict.fromkeys(NAMES, kinds["h1"])
    batches = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(NAMES))
        ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=30))
        batch_weights = draw(st.lists(weights, min_size=len(ids),
                                      max_size=len(ids)))
        batches.append((name, KEY_KINDS[kinds[name]](ids),
                        np.array(batch_weights)))
    return kinds, batches


def typed_keys(keys) -> list:
    return [(type(key), key) for key in keys]


def assert_same_union(got, want) -> None:
    assert got.equals(want)
    assert typed_keys(got.keys) == typed_keys(want.keys)
    assert list(got.key_index.items()) == list(want.key_index.items())


class TestTypedUnion:
    @given(feed=feeds(), k=st.sampled_from([1, 2, 5, 50]))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_dictionary_union(self, feed, k):
        kinds, batches = feed
        summarizer = ShardedSummarizer(k, NAMES, hasher=KeyHasher(3))
        for name, keys, batch_weights in batches:
            summarizer.ingest(name, keys, batch_weights)
        got = summarizer.summary()
        fed = {kinds[name] for name, _, _ in batches}
        if got.n_union and len(fed) == 1 and fed <= TYPED:
            # united by sorting: the key index waits for its first use
            assert "_key_index" not in got.__dict__
        want = build_summary_from_sketches(
            summarizer.sketches(), summarizer.family
        )
        assert_same_union(got, want)

    def test_empty_summarizer(self):
        summarizer = ShardedSummarizer(4, NAMES)
        got = summarizer.summary()
        assert got.n_union == 0 and got.keys == []
        assert_same_union(got, build_summary_from_sketches(
            summarizer.sketches(), summarizer.family
        ))

    def test_k_one_with_an_empty_assignment(self):
        summarizer = ShardedSummarizer(1, NAMES)
        summarizer.ingest_multi(
            np.array([5, 3, 5, 9], dtype=np.int64),
            {"h1": np.array([1.0, 2.0, 3.0, 0.5]),
             "h2": np.array([0.0, 4.0, 1.0, 2.0])},
        )
        got = summarizer.summary()
        assert got.member[:, 2].sum() == 0
        assert_same_union(got, build_summary_from_sketches(
            summarizer.sketches(), summarizer.family
        ))

    @given(
        arrays=st.lists(st.lists(st.integers(-5, 30), max_size=25),
                        min_size=1, max_size=5),
        dtype=st.sampled_from([np.int8, np.int32, np.int64, np.uint16,
                               np.uint64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_sorted_union_is_first_encounter_order(self, arrays, dtype):
        if not any(arrays):
            return
        key_arrays = [
            np.array([v % 100 for v in values], dtype=dtype)
            for values in arrays
        ]
        index: dict = {}
        want_rows = [
            [index.setdefault(key, len(index)) for key in keys.tolist()]
            for keys in key_arrays
        ]
        union, rows = _sorted_union(key_arrays, np.dtype(dtype))
        assert union.dtype == dtype
        assert union.tolist() == list(index)
        assert [r.tolist() for r in rows] == want_rows


# -- lazy membership sets and the single-column CDF ---------------------------


class TestLazyMembers:
    def sketches(self):
        rng = np.random.default_rng(2)
        return [
            bottomk_from_ranks(rng.random(8), rng.random(8) + 0.1, k=3),
            poisson_from_ranks(rng.random(8), rng.random(8) + 0.1, tau=0.5),
        ]

    def test_built_on_first_lookup(self):
        for sketch in self.sketches():
            copy = sketch.copy()
            assert sketch._members is None and copy._members is None
            for key in range(8):
                assert (key in sketch) == (key in sketch.keys.tolist())
            assert sketch._members is not None
            assert copy._members is None

    def test_pickle_and_equals_either_side_of_a_lookup(self):
        for sketch in self.sketches():
            cold = pickle.loads(pickle.dumps(sketch))
            inside = sketch.keys.tolist()[0]
            assert inside in sketch
            warm = pickle.loads(pickle.dumps(sketch))
            for other in (cold, warm):
                assert other.equals(sketch) and sketch.equals(other)
                assert inside in other and -1 not in other


class TestSingleColumn:
    def test_single_estimate_computes_its_own_column(self):
        summary = summary_for("stream", np.arange(1.0, 41.0).reshape(10, 4),
                              4, 5, "exp", "shared_seed", "dispersed")
        views = summary.views()
        cold = plain_rc_kernel(summary, "w2")
        assert "cdf_weight_threshold" not in views.__dict__
        full = views.cdf_weight_threshold
        assert views.cdf_column(2).tobytes() == full[:, 2].tobytes()
        assert plain_rc_kernel(summary, "w2").tobytes() == cold.tobytes()
