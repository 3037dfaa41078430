"""Key predicates are lookups, and they select what a per-key scan selects.

``key_in`` finds its rows through a key → row index: the stream summary's
``key_index`` or the dataset's own.  This file keeps the per-key scans
those lookups replaced (``scan_mask``: ``select`` over every union key;
``scan_mask_at``: membership per dataset position) as references.  The
masks must equal the references, and the estimates must be bit-identical
to the masked sums over the reference masks.  Summaries are checked as
assembled, after a codec round trip and after a pickle round trip (the
index is a cache, not state, so both rebuild it).
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import summarize_dataset
from repro.core.aggregates import AggregationSpec
from repro.core.dataset import MultiAssignmentDataset
from repro.core.predicates import KeyIn, attribute_equals, key_in
from repro.core.summary import build_summary_from_sketches
from repro.engine.queries import QueryEngine
from repro.ranks.families import get_rank_family
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler
from repro.service.config import NamespaceConfig
from repro.service.planner import QueryPlanner
from repro.service.windows import LiveWindowManager
from repro.store import SummaryStore
from repro.store.codec import decode, encode

FAMILY = get_rank_family("ipps")
NAMES = ("a", "b", "c")
SPECS = [
    (AggregationSpec("max", NAMES), "sset"),
    (AggregationSpec("min", NAMES), "lset"),
    (AggregationSpec("l1", NAMES[:2]), "l1-l"),
    (AggregationSpec("single", ("a",)), "auto"),
]


def scan_mask(summary, predicate) -> np.ndarray:
    """Reference: ``select`` called once per union key."""
    return np.fromiter(
        (predicate.select(key, {}) for key in summary.keys),
        dtype=bool,
        count=summary.n_union,
    )


def scan_mask_at(predicate, dataset, positions) -> np.ndarray:
    """Reference: membership tested once per dataset position."""
    keys = dataset.keys
    return np.fromiter(
        (keys[pos] in predicate.keys for pos in np.asarray(positions).tolist()),
        dtype=bool,
        count=len(positions),
    )


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_matches_scan(engine, predicate, reference) -> None:
    mask = engine.predicate_mask(predicate)
    assert mask.dtype == bool
    assert mask.tolist() == reference.tolist()
    for spec, estimator in SPECS:
        dense = engine.adjusted_dense(spec, estimator)
        expected = float(dense[reference].sum())
        got = engine.estimate(spec, estimator, predicate=predicate)
        assert bits(got) == bits(expected), (spec, estimator)


# bool before int matters for identity; 1 / 1.0 / True are one dict key
scalar_keys = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.sampled_from([0, 1, 1.0, True, 0.0, -0.0, False, 2, 2.0]),
)
any_keys = st.one_of(scalar_keys, st.tuples(scalar_keys, scalar_keys))


@st.composite
def stream_summaries(draw):
    hasher = KeyHasher(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 6))
    sketches = {}
    for name in NAMES:
        keys = list(dict.fromkeys(draw(st.lists(any_keys, max_size=12))))
        weights = draw(st.lists(
            st.floats(0.1, 100.0), min_size=len(keys), max_size=len(keys),
        ))
        sampler = BottomKStreamSampler(k, FAMILY, hasher)
        for key, weight in zip(keys, weights):
            sampler.process(key, weight)
        sketches[name] = sampler.sketch()
    return build_summary_from_sketches(sketches, FAMILY)


@st.composite
def predicate_keys(draw, union):
    chosen = [key for key in union if draw(st.booleans())]
    absent = draw(st.lists(any_keys, max_size=4))
    as_numpy = [
        np.int64(key) for key in chosen
        if type(key) is int and -(2**63) <= key < 2**63 and draw(st.booleans())
    ]
    return chosen + absent + as_numpy


def round_trips(summary):
    yield "assembled", summary
    yield "codec", decode(encode(summary))
    yield "pickle", pickle.loads(pickle.dumps(summary))


class TestStreamSummaries:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lookup_masks_and_estimates_equal_the_scan(self, data):
        summary = data.draw(stream_summaries())
        predicates = [
            KeyIn(data.draw(predicate_keys(summary.keys))),
            KeyIn(()),
            KeyIn(summary.keys),
        ]
        for _how, variant in round_trips(summary):
            engine = QueryEngine(variant)
            for predicate in predicates:
                assert_matches_scan(
                    engine, predicate, scan_mask(variant, predicate)
                )

    def test_mixed_numeric_keys_select_as_one_key(self):
        sampler = BottomKStreamSampler(4, FAMILY, KeyHasher(3))
        for key, weight in [(1, 2.0), ("1", 3.0), ((1, "x"), 4.0)]:
            sampler.process(key, weight)
        other = BottomKStreamSampler(4, FAMILY, KeyHasher(3))
        other.process(True, 5.0)
        summary = build_summary_from_sketches(
            {"a": sampler.sketch(), "b": other.sketch()}, FAMILY
        )
        engine = QueryEngine(summary)
        for selected in ([1], [1.0], [True], [np.int64(1)], [(True, "x")]):
            predicate = key_in(selected)
            mask = engine.predicate_mask(predicate)
            assert mask.tolist() == scan_mask(summary, predicate).tolist()
            assert mask.sum() == 1

    def test_index_is_a_cache_not_state(self):
        summary = TestDatasetBackedStream.make_stream_summary()
        assert summary.__dict__["_key_index"] == {
            key: row for row, key in enumerate(summary.keys)
        }
        assert "_key_index" not in summary.__getstate__()
        clone = pickle.loads(pickle.dumps(summary))
        decoded = decode(encode(summary))
        for copy in (clone, decoded):
            assert "_key_index" not in copy.__dict__
            assert copy.equals(summary)
            assert copy.key_index == summary.key_index
        relabelled = dataclasses.replace(summary, keys=summary.keys[::-1])
        assert relabelled.key_index == {
            key: row for row, key in enumerate(summary.keys[::-1])
        }

    def test_threads_racing_the_lazy_index_build_agree(self):
        """The index is built on first use without a lock: racing builds
        produce equal dicts, so every thread sees the scan's mask."""
        summary = TestDatasetBackedStream.make_stream_summary()
        predicate = key_in(summary.keys[::3])
        expected = scan_mask(summary, predicate).tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                engine = QueryEngine(decode(encode(summary)))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    masks = list(pool.map(
                        lambda _: engine.predicate_mask(predicate).tolist(),
                        range(16),
                    ))
                assert masks == [expected] * 16
        finally:
            sys.setswitchinterval(interval)

    def test_repeated_summary_keys_are_refused(self):
        """One key on two rows is a malformed summary (e.g. hostile codec
        bytes); a lookup would see only one of the rows, so refuse it."""
        summary = TestDatasetBackedStream.make_stream_summary()
        keys = list(summary.keys)
        keys[1] = keys[0]
        broken = decode(encode(dataclasses.replace(summary, keys=keys)))
        with pytest.raises(ValueError, match="not distinct"):
            QueryEngine(broken).estimate(
                AggregationSpec("max", ("a", "b")), "sset",
                predicate=key_in([keys[0]]),
            )

    def test_key_in_masks_are_not_memoized(self):
        summary = TestDatasetBackedStream.make_stream_summary()
        engine = QueryEngine(summary)
        spec = AggregationSpec("max", ("a", "b"))
        for i in range(300):
            engine.estimate(spec, "sset", predicate=key_in({f"key{i % 30}"}))
        assert not engine._predicate_masks
        assert not engine._predicate_refs


class TestDatasetBackedStream:
    @staticmethod
    def make_stream_summary():
        hasher = KeyHasher(5)
        rng = np.random.default_rng(2)
        sketches = {}
        for name in ("a", "b"):
            sampler = BottomKStreamSampler(5, FAMILY, hasher)
            for key in range(30):
                sampler.process(f"key{key}", float(rng.pareto(1.3) + 0.1))
            sketches[name] = sampler.sketch()
        return build_summary_from_sketches(sketches, FAMILY)

    def test_key_in_needs_no_dataset_row_for_every_summary_key(self):
        """A dataset that lacks some summary keys used to refuse key_in,
        which reads no attribute; the answer must equal the no-dataset
        engine's bit for bit."""
        summary = self.make_stream_summary()
        dataset = MultiAssignmentDataset(
            [summary.keys[0]], ["a", "b"], np.ones((1, 2)),
            attributes={"group": [0]},
        )
        with_dataset = QueryEngine(summary, dataset)
        without = QueryEngine(summary)
        spec = AggregationSpec("max", ("a", "b"))
        predicate = key_in(summary.keys[::2])
        assert bits(with_dataset.estimate(spec, "sset", predicate=predicate)) \
            == bits(without.estimate(spec, "sset", predicate=predicate))
        with pytest.raises(ValueError, match="not in the attached dataset"):
            with_dataset.estimate(spec, "sset",
                                  predicate=attribute_equals("group", 0))


class TestMatrixMode:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_dataset_lookup_masks_equal_the_scan(self, data):
        keys = data.draw(st.lists(any_keys, min_size=1, max_size=30,
                                  unique_by=lambda key: key))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        dataset = MultiAssignmentDataset(
            keys, list(NAMES), rng.pareto(1.3, (len(keys), 3)) + 0.1
        )
        summary = summarize_dataset(
            dataset, k=data.draw(st.integers(1, 8)), mode="dispersed",
            seed=data.draw(st.integers(0, 2**32)),
        )
        assert summary.keys is None and summary.key_index is None
        selected = data.draw(predicate_keys(keys))
        engine = QueryEngine(summary, dataset)
        for predicate in (KeyIn(selected), KeyIn(()), KeyIn(keys)):
            assert predicate.mask(dataset).tolist() == scan_mask_at(
                predicate, dataset, np.arange(dataset.n_keys)
            ).tolist()
            assert_matches_scan(
                engine, predicate,
                scan_mask_at(predicate, dataset, summary.positions),
            )


NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=9)
T0 = datetime(2026, 7, 28, 12, 0, 30, tzinfo=timezone.utc).timestamp()


def test_repeated_keys_share_a_result_cache_row(tmp_path):
    manager = LiveWindowManager(SummaryStore(tmp_path), [NS], clock=lambda: T0)
    planner = QueryPlanner(manager)
    weights = np.linspace(1.0, 3.0, 20)
    manager.ingest("web", [f"k{i}" for i in range(20)],
                   {"h1": weights, "h2": weights * 2.0})
    first = planner.estimate("web", "max", ["h1", "h2"], keys=["k5", "k5"])
    assert first["cached"] is False
    again = planner.estimate("web", "max", ["h1", "h2"], keys=["k5"])
    assert again["cached"] is True
    assert again["estimate"] == first["estimate"]
    manager.store.runtime.close()
