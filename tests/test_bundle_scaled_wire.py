"""Scaled bundles survive the wire: codec round trip + from_bundles(scales=).

The decay-aware cluster path composes three primitives —
:meth:`SketchBundle.scaled`, the codec's encode→decode round trip, and
:meth:`QueryEngine.from_bundles` / :meth:`from_encoded_bundles` with
``scales=`` — and exactness of the composition is what lets a
coordinator apply per-bucket decay factors to bundles fetched from
workers.  These tests pin the composition bit for bit:

* ``scaled`` commutes with the codec: scale-then-encode and
  encode-then-scale decode to bit-identical bundles;
* ``from_bundles(bundles, scales=...)`` equals pre-scaling by hand;
* ``from_encoded_bundles(blobs, scales=...)`` — the over-the-wire path —
  answers bit-identically to the in-memory engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.hashing import KeyHasher
from repro.store.codec import decode, encode

ASSIGNMENTS = ["h1", "h2"]
SALT = 13


def make_bundle(key_range, seed=0, k=8):
    """Small bundle over a dedicated key range (disjoint ranges merge)."""
    rng = np.random.default_rng(seed)
    engine = ShardedSummarizer(
        k=k, assignments=ASSIGNMENTS, hasher=KeyHasher(SALT)
    )
    keys = np.arange(*key_range)
    for name in ASSIGNMENTS:
        engine.ingest(name, keys, rng.pareto(1.3, len(keys)) + 0.05)
    return engine.sketch_bundle()


SCALES = [0.25, 1.0, 3.5]


@pytest.fixture(scope="module")
def bundles():
    return [
        make_bundle((0, 60), seed=1),
        make_bundle((60, 120), seed=2),
        make_bundle((120, 180), seed=3),
    ]


class TestScaledCodecRoundTrip:
    def test_scale_commutes_with_codec(self, bundles):
        for bundle, factor in zip(bundles, SCALES):
            scaled_then_wire = decode(encode(bundle.scaled(factor)))
            wire_then_scaled = decode(encode(bundle)).scaled(factor)
            assert scaled_then_wire.equals(wire_then_scaled)
            assert scaled_then_wire.equals(bundle.scaled(factor))

    def test_factor_one_is_a_shared_no_op(self, bundles):
        bundle = bundles[0]
        assert bundle.scaled(1.0) is bundle
        assert decode(encode(bundle)).equals(bundle.scaled(1.0))

    def test_scaled_bundles_stay_mergeable(self, bundles):
        # coordination metadata is untouched, so key-disjoint scaled
        # bundles still merge exactly
        scaled = [b.scaled(s) for b, s in zip(bundles, SCALES)]
        merged = scaled[0].merge(*scaled[1:])
        assert sorted(merged.assignments) == sorted(ASSIGNMENTS)


class TestFromBundlesScales:
    def test_scales_equal_prescaling_by_hand(self, bundles):
        via_scales = QueryEngine.from_bundles(bundles, scales=SCALES)
        by_hand = QueryEngine.from_bundles(
            [b.scaled(s) for b, s in zip(bundles, SCALES)]
        )
        for function in ("max", "min", "l1"):
            spec = AggregationSpec(function, tuple(ASSIGNMENTS))
            assert via_scales.estimate(spec) == by_hand.estimate(spec)

    def test_wire_path_is_bit_identical(self, bundles):
        blobs = [encode(b) for b in bundles]
        over_wire = QueryEngine.from_encoded_bundles(blobs, scales=SCALES)
        in_memory = QueryEngine.from_bundles(bundles, scales=SCALES)
        for function in ("max", "min", "l1"):
            spec = AggregationSpec(function, tuple(ASSIGNMENTS))
            assert over_wire.estimate(spec) == in_memory.estimate(spec)
        single = AggregationSpec("single", ("h1",))
        assert over_wire.estimate(single) == in_memory.estimate(single)

    def test_scale_count_mismatch_rejected(self, bundles):
        with pytest.raises(ValueError, match="one scale per bundle"):
            QueryEngine.from_bundles(bundles, scales=[1.0])

    def test_corrupted_blob_fails_loudly(self, bundles):
        blob = bytearray(encode(bundles[0]))
        blob[-1] ^= 0xFF  # flip one payload byte: CRC must catch it
        from repro.store.codec import CodecError

        with pytest.raises(CodecError):
            QueryEngine.from_encoded_bundles([bytes(blob)])
