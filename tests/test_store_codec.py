"""Codec round-trip suite: bit-exact, deterministic, version-safe.

The contract under test (``repro.store.codec``):

* ``decode(encode(x))`` equals ``x`` bit for bit, across EXP/IPPS rank
  families, bottom-k / Poisson / combined summaries, summarizer
  checkpoints, tuple and string keys, and empty / degenerate objects
  (hypothesis property plus directed cases);
* encoding is deterministic — equal objects give byte-identical blobs;
* unknown format versions, bad magic, truncation, payload corruption and
  a header that lies under a valid checksum are refused with a
  :class:`CodecError`, never misread;
* ``tests/data/golden_store_v1.cws`` pins the v1 binary format: the
  checked-in bytes must decode to today's objects *and* today's encoder
  must reproduce them exactly (regenerate with
  ``python tests/data/make_golden_store.py`` only on a deliberate format
  bump).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.summary import (
    build_bottomk_summary,
    build_poisson_summary,
    build_summary_from_sketches,
)
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import ExponentialRanks, IppsRanks, RankFamily
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler, bottomk_from_ranks
from repro.sampling.poisson import poisson_from_ranks
from repro.store.codec import (
    CodecError,
    FORMAT_VERSION,
    MAGIC,
    SketchBundle,
    UnsupportedFormatError,
    atomic_write_bytes,
    decode,
    decode_bundle_batch,
    encode,
    encode_bundle_batch,
)
from tests.test_ingest_frames import reheader

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "golden_store_v1.cws"

FAMILIES = [IppsRanks(), ExponentialRanks()]


def golden_bundle() -> SketchBundle:
    """The deterministic artifact pinned by the golden file."""
    family, hasher = IppsRanks(), KeyHasher(7)
    streams = {
        "hour1": [
            ("alpha", 20.0), ("beta", 10.0), ("gamma", 12.0),
            (("srv", 1), 20.0), ("epsilon", 10.0), ("zeta", 10.0),
        ],
        "hour2": [
            ("alpha", 15.0), ("gamma", 9.5), ("delta", 3.25),
            (("srv", 1), 0.75), ("eta", 64.0),
        ],
    }
    sketches = {}
    for name, items in streams.items():
        sampler = BottomKStreamSampler(4, family, hasher)
        sampler.process_stream(items)
        sketches[name] = sampler.sketch()
    return SketchBundle("bottomk", sketches, family, hasher_salt=7)


def roundtrip(obj):
    """decode(encode(obj)), asserting deterministic re-encoding."""
    blob = encode(obj)
    back = decode(blob, verify=True)
    assert encode(back) == blob, "re-encoding a decoded object drifted"
    return back


def stream_sketch(items, k=3, family=None, salt=7):
    sampler = BottomKStreamSampler(
        k, family if family is not None else IppsRanks(), KeyHasher(salt)
    )
    sampler.process_stream(items)
    return sampler.sketch()


class TestSketchRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_stream_sketch(self, family):
        sk = stream_sketch(
            [("a", 3.0), ("b", 1.0), ("c", 9.0), ("d", 0.5)], family=family
        )
        assert roundtrip(sk).equals(sk)

    def test_matrix_sketch_int64_keys(self):
        rng = np.random.default_rng(3)
        ranks = rng.random(20)
        sk = bottomk_from_ranks(ranks, np.ones(20), k=5, seeds=rng.random(20))
        back = roundtrip(sk)
        assert back.equals(sk)
        assert back.keys.dtype == np.int64

    def test_exotic_keys(self):
        items = [
            (("flow", 12, ("nested", True)), 5.0),
            (2**80, 1.0),  # beyond int64
            (b"raw-bytes", 2.0),
            (False, 3.0),
            (2.5, 4.0),
            ("überflüssig", 0.25),
        ]
        sk = stream_sketch(items, k=6)
        back = roundtrip(sk)
        assert back.equals(sk)
        assert set(back.keys.tolist()) == set(sk.keys.tolist())

    def test_empty_sketch(self):
        sk = stream_sketch([("a", 0.0)])  # zero weight: nothing sampled
        assert len(sk) == 0
        assert roundtrip(sk).equals(sk)

    def test_fewer_than_k(self):
        sk = stream_sketch([("a", 1.0)], k=4)
        assert sk.threshold == np.inf
        assert roundtrip(sk).equals(sk)

    def test_seedless_sketch(self):
        ranks = np.array([0.3, 0.1, 0.7])
        sk = bottomk_from_ranks(ranks, np.ones(3), k=2)  # no seeds
        back = roundtrip(sk)
        assert back.seeds is None
        assert back.equals(sk)

    def test_poisson_sketch(self):
        rng = np.random.default_rng(5)
        sk = poisson_from_ranks(
            rng.random(30), rng.pareto(1.3, 30) + 0.1, tau=0.2,
            seeds=rng.random(30),
        )
        assert roundtrip(sk).equals(sk)

    def test_membership_rebuilt(self):
        sk = stream_sketch([("a", 3.0), ("b", 1.0)], k=2)
        back = roundtrip(sk)
        assert "a" in back and "missing" not in back


class TestSamplerIsNotAnArtifact:
    """A stream sampler has no codec kind: a store keeps its sketches,
    and a mid-stream snapshot is a summarizer checkpoint."""

    def test_encode_refuses_a_stream_sampler(self):
        sampler = BottomKStreamSampler(3, IppsRanks(), KeyHasher(11))
        sampler.process_stream([("a", 5.0), ("b", 1.0)])
        with pytest.raises(CodecError, match="cannot serialize"):
            encode(sampler)

    def test_a_sampler_blob_is_an_unknown_kind(self):
        from repro.store.codec import _BlobWriter

        writer = _BlobWriter(
            "bottomk_sampler", {"k": 3, "family": "ipps", "salt": 11}
        )
        writer.add_keys("heap_keys", ["a"])
        writer.add_scalars("heap_ranks", [0.25])
        writer.add_keys("seen", ["a"])
        with pytest.raises(
            CodecError, match="unknown blob kind 'bottomk_sampler'"
        ):
            decode(writer.render(), verify=True)


def _summary(mode, method, family, kind="bottomk", n=30, m=3, k=5, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.pareto(1.3, (n, m)) * 10.0 + 0.1
    weights[rng.random((n, m)) < 0.2] = 0.0
    names = [f"w{b}" for b in range(m)]
    draw = get_rank_method(method).draw(family, weights, rng)
    if kind == "poisson":
        taus = np.full(m, 0.05)
        return build_poisson_summary(
            weights, draw, taus, names, family, mode=mode, expected_size=k
        )
    return build_bottomk_summary(weights, draw, k, names, family, mode=mode)


class TestSummaryRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", ["colocated", "dispersed"])
    @pytest.mark.parametrize("method", ["shared_seed", "independent"])
    def test_bottomk_matrix(self, family, mode, method):
        summary = _summary(mode, method, family)
        assert roundtrip(summary).equals(summary)

    def test_independent_differences_no_seeds(self):
        summary = _summary(
            "dispersed", "independent_differences", ExponentialRanks()
        )
        back = roundtrip(summary)
        assert back.seeds is None
        assert back.equals(summary)

    @pytest.mark.parametrize("mode", ["colocated", "dispersed"])
    def test_poisson(self, mode):
        summary = _summary(mode, "shared_seed", IppsRanks(), kind="poisson")
        assert roundtrip(summary).equals(summary)

    def test_stream_summary_with_raw_keys(self):
        sketches = {
            "h1": stream_sketch([("a", 3.0), (("t", 2), 1.0), ("c", 4.0)]),
            "h2": stream_sketch([("a", 1.0), ("d", 2.0)]),
        }
        summary = build_summary_from_sketches(sketches, IppsRanks())
        back = roundtrip(summary)
        assert back.keys == summary.keys
        assert back.equals(summary)

    def test_empty_summary(self):
        weights = np.zeros((4, 2))
        rng = np.random.default_rng(0)
        draw = get_rank_method("shared_seed").draw(IppsRanks(), weights, rng)
        summary = build_bottomk_summary(
            weights, draw, 2, ["a", "b"], IppsRanks(), mode="dispersed"
        )
        assert summary.n_union == 0
        assert roundtrip(summary).equals(summary)

    def test_estimates_survive_round_trip(self):
        from repro.core.aggregates import AggregationSpec
        from repro.engine.queries import QueryEngine

        summary = _summary("dispersed", "shared_seed", IppsRanks())
        spec = AggregationSpec("max", ("w0", "w1"))
        direct = QueryEngine(summary).estimate(spec)
        stored = QueryEngine(decode(encode(summary))).estimate(spec)
        assert stored == direct


class TestBundleRoundTrip:
    def test_bottomk_bundle(self):
        bundle = golden_bundle()
        assert roundtrip(bundle).equals(bundle)

    def test_poisson_bundle(self):
        rng = np.random.default_rng(2)
        sketches = {
            name: poisson_from_ranks(
                rng.random(20), rng.pareto(1.2, 20) + 0.1, tau=0.3
            )
            for name in ("p1", "p2")
        }
        bundle = SketchBundle(
            "poisson", sketches, ExponentialRanks(), hasher_salt=None
        )
        back = roundtrip(bundle)
        assert back.equals(bundle)
        assert back.hasher_salt is None

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bundle kind"):
            SketchBundle(
                "poisson", {"h": stream_sketch([("a", 1.0)])}, IppsRanks()
            )

    def test_unregistered_family_refused(self):
        class HomebrewRanks(IppsRanks):
            name = "homebrew"

        bundle = SketchBundle(
            "bottomk", {"h": stream_sketch([("a", 1.0)])}, HomebrewRanks(),
            hasher_salt=7,
        )
        with pytest.raises(CodecError, match="registry"):
            encode(bundle)

    def test_summary_from_decoded_bundle_matches(self):
        bundle = golden_bundle()
        assert decode(encode(bundle)).summary().equals(bundle.summary())


class TestErrorPaths:
    def test_unknown_version_refused(self):
        blob = bytearray(encode(stream_sketch([("a", 1.0)])))
        blob[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(UnsupportedFormatError, match="version"):
            decode(bytes(blob))

    def test_bad_magic(self):
        blob = b"NOPE" + encode(stream_sketch([("a", 1.0)]))[4:]
        with pytest.raises(CodecError, match="magic"):
            decode(blob)

    def test_truncated(self):
        blob = encode(stream_sketch([("a", 1.0), ("b", 2.0)]))
        with pytest.raises(CodecError):
            decode(blob[: len(blob) // 2], verify=True)
        with pytest.raises(CodecError):
            decode(blob[:6])

    def test_corrupt_payload_caught_by_crc(self):
        blob = bytearray(encode(stream_sketch([("a", 1.0), ("b", 2.0)])))
        blob[-3] ^= 0xFF
        decode(bytes(blob))  # unverified decode does not check
        with pytest.raises(CodecError, match="checksum"):
            decode(bytes(blob), verify=True)

    def test_unknown_kind(self):
        from repro.store.codec import _BlobWriter

        blob = _BlobWriter("hologram", {}).render()
        with pytest.raises(CodecError, match="unknown blob kind"):
            decode(blob)
        unhashable = reheader(blob, lambda header: header.update(kind=[1]))
        with pytest.raises(CodecError, match="unknown blob kind"):
            decode(unhashable)

    def test_unsupported_object(self):
        with pytest.raises(CodecError, match="cannot serialize"):
            encode({"not": "supported"})

    def test_unsupported_key_type(self):
        sk = stream_sketch([("a", 1.0)])
        sk.keys = np.empty(1, dtype=object)
        sk.keys[0] = frozenset({1})
        with pytest.raises(CodecError, match="frozenset"):
            encode(sk)

    def test_truncated_key_buffer_raises_codec_error(self):
        # Even without CRC verification, a key buffer cut mid-entry must
        # surface as CodecError, never a raw struct.error.
        from repro.store.codec import _BlobWriter, _pack_keys

        writer = _BlobWriter("bottomk_sketch", {"k": 1})
        packed = _pack_keys(["abcdefgh"])
        # cut inside the 4-byte string-length field
        writer._append("keys", packed[:3], {"enc": "obj", "count": 1})
        writer.add_scalars("ranks", [0.5])
        writer.add_scalars("weights", [1.0])
        writer.add_scalars("scalars", [0.5, np.inf])
        with pytest.raises(CodecError, match="truncated key buffer"):
            decode(writer.render())


def _checkpoint():
    from repro.engine.sharded import ShardedSummarizer

    engine = ShardedSummarizer(3, ["h1"], hasher=KeyHasher(4))
    engine.ingest("h1", ["a", "b"], [1.0, 2.0])
    return engine.checkpoint_state()


def _set(section, field, value):
    return lambda header: header[section].__setitem__(field, value)


#: (object, header edit): lies that a decoder must refuse by its kind's
#: row, under a valid checksum
LIES = {
    "bottomk_sketch-k-list": (
        lambda: stream_sketch([("a", 1.0), ("b", 2.0)]),
        _set("meta", "k", [2]),
    ),
    "poisson_sketch-shape-int": (
        lambda: poisson_from_ranks(
            np.array([0.1, 0.5]), np.array([1.0, 2.0]), tau=0.3
        ),
        lambda header: header["arrays"]["ranks"].__setitem__("shape", 2),
    ),
    "summary-assignments-int": (
        lambda: _summary("dispersed", "shared_seed", IppsRanks()),
        _set("meta", "assignments", 3),
    ),
    "sketch_bundle-family-int": (golden_bundle, _set("meta", "family", 5)),
    "sketch_bundle-names-missing": (
        golden_bundle, lambda header: header["meta"].pop("names"),
    ),
    "sketch_bundle-names-int": (golden_bundle, _set("meta", "names", 3)),
    "checkpoint-layout-str": (_checkpoint, _set("meta", "layout", [["x"]])),
    # lies a type check alone lets through: the row's ranges and length
    # relations refuse them
    "bottomk_sketch-ranks-short": (
        lambda: bottomk_from_ranks(np.linspace(0.1, 0.9, 9), np.ones(9), k=8),
        lambda header: header["arrays"]["ranks"].update(shape=[7], nbytes=56),
    ),
    "bottomk_sketch-k-negative": (
        lambda: stream_sketch([("a", 1.0)]), _set("meta", "k", -3),
    ),
    "bottomk_sketch-k-true": (
        lambda: stream_sketch([("a", 1.0)]), _set("meta", "k", True),
    ),
    "summary-assignments-three": (
        lambda: _summary("dispersed", "shared_seed", IppsRanks(), m=2),
        _set("meta", "assignments", ["w0", "w1", "w2"]),
    ),
    "sketch_bundle-names-short": (
        golden_bundle, _set("meta", "names", ["hour1"]),
    ),
    "sketch_bundle-names-repeated": (
        golden_bundle, _set("meta", "names", ["hour1", "hour1"]),
    ),
}

#: the header field or buffer each lie is about
LIED_ABOUT = {
    "bottomk_sketch-k-list": "k",
    "poisson_sketch-shape-int": "ranks",
    "summary-assignments-int": "assignments",
    "sketch_bundle-family-int": "family",
    "sketch_bundle-names-missing": "names",
    "sketch_bundle-names-int": "names",
    "checkpoint-layout-str": "layout",
    "bottomk_sketch-ranks-short": "ranks",
    "bottomk_sketch-k-negative": "k",
    "bottomk_sketch-k-true": "k",
    "summary-assignments-three": "assignments",
    "sketch_bundle-names-short": "names",
    "sketch_bundle-names-repeated": "names",
}


class TestLyingHeaders:
    """A header that lies under a valid checksum is a :class:`CodecError`
    from :func:`decode`, whatever the kind."""

    @pytest.mark.parametrize("case", sorted(LIES))
    def test_lie_raises_codec_error(self, case):
        make, edit = LIES[case]
        blob = encode(make())
        assert decode(blob, verify=True) is not None
        with pytest.raises(CodecError, match=case.split("-")[0]):
            decode(reheader(blob, edit), verify=True)

    @pytest.mark.parametrize("case", sorted(LIES))
    def test_the_refusal_names_the_field_lied_about(self, case):
        """The kind's row refused the lie: its message names the field
        (the catch-all would name only an exception)."""
        make, edit = LIES[case]
        with pytest.raises(CodecError) as err:
            decode(reheader(encode(make()), edit), verify=True)
        assert f"{LIED_ABOUT[case]!r}" in str(err.value)
        assert "Error(" not in str(err.value)

    def test_repeated_names_in_a_bundle_frame(self):
        """A bundle that names ``h1`` twice reaches a coordinator in a
        CRC-valid frame: refused, never read as ``h1`` holding ``h2``'s
        sample."""
        bundle = SketchBundle("bottomk", {
            "h1": stream_sketch([("a", 1.0), ("b", 2.0)]),
            "h2": stream_sketch([("c", 30.0)]),
        }, IppsRanks(), hasher_salt=7)
        blob = reheader(encode(bundle), _set("meta", "names", ["h1", "h1"]))
        frame = encode_bundle_batch([("web--s000", "bundle", "t1", blob)])
        with pytest.raises(CodecError, match="sketch_bundle") as err:
            decode_bundle_batch(frame, ["web--s000"])
        assert "'names'" in str(err.value)


class TestZeroCopy:
    def test_decoded_arrays_are_views(self):
        sk = stream_sketch([("a", 3.0), ("b", 1.0)])
        back = decode(encode(sk))
        assert not back.ranks.flags.writeable
        assert back.ranks.base is not None

    def test_writable_copies(self):
        sk = stream_sketch([("a", 3.0), ("b", 1.0)])
        back = decode(encode(sk), writable=True)
        back.ranks[0] = -1.0  # must not raise

    def test_file_round_trip(self, tmp_path):
        sk = stream_sketch([("a", 3.0), ("b", 1.0)])
        path = tmp_path / "sk.cws"
        atomic_write_bytes(path, encode(sk))
        assert decode(path.read_bytes(), verify=True).equals(sk)


# -- hypothesis property: decode(encode(x)) == x over generated objects ------

_key_strategy = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=6),
    st.booleans(),
    st.binary(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.tuples(st.integers(min_value=0, max_value=99), st.text(max_size=3)),
)

# zero is covered explicitly; positive weights stay out of the denormal
# range, where EXP ranks overflow to +inf with a RuntimeWarning
_weight_strategy = st.one_of(
    st.just(0.0), st.floats(min_value=1e-12, max_value=1e9)
)


@settings(deadline=None)
@given(
    items=st.dictionaries(_key_strategy, _weight_strategy, max_size=12),
    k=st.integers(min_value=1, max_value=5),
    family_ipps=st.booleans(),
    salt=st.integers(min_value=0, max_value=2**32),
)
# a str and its UTF-8 bytes hash alike: equal weights tie on rank and seed
@example(items={"": 1.0, b"": 1.0}, k=1, family_ipps=True, salt=0)
def test_roundtrip_property_sketch(items, k, family_ipps, salt):
    family: RankFamily = IppsRanks() if family_ipps else ExponentialRanks()
    sampler = BottomKStreamSampler(k, family, KeyHasher(salt))
    sampler.process_stream(items.items())
    sketch = sampler.sketch()
    assert roundtrip(sketch).equals(sketch)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=1, max_value=25),
    m=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=6),
    mode_dispersed=st.booleans(),
    method=st.sampled_from(["shared_seed", "independent"]),
    family_ipps=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_roundtrip_property_summary(
    n, m, k, mode_dispersed, method, family_ipps, seed
):
    family = IppsRanks() if family_ipps else ExponentialRanks()
    summary = _summary(
        "dispersed" if mode_dispersed else "colocated",
        method, family, n=n, m=m, k=k, seed=seed,
    )
    assert roundtrip(summary).equals(summary)


# -- golden file: pins binary format v1 against drift ------------------------


class TestGoldenStoreFile:
    def test_golden_file_exists(self):
        assert GOLDEN.exists(), (
            "tests/data/golden_store_v1.cws is missing; regenerate with "
            "python tests/data/make_golden_store.py"
        )

    def test_golden_decodes_to_expected_objects(self):
        stored = decode(GOLDEN.read_bytes(), verify=True)
        assert stored.equals(golden_bundle())

    def test_encoder_reproduces_golden_bytes(self):
        """Today's encoder must emit exactly the checked-in v1 bytes.

        A failure here means the binary format (or the sampler/hash
        pipeline feeding it) drifted: either restore compatibility or bump
        FORMAT_VERSION, add a migration, and regenerate the golden file
        deliberately.
        """
        assert encode(golden_bundle()) == GOLDEN.read_bytes()

    def test_golden_header_is_version_1(self):
        raw = GOLDEN.read_bytes()
        assert raw[:4] == MAGIC
        assert int.from_bytes(raw[4:6], "little") == 1
