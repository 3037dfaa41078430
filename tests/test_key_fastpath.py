"""No per-key Python on the summary and bundle path — and no change in
what it produces.

* **same bytes** — ``codec._pack_keys`` packs a list of plain int64 ints
  in one NumPy pass; every list, of any key types, packs to exactly the
  bytes of the per-key reference packer kept below;
* **same keys** — the one-pass readers (``_unpack_keys``, and a
  checkpoint chunk's, a sketch's and an ingest section's decoded key
  column) give what the per-key reference parser gives, in value *and* type, and every buffer they do not take
  (a foreign tag, a non-int count, a truncation) fails exactly as the
  reference does;
* **same summary** — ``build_summary_from_sketches`` equals the
  per-key assembly loop kept below, every array bit for bit;
* **one source is its own merge** — what lets a worker encode a
  one-source view without merging it.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summary import (
    DISPERSED,
    MultiAssignmentSummary,
    build_summary_from_sketches,
)
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import ExponentialRanks
from repro.ranks.hashing import KeyHasher
from repro.ranks.families import IppsRanks
from repro.sampling.bottomk import BottomKSketch
from repro.store import codec
from repro.store.codec import (
    CodecError,
    SummarizerCheckpoint,
    _BlobReader,
    _BlobWriter,
    _pack_keys,
    _unpack_keys,
    decode,
    decode_bundle_batch,
    decode_event_batch,
    encode,
    encode_bundle_batch,
    encode_event_batch,
    encode_event_section,
)
from tests.test_ingest_frames import reheader

# -- the per-key reference codec (the loops the fast path must equal) -------

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def ref_pack_key(value, out: bytearray) -> None:
    if isinstance(value, (bool, np.bool_)):
        out += b"B" + (b"\x01" if value else b"\x00")
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        if -(2**63) <= value <= 2**63 - 1:
            out += b"i" + _I64.pack(value)
        else:
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "little", signed=True
            )
            out += b"I" + _U32.pack(len(raw)) + raw
    elif isinstance(value, (float, np.floating)):
        out += b"f" + _F64.pack(float(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + _U32.pack(len(raw)) + raw
    elif isinstance(value, bytes):
        out += b"y" + _U32.pack(len(value)) + value
    elif isinstance(value, tuple):
        out += b"t" + _U32.pack(len(value))
        for part in value:
            ref_pack_key(part, out)
    else:
        raise CodecError(
            f"cannot serialize key of type {type(value).__name__}: {value!r}"
        )


def ref_pack_keys(values) -> bytes:
    out = bytearray()
    for value in values:
        ref_pack_key(value, out)
    return bytes(out)


def ref_unpack_key(buf, pos):
    if pos >= len(buf):
        raise CodecError("truncated key buffer")
    tag = buf[pos : pos + 1].tobytes()
    pos += 1
    if tag == b"B":
        return buf[pos] != 0, pos + 1
    if tag == b"i":
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == b"I":
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return int.from_bytes(buf[pos : pos + n], "little", signed=True), pos + n
    if tag == b"f":
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == b"s":
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos : pos + n].tobytes().decode("utf-8"), pos + n
    if tag == b"y":
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos : pos + n].tobytes(), pos + n
    if tag == b"t":
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        parts = []
        for _ in range(count):
            part, pos = ref_unpack_key(buf, pos)
            parts.append(part)
        return tuple(parts), pos
    raise CodecError(f"unknown key tag {tag!r}")


def ref_unpack_keys(buf, count):
    values = []
    pos = 0
    try:
        for _ in range(count):
            value, pos = ref_unpack_key(buf, pos)
            values.append(value)
    except (struct.error, IndexError):
        raise CodecError("truncated key buffer") from None
    except (UnicodeDecodeError, RecursionError) as err:
        raise CodecError(f"corrupt key buffer: {err}") from None
    if pos != len(buf):
        raise CodecError(
            f"key buffer has {len(buf) - pos} trailing bytes after "
            f"{count} keys"
        )
    return values


def typed(value):
    """``value`` with every leaf paired with its exact type (floats by
    their bits, so a NaN equals itself)."""
    if isinstance(value, (list, tuple)):
        return type(value), [typed(part) for part in value]
    if type(value) is float:
        return float, _F64.pack(value)
    return type(value), value


def outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as err:  # compared, not swallowed
        return "raise", type(err), str(err)
    return "ok", typed(list(value))


# -- key strategies -----------------------------------------------------------

INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1]
#: the neighbours just outside int64, and uint64's top half
BEYOND_INT64 = [-(2**63) - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, -(2**64)]

plain_ints = st.integers(-(2**63), 2**63 - 1) | st.sampled_from(INT64_EDGES)
any_ints = plain_ints | st.sampled_from(BEYOND_INT64) | st.integers()
scalars = (
    any_ints
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(0, 2**64 - 1).map(np.uint64)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.binary(max_size=6)
)
keys = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=5,
)
key_lists = (
    st.lists(plain_ints, max_size=40)
    | st.lists(any_ints, max_size=20)
    | st.lists(keys, max_size=20)
    # one foreign key in a list of plain ints
    | st.tuples(st.lists(plain_ints, min_size=1, max_size=20), keys,
                st.integers(0, 20)).map(
        lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2]:]
    )
)


class TestSameBytes:
    @given(values=key_lists)
    @settings(max_examples=300, deadline=None)
    def test_pack_keys_equals_the_per_key_packer(self, values):
        assert _pack_keys(values) == ref_pack_keys(values)

    def test_the_fast_path_takes_only_plain_int64_ints(self):
        edge = INT64_EDGES
        assert _pack_keys(edge) == ref_pack_keys(edge)
        assert len(_pack_keys(edge)) == 9 * len(edge)
        for foreign in (True, np.int64(3), 2**63, -(2**63) - 1, 1.0, "1"):
            values = [*edge, foreign]
            assert _pack_keys(values) == ref_pack_keys(values), foreign
        assert _pack_keys([]) == b""


def object_array(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for pos, value in enumerate(values):
        out[pos] = value
    return out


def decoded_chunk_keys(values) -> np.ndarray:
    """``values`` through a checkpoint chunk's tag-packed key column."""
    checkpoint = SummarizerCheckpoint(
        k=1, assignments=["h1"], family=IppsRanks(), hasher_salt=0,
        chunks={"h1": [(object_array(values), np.ones(len(values)))]},
    )
    return decode(encode(checkpoint), verify=True).chunks["h1"][0][0]


class TestSameKeys:
    @given(values=key_lists)
    @settings(max_examples=300, deadline=None)
    def test_every_reader_equals_the_per_key_parser(self, values):
        blob = ref_pack_keys(values)
        want = typed(ref_unpack_keys(memoryview(blob), len(values)))
        assert typed(_unpack_keys(memoryview(blob), len(values))) == want
        array = decoded_chunk_keys(values)
        assert array.dtype == object and array.shape == (len(values),)
        assert typed(array.tolist()) == want
        column = object_array(values)
        sketch = BottomKSketch(
            k=max(1, len(values)), keys=column, ranks=np.zeros(len(values)),
            weights=np.zeros(len(values)), kth_rank=math.inf,
            threshold=math.inf,
        )
        assert typed(decode(encode(sketch)).keys.tolist()) == want
        section = encode_event_section("web", column, {})
        assert typed(decode(section, verify=True).keys) == want

    def test_int_keys_decode_as_python_ints(self):
        values = [*INT64_EDGES, 12345]
        blob = ref_pack_keys(values)
        got = _unpack_keys(memoryview(blob), len(values))
        assert got == values and {type(v) for v in got} == {int}
        array = decoded_chunk_keys(values)
        assert array.tolist() == values
        assert {type(v) for v in array} == {int}
        assert array.flags.writeable  # a fresh array, like the per-key one


class TestForeignBuffersFailAsBefore:
    GOOD = [3, -(2**63), 2**63 - 1, 0, 7]

    def cases(self):
        good = ref_pack_keys(self.GOOD)
        n = len(self.GOOD)
        for count in (n, n - 1, n + 1, 0, True, 5.0, "5", None, -1):
            yield good, count
        for cut in range(len(good)):
            yield good[:cut], n
        for position in range(n):
            for tag in (b"z", b"B", b"f", b"s", b"y", b"t", b"I", b"\x00"):
                bad = bytearray(good)
                bad[9 * position] = tag[0]
                yield bytes(bad), n
        yield good + b"\x00" * 9, n
        yield good[9:] + b"i" + b"\x01" * 8, n

    def test_direct_reader_matches_the_reference(self):
        for buf, count in self.cases():
            assert outcome(_unpack_keys, memoryview(buf), count) == outcome(
                ref_unpack_keys, memoryview(buf), count
            ), (buf, count)

    def test_network_readers_refuse_them_as_before(self):
        good = ref_pack_keys(self.GOOD)
        n = len(self.GOOD)
        bad_tag = bytearray(good)
        bad_tag[18] = ord("z")
        for buf, count, match in (
            (bytes(bad_tag), n, "unknown key tag"),
            (good, 5.0, "declares"),
            (good, "5", "declares"),
            (good, n + 1, "truncated"),
            (good[:-1], n, "truncated"),
            (good, n - 1, "trailing bytes"),
        ):
            # an ingest frame: keys read through ``vector``
            writer = _BlobWriter(
                "event_section", {"namespace": "web", "names": ["h1"]}
            )
            writer._append("keys", buf, {"enc": "obj", "count": count})
            # as many weights as the keys claim: the header agrees with
            # itself, so the key reader meets the bytes
            rows = count if type(count) is int else n
            writer.add_array("w0", np.ones(rows, dtype="<f8"))
            frame = encode_event_batch([("web", writer.render())])
            with pytest.raises(CodecError, match=match):
                decode_event_batch(frame)

    def test_a_lying_sketch_key_count_is_refused_in_a_bundle_frame(self):
        bundle = summarizer_over(list(range(40))).sketch_bundle()
        honest = encode_bundle_batch([("web", "bundle", "t", bundle)])
        for count in (31, 2**40, "32", 32.0, None):
            frame = reheader(
                honest, lambda h: h["arrays"]["keys"].update(count=count)
            )
            with pytest.raises(CodecError):
                decode_bundle_batch(frame)


# -- same bytes, same keys: whole artifacts -----------------------------------


def summarizer_over(keys, k: int = 16, seed: int = 0) -> ShardedSummarizer:
    rng = np.random.default_rng(seed)
    summarizer = ShardedSummarizer(
        k=k, assignments=["h1", "h2"], hasher=KeyHasher(seed)
    )
    n = len(keys)
    summarizer.ingest_multi(keys, {
        "h1": rng.pareto(1.3, n) + 0.05,
        "h2": np.where(rng.random(n) < 0.3, 0.0, rng.pareto(1.5, n)),
    })
    return summarizer


KEY_SETS = {
    "int": list(range(-30, 90)),
    "int64-edges": [*INT64_EDGES, *range(2, 40)],
    "int-array": np.arange(1000, 1100, dtype=np.int64),
    "uint64-high": np.arange(2**63, 2**63 + 60, dtype=np.uint64),
    "straddling": [2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, *range(40)],
    "string": [f"k{i}" for i in range(80)],
    "mixed": [*range(30), *(f"s{i}" for i in range(30)), (1, "a"), b"y",
              2.5, True],
}


def artifacts(keys):
    out = []
    for k, seed in ((8, 1), (200, 2)):  # full and under-full sketches
        summarizer = summarizer_over(keys, k=k, seed=seed)
        out += [
            summarizer.sketch_bundle(),
            summarizer.summary(),
            summarizer.checkpoint_state(),
        ]
    return out


@pytest.mark.parametrize("name", sorted(KEY_SETS))
def test_artifacts_encode_to_the_per_key_bytes(name, monkeypatch):
    objects = artifacts(KEY_SETS[name])
    fast = [encode(obj) for obj in objects]
    monkeypatch.setattr(codec, "_pack_keys", ref_pack_keys)
    assert [encode(obj) for obj in objects] == fast


@pytest.mark.parametrize("name", sorted(KEY_SETS))
def test_artifacts_decode_to_the_per_key_keys(name, monkeypatch):
    blobs = [encode(obj) for obj in artifacts(KEY_SETS[name])]

    def decoded_keys(blob):
        obj = decode(blob)
        if isinstance(obj, MultiAssignmentSummary):
            return [typed(obj.keys)]
        if isinstance(obj, codec.SketchBundle):
            return [typed(sk.keys.tolist()) for sk in obj.sketches.values()]
        return [
            typed(keys.tolist())
            for chunk_list in obj.chunks.values() for keys, _ in chunk_list
        ]

    fast = [decoded_keys(blob) for blob in blobs]
    monkeypatch.setattr(codec, "_tagged_ints", lambda buf, count: None)
    assert [decoded_keys(blob) for blob in blobs] == fast


# -- union assembly -----------------------------------------------------------


def reference_summary(sketches, family, method_name="shared_seed"):
    """The per-key assembly loop ``build_summary_from_sketches`` replaced."""
    method = get_rank_method(method_name)
    assignments = list(sketches)
    m = len(assignments)
    k = sketches[assignments[0]].k
    key_index: dict = {}
    for sk in sketches.values():
        for key in sk.keys.tolist():
            if key not in key_index:
                key_index[key] = len(key_index)
    union_keys = list(key_index)
    u = len(union_keys)
    member = np.zeros((u, m), dtype=bool)
    ranks = np.full((u, m), math.inf, dtype=float)
    weights = np.full((u, m), np.nan, dtype=float)
    seeds = None
    if method_name == "shared_seed":
        seeds = np.full(u, np.nan, dtype=float)
    rank_k = np.empty(m)
    rank_kplus1 = np.empty(m)
    for b, name in enumerate(assignments):
        sk = sketches[name]
        rank_k[b] = sk.kth_rank
        rank_kplus1[b] = sk.threshold
        for pos_in_sketch, key in enumerate(sk.keys.tolist()):
            row = key_index[key]
            member[row, b] = True
            ranks[row, b] = sk.ranks[pos_in_sketch]
            weights[row, b] = sk.weights[pos_in_sketch]
            if seeds is not None and sk.seeds is not None:
                seeds[row] = sk.seeds[pos_in_sketch]
    thresholds = np.where(member, rank_kplus1[None, :], rank_k[None, :])
    return MultiAssignmentSummary(
        mode=DISPERSED, kind="bottomk", assignments=assignments, k=k,
        positions=np.arange(u, dtype=np.int64), member=member, ranks=ranks,
        weights=weights, thresholds=thresholds, rank_k=rank_k,
        rank_kplus1=rank_kplus1, seeds=seeds, family=family,
        method_name=method_name, consistent=method.consistent,
        keys=union_keys,
    )


ARRAYS = ("positions", "member", "ranks", "weights", "thresholds", "rank_k",
          "rank_kplus1", "seeds")


def assert_same_summary(got, want) -> None:
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # bit for bit, NaN included
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
    assert typed(got.keys) == typed(want.keys)
    for name in ("mode", "kind", "assignments", "k", "method_name",
                 "consistent", "family"):
        assert getattr(got, name) == getattr(want, name), name


#: distinct key identities that collide as dict keys (1, 1.0, True) or not
POOL = [0, 1, 2, 3, 4, 5, 6, 7, 1.0, 2.5, True, "a", "b", "c", b"a",
        (1, "a"), (), 2**63, -(2**63)]


@st.composite
def sketch_sets(draw):
    names = draw(st.lists(st.sampled_from(["h1", "h2", "h3", "h4"]),
                          min_size=1, max_size=4, unique=True))
    k = draw(st.integers(1, 12))
    with_seeds = draw(st.booleans())
    sketches = {}
    for name in names:
        chosen = draw(st.lists(
            st.sampled_from(POOL), max_size=k,
            unique_by=lambda key: (type(key), repr(key)),
        ))
        n = len(chosen)
        keys = np.empty(n, dtype=object)
        for pos, key in enumerate(chosen):
            keys[pos] = key
        values = st.floats(0.0, 1e6, allow_nan=False)
        ranks = np.sort(np.array(draw(st.lists(values, min_size=n,
                                               max_size=n)), dtype=float))
        weights = np.array(draw(st.lists(values, min_size=n, max_size=n)),
                           dtype=float)
        seeds = (
            np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                   max_size=n)), dtype=float)
            if with_seeds and draw(st.booleans()) else None
        )
        kth = float(ranks[-1]) if n == k else math.inf
        sketches[name] = BottomKSketch(
            k=k, keys=keys, ranks=ranks, weights=weights, kth_rank=kth,
            threshold=draw(st.sampled_from([math.inf, kth + 1.0])),
            seeds=seeds,
        )
    method = draw(st.sampled_from(["shared_seed", "independent"]))
    return sketches, method


class TestUnionAssembly:
    @given(case=sketch_sets())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_key_loop(self, case):
        sketches, method = case
        family = ExponentialRanks()
        assert_same_summary(
            build_summary_from_sketches(sketches, family, method),
            reference_summary(sketches, family, method),
        )

    @pytest.mark.parametrize("name", sorted(KEY_SETS))
    @pytest.mark.parametrize("k", [8, 200])
    def test_summarizer_sketches_equal_the_per_key_loop(self, name, k):
        bundle = summarizer_over(KEY_SETS[name], k=k).sketch_bundle()
        assert_same_summary(
            build_summary_from_sketches(bundle.sketches, bundle.family),
            reference_summary(bundle.sketches, bundle.family),
        )
        decoded = decode(encode(bundle))
        assert_same_summary(
            decoded.summary(),
            reference_summary(decoded.sketches, decoded.family),
        )

    def test_later_sketches_write_a_shared_keys_seed(self):
        def sketch(keys, seeds):
            n = len(keys)
            return BottomKSketch(
                k=4, keys=np.array(keys, dtype=object),
                ranks=np.linspace(0.1, 0.4, n), weights=np.ones(n),
                kth_rank=math.inf, threshold=math.inf,
                seeds=None if seeds is None else np.array(seeds),
            )

        sketches = {
            "h1": sketch([1, 2], [0.1, 0.2]),
            "h2": sketch([2, 3], None),
            "h3": sketch([3, 1], [0.7, 0.9]),
        }
        got = build_summary_from_sketches(sketches, ExponentialRanks())
        assert got.keys == [1, 2, 3]
        assert got.seeds.tolist() == [0.9, 0.2, 0.7]
        assert_same_summary(
            got, reference_summary(sketches, ExponentialRanks())
        )


# -- one source is its own merge ----------------------------------------------


@pytest.mark.parametrize("name", sorted(KEY_SETS))
@pytest.mark.parametrize("k", [1, 8, 200])
def test_a_one_source_view_encodes_as_its_merge(name, k):
    """A worker encodes a one-source view as it is: the merge of one
    bundle rebuilds the same sketches, byte for byte."""
    bundle = summarizer_over(KEY_SETS[name], k=k).sketch_bundle()
    for one in (bundle, decode(encode(bundle))):
        assert encode(one) == encode(one.merge())
