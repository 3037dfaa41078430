"""The exact bytes of every codec kind are pinned.

``tests/data/codec_kind_bytes.json`` records the SHA-256 of ``encode`` /
``encode_*`` for one seeded object per kind and variant: both sketch
kinds with and without seeds over int64, beyond-int64 ``uint64``, ``str``
and tuple keys; a summary per mode, with and without ``rank_k`` and
``union_keys``; a bottom-k and a Poisson bundle; a checkpoint; raw and
tag-packed ingest-frame sections; a sync and an async ingest frame; and
a bundle frame with all three section states, with and without a lease.
Any codec change that moves one byte fails here, and so does a decoder
whose output no longer re-encodes to the bytes it read.

Regenerate only on a deliberate format change:

    PYTHONPATH=src python tests/data/make_codec_kind_bytes.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core.summary import (
    build_bottomk_summary,
    build_poisson_summary,
    build_summary_from_sketches,
)
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import ExponentialRanks, IppsRanks
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKSketch, BottomKStreamSampler
from repro.sampling.poisson import PoissonSketch
from repro.store.codec import (
    SketchBundle,
    decode,
    decode_bundle_batch,
    decode_event_batch,
    encode,
    encode_bundle_batch,
    encode_event_batch,
    encode_event_section,
)

FIXTURE = pathlib.Path(__file__).parent / "data" / "codec_kind_bytes.json"

N = 6


def _object_array(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


#: one sampled key column per key type
KEY_COLUMNS = {
    "int64": lambda: np.array([7, -3, 2**40, 0, 11, 2**62], dtype=np.int64),
    "uint64": lambda: np.array(
        [2**63 + 5, 1, 2**64 - 1, 2**63, 42, 9], dtype=np.uint64
    ),
    "str": lambda: _object_array(["a", "bb", "", "ünï", "e", "flow-9"]),
    "tuple": lambda: _object_array(
        [("srv", 1), ("srv", 2), ("x", ("y", 3)), (), ("z",), (b"r", 2.5)]
    ),
}


def _sketch(kind: str, keys: str, seeded: bool):
    rng = np.random.default_rng(len(keys) + 10 * seeded)
    ranks = np.sort(rng.random(N))
    weights = rng.pareto(1.3, N) + 0.1
    seeds = rng.random(N) if seeded else None
    column = KEY_COLUMNS[keys]()
    if kind == "bottomk":
        return BottomKSketch(
            k=N, keys=column, ranks=ranks, weights=weights,
            kth_rank=float(ranks[-1]), threshold=np.inf, seeds=seeds,
        )
    return PoissonSketch(
        tau=0.625, keys=column, ranks=ranks, weights=weights, seeds=seeds
    )


def _summary(kind: str, mode: str, method: str = "shared_seed"):
    rng = np.random.default_rng(3)
    weights = rng.pareto(1.3, (30, 3)) * 10.0 + 0.1
    weights[rng.random((30, 3)) < 0.2] = 0.0
    family = ExponentialRanks() if method != "shared_seed" else IppsRanks()
    draw = get_rank_method(method).draw(family, weights, rng)
    names = ["w0", "w1", "w2"]
    if kind == "poisson":
        return build_poisson_summary(
            weights, draw, np.full(3, 0.05), names, family, mode=mode,
            expected_size=5,
        )
    return build_bottomk_summary(weights, draw, 5, names, family, mode=mode)


def _stream_sketches(family) -> dict:
    streams = {
        "h1": [("a", 3.0), (("t", 2), 1.0), ("c", 4.0), ("d", 0.5)],
        "h2": [("a", 1.0), ("d", 2.0), ("e", 8.0)],
    }
    sketches = {}
    for name, items in streams.items():
        sampler = BottomKStreamSampler(3, family, KeyHasher(7))
        sampler.process_stream(items)
        sketches[name] = sampler.sketch()
    return sketches


def _bottomk_bundle() -> SketchBundle:
    return SketchBundle(
        "bottomk", _stream_sketches(IppsRanks()), IppsRanks(), hasher_salt=7
    )


def _poisson_bundle() -> SketchBundle:
    sketches = {
        name: _sketch("poisson", keys, seeded)
        for name, keys, seeded in (("p1", "int64", True), ("p2", "str", False))
    }
    return SketchBundle("poisson", sketches, ExponentialRanks())


def _checkpoint(keys: list):
    summarizer = ShardedSummarizer(4, ["h1", "h2"], hasher=KeyHasher(4))
    summarizer.ingest_multi(
        keys[:3], {"h1": [1.0, 2.0, 0.5], "h2": [0.0, 3.0, 1.0]}
    )
    summarizer.summary()  # fold: a table chunk, then a raw chunk
    summarizer.ingest("h1", keys[3:], [4.0, 0.25])
    return summarizer.checkpoint_state()


def _sections() -> dict[str, bytes]:
    weights = {"h1": np.array([0.5, 1.5, 2.5]), "h2": np.zeros(3)}
    return {
        "raw": encode_event_section(
            "web--s000", np.array([3, -1, 2**62]), weights
        ),
        "packed": encode_event_section(
            "web--s001", _object_array(["x", 7, ("t", 1)]), weights
        ),
    }


def _bundle_rows() -> list:
    return [
        ("web--s000", "unchanged", "t1", None),
        ("web--s001", "bundle", "t2", encode(_bottomk_bundle())),
        ("web--s002", "empty", "t3", None),
    ]


def _objects() -> dict:
    """Encodable objects by case name (the ``encode`` kinds)."""
    cases = {}
    for kind in ("bottomk", "poisson"):
        for keys in KEY_COLUMNS:
            for seeded in (True, False):
                name = f"{kind}_sketch-{keys}-{'seeds' if seeded else 'noseeds'}"
                cases[name] = _sketch(kind, keys, seeded)
    for kind in ("bottomk", "poisson"):
        for mode in ("colocated", "dispersed"):
            cases[f"summary-{kind}-{mode}"] = _summary(kind, mode)
    cases["summary-bottomk-dispersed-noseeds"] = _summary(
        "bottomk", "dispersed", "independent_differences"
    )
    cases["summary-union_keys"] = build_summary_from_sketches(
        _stream_sketches(IppsRanks()), IppsRanks()
    )
    cases["sketch_bundle-bottomk"] = _bottomk_bundle()
    cases["sketch_bundle-poisson"] = _poisson_bundle()
    cases["checkpoint-str"] = _checkpoint(["a", "b", "c", "d", "a"])
    cases["checkpoint-int64"] = _checkpoint([5, -2, 2**40, 9, 5])
    return cases


def kind_blobs() -> dict[str, bytes]:
    """Encoded bytes by case name, for every kind and variant."""
    blobs = {name: encode(obj) for name, obj in _objects().items()}
    sections = _sections()
    for name, blob in sections.items():
        blobs[f"event_section-{name}"] = blob
    pairs = [("web--s000", sections["raw"]), ("web--s001", sections["packed"])]
    blobs["event_batch-sync"] = encode_event_batch(pairs, sync=True)
    blobs["event_batch-async"] = encode_event_batch(pairs, sync=False)
    blobs["bundle_batch-nolease"] = encode_bundle_batch(_bundle_rows())
    blobs["bundle_batch-lease"] = encode_bundle_batch(_bundle_rows(), 12.25)
    return blobs


def kind_digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(blob).hexdigest()
        for name, blob in kind_blobs().items()
    }


def _section_again(section) -> bytes:
    keys = section.keys
    if isinstance(keys, list):
        keys = _object_array(keys)
    return encode_event_section(section.namespace, keys, section.weights)


def reencode(name: str, blob: bytes) -> bytes:
    """``blob`` decoded and encoded again, through the kind's own API."""
    kind = name.split("-")[0]
    if kind == "event_section":
        return _section_again(decode(blob, verify=True))
    if kind == "event_batch":
        batch = decode_event_batch(blob)
        return encode_event_batch(
            [(s.namespace, _section_again(s)) for s in batch.sections],
            sync=batch.sync,
        )
    if kind == "bundle_batch":
        batch = decode_bundle_batch(blob)
        return encode_bundle_batch(
            [
                (s.namespace, s.state, s.version,
                 None if s.bundle is None else encode(s.bundle))
                for s in batch
            ],
            batch.lease_s or None,
        )
    return encode(decode(blob, verify=True))


BLOBS = kind_blobs()


def test_every_case_is_pinned():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(BLOBS)


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_encoding_is_the_pinned_bytes(name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert hashlib.sha256(BLOBS[name]).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_decode_then_encode_is_the_pinned_bytes(name):
    expected = json.loads(FIXTURE.read_text())[name]
    again = reencode(name, BLOBS[name])
    assert hashlib.sha256(again).hexdigest() == expected
