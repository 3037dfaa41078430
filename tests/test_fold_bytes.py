"""Same bytes, whatever shape the table takes between folds.

A numeric assignment table is a sorted base plus a sorted delta of the
keys touched since the two were last merged.  How the table is split
must never reach an artifact: every bundle and checkpoint of a
deterministic history — a 200k-row load over 130k distinct int keys, 30
small folds that cross several base merges, a resume, and a ``str``-key
window — hashes to the SHA-256 recorded below, which the single-table
engine that preceded the split produced for the same history.  Nor may
the sharing of a table's key side between assignments: a 4-assignment
window that folds as one group hashes to what the per-assignment fold
produced.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.engine import ShardedSummarizer
from repro.ranks.hashing import KeyHasher
from repro.store.codec import decode, encode

NAMES = ["h1", "h2"]


def _feed(engine, keys, rng):
    engine.ingest_multi(keys, {
        "h1": rng.pareto(1.3, len(keys)), "h2": rng.pareto(1.6, len(keys)),
    })


def _artifacts(engine, label, checkpoint=False):
    yield f"{label} bundle", engine, encode(engine.sketch_bundle())
    if checkpoint:
        yield f"{label} checkpoint", engine, encode(engine.checkpoint_state())


def history():
    """``(label, engine, blob)`` for each artifact of the history, in
    order; ``engine`` is the summarizer the blob was taken from."""
    rng = np.random.default_rng(2028)
    engine = ShardedSummarizer(256, NAMES, hasher=KeyHasher(11))
    ids = rng.permutation(np.arange(130_000, dtype=np.int64) * 3 + 1)
    # 200k rows: the first finalization folds in two _FOLD_ROWS steps
    _feed(engine, np.concatenate([ids, rng.choice(ids, 70_000)]), rng)
    yield from _artifacts(engine, "load", checkpoint=True)
    for fold in range(30):
        # known keys (some of them touched by an earlier fold) and new ones
        keys = np.concatenate([
            rng.choice(ids, 1_500), rng.integers(0, 1 << 40, 900),
        ])
        _feed(engine, keys, rng)
        if fold % 4 == 1:  # one assignment alone: the tables differ
            engine.ingest("h2", rng.choice(ids, 300), rng.pareto(1.1, 300))
        yield from _artifacts(engine, f"fold {fold}", fold % 10 == 9)
    engine = ShardedSummarizer.from_checkpoint(
        decode(encode(engine.checkpoint_state()))
    )
    for fold in range(3):
        _feed(engine, rng.integers(0, 400_000, 2_000), rng)
        yield from _artifacts(engine, f"resume {fold}", fold == 2)
    words = ShardedSummarizer(64, NAMES, hasher=KeyHasher(11))
    for fold, size in enumerate((3_000, 500)):
        _feed(words, [f"user-{i}" for i in rng.integers(0, 2_000, size)], rng)
        yield from _artifacts(words, f"str {fold}", fold == 1)


SHA256 = {
    "load bundle": "255e5e347226de7c1291d64d852d9f9ff54412445c753d3a66a684192d72b9b2",
    "load checkpoint": "b7b188c570d3ddf1e478e5783f22032f46e1eb656aa1ec10bc593441cf1c2cf3",
    "fold 0 bundle": "0562ee5dea73ed0bad75fad4330331466f62ec54f51ebf0a3d043fb48b3cffc2",
    "fold 1 bundle": "3145d74c94ddc1199296a3fb11a8a4ba2dc94d866c5e1730aa4cf6ba7a922188",
    "fold 2 bundle": "aa651bf1a21f515fa8af1fd19615e962f032aca2c6e04a21fb2e64a30e96511b",
    "fold 3 bundle": "c07f37a2aa9742eeb99b19494813f192c6b6015b01c5e9de54c738491bbca7ec",
    "fold 4 bundle": "50ce78ab23ea0f7a609e1ca424699b6369360a807b246be64068165f67505797",
    "fold 5 bundle": "694f1f63ccf3a6f025906d1e469bdc94221891e95479b1ae1042a8173b6f91ac",
    "fold 6 bundle": "6b1f12d3485b2f8e46463d4ebbe89ba529f048389c17b6bb429d3390658a4b81",
    "fold 7 bundle": "69228c9ac67c3d1d719f1ab2a3611aa7f528ba2a20f9a8275334a21ca5fe2bd0",
    "fold 8 bundle": "f3cf289920023c83d6db4f59d49cc7042e5b3cab19eb3b0e7b8a51711a176250",
    "fold 9 bundle": "242b14f7c3ecc1e42a7f2f557ce129a9d9c0e342fbbc521f549ee99338da3910",
    "fold 9 checkpoint": "17b7227c289f7602f6df184daddbaaee390d29b63ad2de3781310aac43617482",
    "fold 10 bundle": "6ec1b758ebea6eda979235f6974616841d14994961ad3c76e256b1c71175512b",
    "fold 11 bundle": "7b6c861ff420b15348b03de798055841ec72e4bc46a0be1723ad5e54477513c8",
    "fold 12 bundle": "92c2526a4354fd65914257154d84507db7699cec285d7ab76f3390226dfa292a",
    "fold 13 bundle": "e6af9f9da6751a2197dc95a67664838534359e00b468681447a3dbab0e7dfa9c",
    "fold 14 bundle": "f2ca55d4cea434ff0f138218fe753eff0b03f93eed8504ef72266d64c20afd24",
    "fold 15 bundle": "d96d7cf554fd1cfb82510e21e0105b71a1ebff7e06f8944d52831b22a1e1e185",
    "fold 16 bundle": "ce2b1e0901d2120c0b4039802be163b77148a61b2db0287b84ccca94f4a5072e",
    "fold 17 bundle": "c3cad2f36a80ae164e7ef5b9cea3c28011b718ec5933fec12e833663497be7fe",
    "fold 18 bundle": "d8f2499c3cc1dc9b16438742a3e7fba7cbb05cc822949ef8a5da49654f6fc598",
    "fold 19 bundle": "f1fd98b9084de122c84afa91846140a93fca187086b87635e0f99cc61d4f16ac",
    "fold 19 checkpoint": "8e4f56d853b805e37be2d7ca3635bcba32983ef0ec419e21f22ee35151f394ab",
    "fold 20 bundle": "ce39c2848839ef04b28458af794ccb837af9fe85931659548eb08222fe572076",
    "fold 21 bundle": "a62e7545a6a20c1ad8cd39669d04c72fbe55e73b3924d08e4fcf7685f6e16c1c",
    "fold 22 bundle": "d530168481a21d0d4a6a45f3b34376d26cc31c04afd65f66733f5fb95f8d57f8",
    "fold 23 bundle": "67ab6be7a7096a632be8d0991261e2082916683ef1f9bea00f128cbbfb89c7a7",
    "fold 24 bundle": "4fb2d89d9be377d5c2a0b3b973a62d52c563f245a34d1ca2f460f8718053f4ba",
    "fold 25 bundle": "0c21041deb2cf68c7fbccea269f5b3465f7ff6fd75a56bd6998cc158db32093f",
    "fold 26 bundle": "6cd1d4b6225f2a0d5c685537d767a71063613286b604655e177020cc69d1f936",
    "fold 27 bundle": "a7d8f452ca0e758f8d8799fcfb8dde4a2c348c5b8b5af721ae15fe57ffdf5057",
    "fold 28 bundle": "4fdc0ce8cc5cbf9af0e136c00bd3314f8ecedad919959b7ff6075091813da87c",
    "fold 29 bundle": "5fbb99acb7c68f8f6b4b7eda69b6234c2d1a79684c35a96810adfa49a3b3c876",
    "fold 29 checkpoint": "04b3d0776c5e50a60c82f4344b269e625f21fd5e14654cf495d6aa75eb294a57",
    "resume 0 bundle": "5f350480e332a7ba9d44d9acda67c80a4d4e42567b8fc1bcf3ebef3e3954efa3",
    "resume 1 bundle": "7cb19909d50b8ecaeb7d2b32ad6002a05b8068b168578e45cd06a3e584c13fb7",
    "resume 2 bundle": "98d6118d9ed447cde89a97ff8f3d2a1d4c030688f3f5192499d4154db2702689",
    "resume 2 checkpoint": "eb85694a4022809a8def118fe263ac62887f20504ffb95973df67d51561d38da",
    "str 0 bundle": "6393ce29bada88d835a5ae38858cf0ecd9426e759ce142eea0143048d885a100",
    "str 1 bundle": "3294a2b8e47f8633750ead49fd9f1babca977c94297390e4bf97a4d166d844b6",
    "str 1 checkpoint": "27876a9d3208f8129736be45dc7b065c01aedb02196b8d9a7e92a679a4df51aa",
}


QUAD = ["q1", "q2", "q3", "q4"]


def quad_history():
    """``(label, engine, blob)`` of a 4-assignment ``ingest_multi``
    window: a 60k-row load over 40k int keys, 12 small folds that cross
    base merges, a mid-window flush (a checkpoint of the live summarizer,
    which goes on) and a resume.  Its assignments fold as one group."""
    rng = np.random.default_rng(2029)
    engine = ShardedSummarizer(128, QUAD, hasher=KeyHasher(12))

    def feed(keys):
        engine.ingest_multi(keys, {
            name: rng.pareto(1.1 + 0.2 * at, len(keys))
            for at, name in enumerate(QUAD)
        })

    ids = rng.permutation(np.arange(40_000, dtype=np.int64) * 5 + 2)
    feed(np.concatenate([ids, rng.choice(ids, 20_000)]))
    yield from _artifacts(engine, "quad load", checkpoint=True)
    for fold in range(12):
        feed(np.concatenate([
            rng.choice(ids, 1_000), rng.integers(0, 1 << 40, 600),
        ]))
        yield from _artifacts(engine, f"quad fold {fold}", fold == 6)
    engine = ShardedSummarizer.from_checkpoint(
        decode(encode(engine.checkpoint_state()))
    )
    for fold in range(3):
        feed(rng.integers(0, 300_000, 1_500))
        yield from _artifacts(engine, f"quad resume {fold}", fold == 2)


SHA256_QUAD = {
    "quad load bundle": "2ea63cf9bb210c03084c567a173de1a9ce524246972b128b7c9613df49b02c85",
    "quad load checkpoint": "dc94e60205a005fc48a79fbe5bf580ba30533f037a8b36b1757511043e836a4b",
    "quad fold 0 bundle": "2e97c4b4555cde368ff9a5d08a9c98931314c19042c6d534544c6bc35ec7459e",
    "quad fold 1 bundle": "7254a5f07b635b59d7332b9e5c51114171b0438c5d8a0c04445350ed7b6ffc5d",
    "quad fold 2 bundle": "8245d49f04a2c4d5ac7558b9cedc3bbcc6c2abed6e1c58307a2d0d605b14595f",
    "quad fold 3 bundle": "f832b4badc2bf593db3333cc9e8f7aa34f04ecbf251fd65dbdc8a14d81cdbb9e",
    "quad fold 4 bundle": "01b98d73025bf91fd7b981e741722bdd5accfedf4b8bb1a6e1275cd50113f541",
    "quad fold 5 bundle": "4b7aef3fbed6e38cfb2748c5dd0fff70b90b34b5d7117f54078919de0b76a792",
    "quad fold 6 bundle": "4c44f81e8953f2c73d712eeb26592f0dde1a494a584879a8048d20bb0872eee3",
    "quad fold 6 checkpoint": "ec5741be24134ff29ea5904787e76ea8a40c719b0260243af3ea96d2678e26e7",
    "quad fold 7 bundle": "69c1937d597b81cd9b4240548833c45c428f5b608e8ee946e78776c162359b0b",
    "quad fold 8 bundle": "7bd1dbff764c659e9b7522b087566167cb2eaafc611ddb5543e70d1945b77f59",
    "quad fold 9 bundle": "15edb3c71469dd836b694ce3fee5bbdf6d58a46d88dc409d4d223cbaea4dfe98",
    "quad fold 10 bundle": "519f2b2b275b6f26a8c885a5a0326cb6e8d857eb2141df7349d7c1b5345063c7",
    "quad fold 11 bundle": "46f9c3cc4c540c4792a8b1e49e8411bf6c6b14a44c501385aa084896b997d477",
    "quad resume 0 bundle": "95a0be2e988654b1291c3b1c388f84940c1a93a0ca4c6ea66ea98e84d8d56a2c",
    "quad resume 1 bundle": "ce5ab951535aee83e5db9cde9c44cda6c3ea8a727fc352853b59fb4a31094b0e",
    "quad resume 2 bundle": "e8abaf2739b95a32fc17873d2bdc27cfe9e604228770cb96d34ed8fa5a6c167d",
    "quad resume 2 checkpoint": "c94c95471e6c9376c40c459cd7f175d25934a7f63fbc30a93f3597e66a0284f8",
}


def test_every_artifact_has_the_recorded_bytes():
    digests = {
        label: hashlib.sha256(blob).hexdigest()
        for label, _, blob in history()
    }
    assert digests == SHA256


def test_the_history_crosses_base_merges_between_checkpoints():
    """The guard is only as good as its history: folds that merged the
    delta into the base, not only checkpoints, must be in it."""
    merges = 0
    base = None
    for label, engine, _ in history():
        state = engine._shards["h1"].state
        if label.startswith("fold") and label.endswith("bundle"):
            merges += state.keys is not base
            assert len(state.delta_keys) <= len(state.keys) / 8
        base = state.keys
    assert merges >= 2


def test_every_quad_artifact_has_the_recorded_bytes():
    digests = {
        label: hashlib.sha256(blob).hexdigest()
        for label, _, blob in quad_history()
    }
    assert digests == SHA256_QUAD


def test_the_quad_window_crosses_merges_as_one_group():
    merges = 0
    base = None
    for label, engine, _ in quad_history():
        states = [engine._shards[name].state for name in QUAD]
        for attr in ("keys", "delta_keys", "delta_at"):
            assert all(
                getattr(state, attr) is getattr(states[0], attr)
                for state in states
            ), label
        if label.startswith("quad fold") and label.endswith("bundle"):
            merges += states[0].keys is not base
        base = states[0].keys
    assert merges >= 2
