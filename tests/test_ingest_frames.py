"""The cluster ingest data plane: partition once, one frame per owner.

Three contracts:

* **exactness** — routing a batch through the coordinator (validate,
  one stable partition, one binary ``event_batch`` frame per owner
  worker, owners in parallel) leaves every worker slot bundle
  *bit-identical* to POSTing the same events per slot as JSON in slot
  order, for int, float, str and mixed keys, any worker count and
  replication, sync or async;
* **whole-frame accept/refuse** — a worker validates every section of a
  frame before it queues anything, so a refusal applied nothing;
* **hostile bytes** — every way a frame can lie is a typed
  :class:`CodecError` (HTTP 400/413), never an allocation sized by a
  count the bytes do not back, never a partial apply.
"""

from __future__ import annotations

import json
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.config import MAX_BATCH_EVENTS
from repro.service.cluster import (
    ClusterTopology,
    CoordinatorConfig,
    CoordinatorThread,
    partition_by_slot,
    slot_for_key,
    slot_namespace,
    slot_namespace_configs,
)
from repro.store.codec import (
    CodecError,
    decode,
    decode_event_batch,
    encode_event_batch,
    encode_event_section,
    event_batch_namespaces,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=8, salt=5)
N_SLOTS = 4
SALT = 4

# every 64-bit id, signed or unsigned: a list may straddle 2**63
_ints = st.integers(min_value=-(2**63), max_value=2**64 - 1)
_floats = st.floats(allow_nan=False, allow_infinity=False)
# no lone surrogates (not UTF-8 encodable); NULs are ordinary characters
_strs = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6
)
_key_lists = st.one_of(
    st.lists(_ints, min_size=1, max_size=40),
    st.lists(_floats, min_size=1, max_size=40),
    st.lists(_strs, min_size=1, max_size=40),
    st.lists(st.one_of(_ints, _floats, _strs), min_size=1, max_size=40),
)
_weight = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def event_batches(draw):
    keys = draw(_key_lists)
    column = st.lists(_weight, min_size=len(keys), max_size=len(keys))
    names = draw(st.sampled_from([("h1", "h2"), ("h1",), ("h2", "h1")]))
    return keys, {name: draw(column) for name in names}


class Clock:
    """Frozen: every event lands in one bucket, keys may repeat freely."""

    now = 1_767_226_000.0

    def __call__(self) -> float:
        return self.now


def spawn_worker(root, **overrides) -> tuple[ServiceThread, ServiceClient]:
    config = ServiceConfig(
        store_root=str(root),
        namespaces=slot_namespace_configs(NS, N_SLOTS),
        port=0,
        compact_to=None,
        tick_s=3600.0,
        **overrides,
    )
    thread = ServiceThread(config, clock=Clock())
    thread.start()
    client = ServiceClient(port=thread.service.port)
    client.wait_ready()
    return thread, client


def slot_bundles(client: ServiceClient) -> list:
    """A daemon's merged bundle bytes per slot (``None``: no data)."""
    return [
        client.bundle(slot_namespace("web", slot))[0]
        for slot in range(N_SLOTS)
    ]


def versions(client: ServiceClient) -> list:
    return [
        client.bundle_entries(slot_namespace("web", slot))["version"]
        for slot in range(N_SLOTS)
    ]


# -- the partition ------------------------------------------------------------


class TestPartitionBySlot:
    @settings(deadline=None, max_examples=150)
    @given(
        keys=_key_lists,
        n_slots=st.sampled_from([1, 2, 7, 8, 256, 300, 1000]),
        salt=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_equals_per_key_reference_in_stream_order(
        self, keys, n_slots, salt
    ):
        topology = ClusterTopology(n_slots=n_slots, salt=salt)
        order, bounds = partition_by_slot(
            topology.slots_for_keys(keys), n_slots
        )
        reference: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            reference.setdefault(
                slot_for_key(key, n_slots, salt), []
            ).append(index)
        assert len(bounds) == n_slots + 1
        assert bounds[0] == 0 and bounds[-1] == len(keys)
        for slot in range(n_slots):
            assert (
                order[bounds[slot]:bounds[slot + 1]].tolist()
                == reference.get(slot, [])
            )


# -- exactness: frames vs per-slot JSON ---------------------------------------


class Rig:
    """A coordinator + workers fed frames, beside one reference daemon
    fed the same events as per-slot JSON POSTs in slot order."""

    def __init__(self, root, n_workers: int, replication: int) -> None:
        self.threads: dict[str, ServiceThread] = {}
        self.clients: dict[str, ServiceClient] = {}
        self.coordinator = CoordinatorThread(
            CoordinatorConfig(
                root=str(root / "coordinator"),
                namespaces=(NS,),
                port=0,
                n_slots=N_SLOTS,
                replication=replication,
                salt=SALT,
                heartbeat_s=3600.0,
                repair_interval_s=0.0,
            ),
            clock=Clock(),
        )
        self.coordinator.start()
        self.client = ServiceClient(port=self.coordinator.service.port)
        for index in range(1, n_workers + 1):
            worker_id = f"w{index}"
            thread, client = spawn_worker(root / worker_id)
            self.threads[worker_id], self.clients[worker_id] = thread, client
            self.client.cluster_join(
                worker_id, "127.0.0.1", thread.service.port
            )
        self.reference_thread, self.reference = spawn_worker(root / "ref")
        self.topology = self.coordinator.service.topology

    def reset(self) -> None:
        for client in (*self.clients.values(), self.reference):
            for slot in range(N_SLOTS):
                client.reset_bundles(slot_namespace("web", slot))

    def drain(self, applied_before: dict) -> None:
        """Wait until every worker applied the frames it acked async."""
        deadline = time.monotonic() + 10.0
        for worker_id, thread in self.threads.items():
            stats = thread.service.stats
            want = applied_before[worker_id]
            while stats["ingest_batches"] < want:
                assert time.monotonic() < deadline, "async frames not applied"
                time.sleep(0.002)

    def feed_reference(self, keys, weights) -> None:
        by_slot: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            by_slot.setdefault(
                slot_for_key(key, N_SLOTS, SALT), []
            ).append(index)
        for slot in sorted(by_slot):
            picks = by_slot[slot]
            # a raw JSON body: ServiceClient.ingest would send a frame
            self.reference._request("POST", "/ingest", {
                "namespace": slot_namespace("web", slot),
                "keys": [keys[i] for i in picks],
                "weights": {
                    name: [values[i] for i in picks]
                    for name, values in weights.items()
                },
                "sync": True,
            })

    def close(self) -> None:
        self.client.close()
        self.coordinator.stop()
        for thread in (*self.threads.values(), self.reference_thread):
            thread.stop()
        for client in (*self.clients.values(), self.reference):
            client.close()


@pytest.mark.parametrize("n_workers, replication", [
    (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
])
def test_frame_routed_ingest_is_bit_identical_to_per_slot_json(
    tmp_path, n_workers, replication
):
    rig = Rig(tmp_path, n_workers, replication)
    worker_ids = sorted(rig.threads)

    @settings(deadline=None, max_examples=25)
    @given(
        batches=st.lists(event_batches(), min_size=1, max_size=3),
        sync=st.booleans(),
    )
    def run(batches, sync):
        rig.reset()
        expected_frames = {
            worker_id: rig.threads[worker_id].service.stats["ingest_batches"]
            for worker_id in worker_ids
        }
        for keys, weights in batches:
            result = rig.client.ingest("web", keys, weights, sync=sync)
            slots = {slot_for_key(key, N_SLOTS, SALT) for key in keys}
            owners = {
                slot: rig.topology.slot_owners(slot, worker_ids)
                for slot in slots
            }
            assert result["slots"] == len(slots)
            assert result["deliveries"] == sum(map(len, owners.values()))
            assert "missed_replicas" not in result
            # one frame per owner worker, however many slots it owns
            for worker_id in {w for ws in owners.values() for w in ws}:
                expected_frames[worker_id] += 1
            rig.feed_reference(keys, weights)
        rig.drain(expected_frames)
        for worker_id in worker_ids:
            assert (
                rig.threads[worker_id].service.stats["ingest_batches"]
                == expected_frames[worker_id]
            )
        reference = slot_bundles(rig.reference)
        for worker_id in worker_ids:
            served = slot_bundles(rig.clients[worker_id])
            for slot in range(N_SLOTS):
                owned = worker_id in rig.topology.slot_owners(
                    slot, worker_ids
                )
                assert served[slot] == (
                    reference[slot] if owned else None
                ), f"slot {slot} on {worker_id} diverged for {batches!r}"

    try:
        run()
    finally:
        rig.close()


# -- one contract: a JSON body and a frame ------------------------------------

#: what each defect must answer, through either form, to either daemon
_DEFECTS = {
    "none": 200,
    "unknown-namespace": 404,
    "too-many-events": 413,
    "negative-weight": 400,
    "nan-weight": 400,
    "nan-key": 400,
}


def with_defect(defect: str, namespace: str, keys, weights) -> tuple:
    keys = list(keys)
    weights = {name: list(values) for name, values in weights.items()}
    first = next(iter(weights))
    if defect == "unknown-namespace":
        namespace = "nope"
    elif defect == "too-many-events":
        extra = MAX_BATCH_EVENTS + 1 - len(keys)
        keys += list(range(extra))
        for values in weights.values():
            values += [1.0] * extra
    elif defect == "negative-weight":
        weights[first][0] = -1.0
    elif defect == "nan-weight":
        weights[first][-1] = float("nan")
    elif defect == "nan-key":
        keys[-1] = float("nan")
    return namespace, keys, weights


def json_body(namespace: str, keys, weights) -> bytes:
    return json.dumps({
        "namespace": namespace, "keys": keys, "weights": weights,
        "sync": True,
    }).encode("utf-8")


def frame_body(namespace: str, keys, weights) -> bytes:
    """The same events as a one-section frame: all-float keys as a raw
    buffer, any other list as the Python values it holds."""
    if all(type(key) is float for key in keys):
        key_array = np.array(keys, dtype=float)
    else:
        key_array = np.empty(len(keys), dtype=object)
        key_array[:] = keys
    blob = encode_event_section(namespace, key_array, {
        name: np.array(values, dtype=float)
        for name, values in weights.items()
    })
    return encode_event_batch([(namespace, blob)], sync=True)


def test_json_and_frames_are_one_contract(tmp_path):
    """Posted as a raw JSON body or as a one-section frame, to a worker
    or to a coordinator, the same events leave bit-identical slot
    bundles, and the same defect gets the same refusal."""
    rig = Rig(tmp_path, n_workers=2, replication=2)
    targets = {
        "worker": (rig.reference, slot_namespace("web", 1), [rig.reference]),
        "coordinator": (rig.client, "web", list(rig.clients.values())),
    }

    @settings(deadline=None, max_examples=30)
    @given(
        batch=event_batches(),
        defect=st.sampled_from(sorted(_DEFECTS)),
        target=st.sampled_from(sorted(targets)),
    )
    def run(batch, defect, target):
        client, namespace, holders = targets[target]
        namespace, keys, weights = with_defect(defect, namespace, *batch)
        seen = []
        for encode in (json_body, frame_body):
            rig.reset()
            status, _headers, data = client._raw_request(
                "POST", "/ingest", encode(namespace, keys, weights), {},
                False,
            )
            seen.append(
                (status, [slot_bundles(holder) for holder in holders])
            )
            assert status == _DEFECTS[defect], data
        (_, from_json), (_, from_frame) = seen
        assert from_json == from_frame
        applied = any(
            bundle is not None for bundles in from_json for bundle in bundles
        )
        assert applied == (defect == "none")

    try:
        run()
    finally:
        rig.close()


# -- the wire format ----------------------------------------------------------


def section(slot: int, keys, weights=None, names=("h1", "h2")) -> tuple:
    keys = np.asarray(keys)
    if weights is None:
        weights = {
            name: np.arange(1, len(keys) + 1, dtype=float) for name in names
        }
    name = slot_namespace("web", slot)
    return name, encode_event_section(name, keys, weights)


def reheader(blob: bytes, mutate) -> bytes:
    """Re-serialize a blob with its JSON header edited (payload kept)."""
    prefix = struct.Struct("<4sHI")
    magic, version, length = prefix.unpack_from(blob)
    header = json.loads(blob[prefix.size:prefix.size + length])
    head_end = prefix.size + length
    payload = blob[head_end + (-head_end) % 16:]
    mutate(header)
    encoded = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    head = prefix.pack(magic, version, len(encoded)) + encoded
    return head + b"\0" * ((-len(head)) % 16) + payload


def with_section(mutate, slot: int = 1, keys=(1, 2, 3)) -> bytes:
    """A one-section frame whose *section* header was edited."""
    name, blob = section(slot, list(keys))
    return encode_event_batch([(name, reheader(blob, mutate))])


class TestEventBatchCodec:
    def test_round_trip_keeps_sections_order_and_bits(self):
        weights = {"h1": np.array([0.1, 2.5, 1e-300]), "h2": np.zeros(3)}
        parts = [
            section(0, [3, -1, 2**62], weights),
            section(2, np.array(["a", "bb", 7], dtype=object)),
            section(3, [0.5, 1.25]),
        ]
        frame = encode_event_batch(parts, sync=True)
        batch = decode_event_batch(frame)
        assert batch.sync is True and batch.events == 8
        assert [s.namespace for s in batch.sections] == [
            "web--s000", "web--s002", "web--s003",
        ]
        assert event_batch_namespaces(frame) == (
            "web--s000", "web--s002", "web--s003",
        )
        first, second, third = batch.sections
        assert first.keys.dtype == np.int64
        assert first.keys.tolist() == [3, -1, 2**62]
        assert first.weights["h1"].tobytes() == weights["h1"].tobytes()
        assert second.keys == ["a", "bb", 7]  # tag-packed: Python values
        assert third.keys.dtype == np.float64
        assert not first.keys.flags.writeable  # views into the frame
        assert decode(frame).events == 8  # the generic entry point too

    def test_encoding_is_deterministic_and_sections_are_reusable(self):
        part = section(1, [5, 6, 7])
        again = section(1, [5, 6, 7])
        assert part == again
        # the same encoded section rides in two owners' frames
        solo = encode_event_batch([part])
        pair = encode_event_batch([section(0, [1]), part])
        assert decode_event_batch(solo).sections[0].keys.tolist() == [5, 6, 7]
        assert decode_event_batch(pair).sections[1].keys.tolist() == [5, 6, 7]

    def test_every_truncation_is_a_codec_error(self):
        frame = encode_event_batch([section(0, [1, 2]), section(1, ["x"])])
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_event_batch(frame[:cut])

    def test_any_flipped_payload_byte_fails_the_checksum(self):
        frame = bytearray(encode_event_batch([section(0, [1, 2, 3])]))
        frame[-9] ^= 0x40  # inside the last weights buffer
        with pytest.raises(CodecError, match="checksum"):
            decode_event_batch(bytes(frame))

    @pytest.mark.parametrize("mutate", [
        lambda h: h["arrays"]["keys"].update(shape=[4]),
        lambda h: h["arrays"]["keys"].update(shape=[2]),
        lambda h: h["arrays"]["keys"].update(shape=[3, 1]),
        lambda h: h["arrays"]["keys"].update(shape="3"),
        lambda h: h["arrays"]["keys"].update(shape=[2**40]),
        lambda h: h["arrays"]["keys"].update(nbytes=2**40),
        lambda h: h["arrays"]["keys"].update(nbytes=-8),
        lambda h: h["arrays"]["keys"].update(offset=-16),
        lambda h: h["arrays"]["keys"].update(offset="0"),
        lambda h: h["arrays"]["keys"].update(dtype="|O"),
        lambda h: h["arrays"]["keys"].update(dtype="<U2"),
        lambda h: h["arrays"]["keys"].update(dtype="no-such-dtype"),
        lambda h: h["arrays"]["keys"].update(dtype=None),
        lambda h: h["arrays"]["keys"].update(enc="blob"),
        lambda h: h["arrays"].pop("keys"),
        lambda h: h["arrays"].update(keys=[1, 2]),
        lambda h: h["arrays"]["w0"].update(shape=[2], nbytes=16),
        lambda h: h["arrays"]["w0"].update(dtype="<i8"),
        lambda h: h["arrays"]["w1"].update(dtype="<f4", shape=[6]),
        lambda h: h["arrays"]["w1"].update(dtype="|O"),
        lambda h: h["arrays"].pop("w1"),
        lambda h: h["meta"].update(names=["h1", "h1"]),
        lambda h: h["meta"].update(names="h1"),
        lambda h: h["meta"].update(names=[1, 2]),
        lambda h: h["meta"].pop("namespace"),
        lambda h: h["meta"].update(namespace="web--s002"),
        lambda h: h.update(kind="sketch_bundle"),
        lambda h: h.update(meta=[]),
        lambda h: h.update(arrays=None),
        lambda h: h.pop("kind"),
    ])
    def test_section_headers_that_lie_are_codec_errors(self, mutate):
        with pytest.raises(CodecError):
            decode_event_batch(with_section(mutate))

    def test_tag_packed_counts_are_not_believed(self):
        for count in (0, 1, 3, 2**40, -1, "2"):
            frame = with_section(
                lambda h, c=count: h["arrays"]["keys"].update(count=c),
                keys=("a", "b"),
            )
            with pytest.raises(CodecError):
                decode_event_batch(frame)

    def test_weights_smuggled_as_objects_are_refused(self):
        from repro.store.codec import _BlobWriter

        name = slot_namespace("web", 1)
        writer = _BlobWriter(
            "event_section", {"namespace": name, "names": ["h1"]}
        )
        writer.add_array("keys", np.array([1, 2]))
        writer.add_keys("w0", [1.0, "2.0"])  # tag-packed, not <f8
        with pytest.raises(CodecError, match="<f8"):
            decode_event_batch(encode_event_batch([(name, writer.render())]))

    @pytest.mark.parametrize("mutate", [
        lambda h: h["meta"].update(namespaces=[]),
        lambda h: h["meta"].update(namespaces=["web--s001", "web--s001"]),
        lambda h: h["meta"].update(namespaces=["web--s002"]),
        lambda h: h["meta"].update(namespaces=["web--s001", "web--s002"]),
        lambda h: h["meta"].update(namespaces="web--s001"),
        lambda h: h["meta"].update(namespaces=[None]),
        lambda h: h["meta"].update(sync=1),
        lambda h: h["meta"].pop("sync"),
        lambda h: h["arrays"].pop("part0"),
        lambda h: h["arrays"]["part0"].update(enc="raw"),
        lambda h: h["arrays"]["part0"].update(nbytes=2**40),
        lambda h: h.update(kind="event_section"),
        lambda h: h.update(crc32="x"),
        lambda h: h.pop("crc32"),
    ], ids=[
        "zero-sections", "duplicate-namespace", "renamed-section",
        "section-missing", "namespaces-not-a-list", "null-namespace",
        "sync-not-bool", "no-sync", "no-part", "part-not-a-blob",
        "part-past-the-end", "wrong-kind", "crc-not-an-int", "no-crc",
    ])
    def test_frame_headers_that_lie_are_codec_errors(self, mutate):
        frame = encode_event_batch([section(1, [1, 2, 3])])
        with pytest.raises(CodecError):
            decode_event_batch(reheader(frame, mutate))

    def test_not_a_frame(self):
        for junk in (b"", b"CWSS", b"{}", b"CWSS" + b"\xff" * 64):
            with pytest.raises(CodecError):
                decode_event_batch(junk)
        from repro.store.codec import encode
        from repro.sampling.bottomk import BottomKSketch

        sketch = BottomKSketch(
            k=1, keys=np.array([1]), ranks=np.array([0.5]),
            weights=np.array([1.0]), kth_rank=0.5, threshold=np.inf,
        )
        with pytest.raises(CodecError, match="event_batch"):
            decode_event_batch(encode(sketch))
        assert event_batch_namespaces(encode(sketch)) == ()

    def test_declared_sizes_allocate_nothing(self):
        """A count the bytes do not back is refused before any
        allocation proportional to it."""
        liars = [
            with_section(lambda h: h["arrays"]["keys"].update(shape=[2**40])),
            with_section(lambda h: h["arrays"]["w0"].update(nbytes=2**40)),
            with_section(
                lambda h: h["arrays"]["keys"].update(count=2**40),
                keys=("a", "b"),
            ),
        ]
        tracemalloc.start()
        try:
            for frame in liars:
                with pytest.raises(CodecError):
                    decode_event_batch(frame)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# -- the worker's whole-frame contract ----------------------------------------


@pytest.fixture
def worker(tmp_path):
    thread, client = spawn_worker(tmp_path / "w", max_batch_events=50)
    # something to protect: every slot holds data before the hostile frame
    for slot in range(N_SLOTS):
        client.ingest(
            slot_namespace("web", slot), [f"seed-{slot}"],
            {"h1": [1.0 + slot], "h2": [2.0]}, sync=True,
        )
    yield thread, client
    client.close()
    thread.stop()


def non_scalar_keys() -> np.ndarray:
    """Keys the codec can carry but the ingest validator refuses."""
    keys = np.empty(2, dtype=object)
    keys[0], keys[1] = ("tuple", "key"), b"bytes"
    return keys


def good_sections(count: int = 4) -> list:
    return [section(slot, [10 * slot + 1, 10 * slot + 2]) for slot in range(count)]


class TestWorkerFrameContract:
    def test_frame_applies_every_section_under_one_span(self, worker):
        thread, client = worker
        before = versions(client)
        result = client.ingest_frame(
            encode_event_batch(good_sections(), sync=True)
        )
        assert result == {
            "ok": True, "queued": 8, "sections": 4, "applied": True,
            "events": 8, "bucket": result["bucket"],
            "version": result["version"],
        }
        assert all(a != b for a, b in zip(before, versions(client)))
        applies = [
            span for span in client.trace_recent(limit=50)["spans"]
            if span["name"] == "ingest-apply"
            and span["tags"].get("sections") == 4
        ]
        assert len(applies) == 1 and applies[0]["tags"]["events"] == 8
        # the same bytes a per-section JSON feed would have left behind
        reference_thread, reference = spawn_worker(
            thread.service.config.store_root + "-ref"
        )
        try:
            for slot in range(N_SLOTS):
                name = slot_namespace("web", slot)
                reference.ingest(
                    name, [f"seed-{slot}"],
                    {"h1": [1.0 + slot], "h2": [2.0]}, sync=True,
                )
                reference.ingest(
                    name, [10 * slot + 1, 10 * slot + 2],
                    {"h1": [1.0, 2.0], "h2": [1.0, 2.0]}, sync=True,
                )
            assert slot_bundles(client) == slot_bundles(reference)
        finally:
            reference.close()
            reference_thread.stop()

    def test_async_frame_is_acked_then_applied(self, worker):
        thread, client = worker
        done = thread.service.stats["ingest_batches"]
        result = client.ingest_frame(encode_event_batch(good_sections()))
        assert result["applied"] is False and result["queued"] == 8
        deadline = time.monotonic() + 10.0
        while thread.service.stats["ingest_batches"] == done:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        assert thread.service.stats["ingested_events"] == N_SLOTS + 8

    @pytest.mark.parametrize("build, status", [
        # bytes that are not a well-formed frame
        (lambda: encode_event_batch(good_sections(), sync=True)[:-7], 400),
        (lambda: reheader(
            encode_event_batch(good_sections(), sync=True),
            lambda h: h.update(crc32=h["crc32"] ^ 1),
        ), 400),
        (lambda: reheader(
            encode_event_batch(good_sections(), sync=True),
            lambda h: h["meta"].update(namespaces=[]),
        ), 400),
        (lambda: encode_event_batch(
            [*good_sections(2), section(1, [5])], sync=True
        ), 400),
        # well-formed frames the validator must refuse — the bad
        # section is third of four, behind two good ones
        (lambda: encode_event_batch([
            *good_sections(2),
            (slot_namespace("web", 9),
             encode_event_section(
                 slot_namespace("web", 9), np.array([1]),
                 {"h1": np.array([1.0])},
             )),
            section(3, [7]),
        ], sync=True), 404),
        (lambda: encode_event_batch([
            *good_sections(2), section(2, [1, 2], names=("h1", "h7")),
            section(3, [7]),
        ], sync=True), 400),
        (lambda: encode_event_batch([
            *good_sections(2),
            section(2, [1, 2], {"h1": np.array([1.0, np.nan])}),
            section(3, [7]),
        ], sync=True), 400),
        (lambda: encode_event_batch([
            *good_sections(2),
            section(2, [1, 2], {"h1": np.array([np.inf, 1.0])}),
            section(3, [7]),
        ], sync=True), 400),
        (lambda: encode_event_batch([
            *good_sections(2),
            section(2, [1, 2], {"h1": np.array([1.0, -0.5])}),
            section(3, [7]),
        ], sync=True), 400),
        (lambda: encode_event_batch([
            *good_sections(2), section(2, [1.5, float("nan")]),
            section(3, [7]),
        ], sync=True), 400),
        (lambda: encode_event_batch([
            *good_sections(2),
            section(2, non_scalar_keys()),
            section(3, [7]),
        ], sync=True), 400),
        # 4 sections x 13 events: each fits max_batch_events=50, the
        # frame does not
        (lambda: encode_event_batch(
            [section(slot, list(range(13))) for slot in range(N_SLOTS)],
            sync=True,
        ), 413),
    ], ids=[
        "truncated", "bad-crc", "zero-sections", "duplicate-namespace",
        "unknown-namespace-3-of-4", "unknown-assignment-3-of-4",
        "nan-weight", "inf-weight", "negative-weight", "nan-key",
        "non-scalar-keys", "over-max-batch-events",
    ])
    def test_refused_frame_applies_nothing(self, worker, build, status):
        thread, client = worker
        before_versions, before_bundles = versions(client), slot_bundles(client)
        answer = client.estimate(slot_namespace("web", 0), "single", ["h1"])
        with pytest.raises(ServiceError) as excinfo:
            client.ingest_frame(build())
        assert excinfo.value.status == status
        assert versions(client) == before_versions
        assert slot_bundles(client) == before_bundles
        assert client.estimate(
            slot_namespace("web", 0), "single", ["h1"]
        )["estimate"] == answer["estimate"]
        assert thread.service.stats["ingested_events"] == N_SLOTS
        # and the daemon still takes a good frame
        assert client.ingest_frame(
            encode_event_batch(good_sections(), sync=True)
        )["events"] == 8

    def test_full_queue_and_shutdown_refuse_the_whole_frame(self, tmp_path):
        thread, client = spawn_worker(
            tmp_path / "w", ingest_queue_batches=1
        )
        try:
            service = thread.service
            frame = encode_event_batch(good_sections())
            with service.manager.lock:  # parks the apply thread
                client.ingest_frame(frame)  # dequeued, blocked in apply
                deadline = time.monotonic() + 10.0
                while service._queue.qsize():
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                client.ingest_frame(frame)  # fills the one queue slot
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest_frame(frame)
                assert excinfo.value.status == 429
            # a stopping daemon hangs up after each reply: fresh
            # connections on both sides of the flag flip
            client.close()
            service._stopping = True
            with pytest.raises(ServiceError) as excinfo:
                client.ingest_frame(frame)
            assert excinfo.value.status == 503
            service._stopping = False
            client.close()
            # exactly the two accepted frames land, whole
            while service.stats["ingest_batches"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            assert client.ingest_frame(
                encode_event_batch([section(0, [99])], sync=True)
            )["applied"]
            assert service.stats["ingested_events"] == 8 + 8 + 1
            assert service.stats["ingest_rejected"] == 1
        finally:
            client.close()
            thread.stop()


# -- keys np.asarray would merge ----------------------------------------------


@pytest.mark.parametrize("wire", ["json", "frame"])
@pytest.mark.parametrize(
    "keys",
    [["a\0", "a"], [2**63, 2**63 + 1, 5]],
    ids=["trailing-nul", "straddles-2**63"],
)
def test_keys_numpy_would_merge_stay_distinct_through_ingest(
    tmp_path, keys, wire
):
    """``np.asarray`` drops a trailing NUL and rounds an int list that
    straddles 2**63 to float64; either way two keys would be served as
    one.  Each key must come back with its own weight, whichever way the
    batch arrived."""
    thread, client = spawn_worker(tmp_path / "w")
    namespace = slot_namespace("web", 0)
    weights = [float(2**i) for i in range(len(keys))]
    try:
        if wire == "json":
            result = client._request("POST", "/ingest", {
                "namespace": namespace, "keys": keys,
                "weights": {"h1": weights}, "sync": True,
            })
        else:
            # an object array: the frame carries the Python values
            blob = encode_event_section(
                namespace, np.array(keys, dtype=object),
                {"h1": np.array(weights)},
            )
            result = client.ingest_frame(
                encode_event_batch([(namespace, blob)], sync=True)
            )
        assert result["applied"] and result["events"] == len(keys)
        for key, weight in zip(keys, weights):
            answer = client.estimate(namespace, "single", ["h1"], keys=[key])
            assert answer["estimate"] == weight, key
    finally:
        client.close()
        thread.stop()
