"""Versioned binary codec for summaries, sketches, and checkpoints.

Everything a :class:`~repro.store.SummaryStore` holds or a daemon ships —
:class:`~repro.sampling.bottomk.BottomKSketch`,
:class:`~repro.sampling.poisson.PoissonSketch`,
:class:`~repro.core.summary.MultiAssignmentSummary`, per-assignment
:class:`SketchBundle` artifacts, :class:`SummarizerCheckpoint` snapshots,
and the ingest and bundle frames of the wire — round-trips through one
self-describing binary format:

* **bit-exact** — float arrays and scalars are stored as raw IEEE-754
  buffers (``+inf`` thresholds, ``NaN`` dispersed-weight placeholders, and
  last-ulp rank values all survive), so ``decode(encode(x))`` equals ``x``
  bit for bit and resumed pipelines stay coordinated;
* **zero-copy** — numeric arrays decode as :func:`numpy.frombuffer` views
  into the input buffer (read-only; pass ``writable=True`` to copy), so
  loading a stored summary costs one JSON-header parse, not a memcpy per
  matrix;
* **coordination-complete** — rank-family names, hasher salts, and
  rank-method names ride along, so a process that loads an artifact can
  keep hashing new keys consistently with the process that wrote it;
* **versioned** — every blob starts with magic + format version; unknown
  versions are refused with :class:`UnsupportedFormatError` instead of
  being misread (``tests/data/golden_store_v1.cws`` pins v1 against drift);
* **typed failures** — a header is believed only once it has been checked
  against its kind's row, whether the bytes were stored or arrived from
  the network: a wrong type, an out-of-range value, a missing or extra
  buffer, or a count, shape or offset its bytes cannot back raises
  :class:`CodecError` naming the kind and the field before any buffer is
  read, so a service can answer it 400.

Layout of one encoded blob (all integers little-endian)::

    magic b"CWSS" | uint16 version | uint32 header_len | header JSON
    | padding to 16 | buffer section (each buffer padded to 16)

The JSON header carries only strings, ints, bools, and nulls (floats live
in buffers, where JSON's textual round-trip cannot touch them) and is
serialized with sorted keys, so encoding is deterministic: equal objects
produce equal bytes.

Key arrays are stored raw when their dtype allows (ints, floats, bools,
fixed-width str/bytes) and otherwise element-wise with a tagged packing
that covers every key type the hash layer accepts (int of any magnitude,
float, str, bytes, bool, and arbitrarily nested tuples).  A sketch's key
column is always tag-packed when it holds integers, written in one NumPy
pass into a ``(tag, <i8)`` record array — exactly the bytes the per-key
packer writes for the same keys as Python ints — and a key column whose
keys are all ``b"i"``-tagged reads back in one pass as an int64 array.

:data:`_KINDS` is the format's specification: one row per kind, declaring
its header fields, its buffers in payload order with their dimensions,
and the two functions between an object and its header and buffers.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.summary import MultiAssignmentSummary
from repro.ranks.families import RANK_FAMILIES, RankFamily, get_rank_family
from repro.sampling.bottomk import BottomKSketch
from repro.sampling.poisson import PoissonSketch

__all__ = [
    "CodecError",
    "UnsupportedFormatError",
    "FORMAT_VERSION",
    "MAGIC",
    "BUNDLE_STATES",
    "BundleBatch",
    "BundleSection",
    "EventBatch",
    "EventSection",
    "SketchBundle",
    "SummarizerCheckpoint",
    "encode",
    "decode",
    "encode_event_section",
    "encode_event_batch",
    "decode_event_batch",
    "event_batch_namespaces",
    "encode_bundle_batch",
    "decode_bundle_batch",
    "atomic_write_bytes",
]

MAGIC = b"CWSS"
FORMAT_VERSION = 1

_ALIGN = 16
_JSON = json.JSONDecoder()
_HEADER_PREFIX = struct.Struct("<4sHI")  # magic, version, header length


class CodecError(ValueError):
    """Raised on malformed input or objects the codec cannot represent."""


class UnsupportedFormatError(CodecError):
    """Raised when a blob declares a format version this codec cannot read."""


# ---------------------------------------------------------------------------
# artifact dataclasses
# ---------------------------------------------------------------------------


@dataclass
class SketchBundle:
    """One storable artifact: per-assignment sketches plus coordination data.

    This is the unit :class:`~repro.store.SummaryStore` writes, rolls up,
    and serves: the bottom-k (or Poisson) sketches of the assignments one
    writer produced for one time bucket, together with everything a later
    process needs to stay coordinated with it — the rank family, the rank
    method, and the key-hasher salt.  Bundles over key-disjoint data merge
    exactly (:meth:`merge`), which is what makes minute→hour→day rollups
    lossless, and bottom-k bundles assemble directly into the dispersed
    :class:`~repro.core.summary.MultiAssignmentSummary` (:meth:`summary`).
    """

    kind: str  # "bottomk" or "poisson"
    sketches: dict[str, BottomKSketch | PoissonSketch]
    family: RankFamily
    hasher_salt: int | None = None
    method_name: str = "shared_seed"

    def __post_init__(self) -> None:
        if self.kind not in ("bottomk", "poisson"):
            raise ValueError(
                f"bundle kind must be 'bottomk' or 'poisson', got {self.kind!r}"
            )
        if not self.sketches:
            raise ValueError("a SketchBundle needs at least one sketch")
        want = BottomKSketch if self.kind == "bottomk" else PoissonSketch
        for name, sk in self.sketches.items():
            if not isinstance(sk, want):
                raise ValueError(
                    f"sketch {name!r} is {type(sk).__name__}, but the bundle "
                    f"kind is {self.kind!r}"
                )

    @property
    def assignments(self) -> list[str]:
        return list(self.sketches)

    def compatible_with(self, other: "SketchBundle") -> bool:
        """True when sketches of the two bundles may be merged exactly."""
        return (
            self.kind == other.kind
            and self.family == other.family
            and self.hasher_salt == other.hasher_salt
            and self.method_name == other.method_name
        )

    def merge(
        self, *others: "SketchBundle", disjoint: bool = False
    ) -> "SketchBundle":
        """Exact merge over key-disjoint bundles (union of assignments).

        Per assignment, the present sketches are merged with the exact
        :func:`~repro.engine.merge.merge_bottomk` /
        :func:`~repro.engine.merge.merge_poisson` primitives — which raise
        on duplicate keys, the signal that the inputs were not a
        key-disjoint partition, unless the caller passes ``disjoint=True``
        for having refused them already.  Assignments keep
        first-encounter order.
        """
        from repro.engine.merge import merge_bottomk, merge_poisson

        for other in others:
            if not self.compatible_with(other):
                raise ValueError(
                    "cannot merge incompatible bundles: "
                    f"({self.kind}, {self.family.name}, {self.hasher_salt}, "
                    f"{self.method_name}) vs ({other.kind}, "
                    f"{other.family.name}, {other.hasher_salt}, "
                    f"{other.method_name})"
                )
        merge_one = merge_bottomk if self.kind == "bottomk" else merge_poisson
        grouped: dict[str, list] = {}
        for bundle in (self, *others):
            for name, sk in bundle.sketches.items():
                grouped.setdefault(name, []).append(sk)
        merged = {
            name: merge_one(*parts, disjoint=disjoint)
            for name, parts in grouped.items()
        }
        return SketchBundle(
            kind=self.kind,
            sketches=merged,
            family=self.family,
            hasher_salt=self.hasher_salt,
            method_name=self.method_name,
        )

    def scaled(self, factor: float) -> "SketchBundle":
        """The bundle with every sketch's weights scaled by ``factor``.

        Delegates to :meth:`BottomKSketch.scaled` /
        :meth:`PoissonSketch.scaled` per assignment — exact for EXP and
        IPPS ranks, and coordination metadata (family, salt, method) is
        untouched, so scaled bundles of key-disjoint data still merge
        exactly.  ``factor=1.0`` short-circuits to a metadata-sharing
        no-op copy (the common undecayed path pays nothing).
        """
        if float(factor) == 1.0:
            return self
        return SketchBundle(
            kind=self.kind,
            sketches={
                name: sk.scaled(factor) for name, sk in self.sketches.items()
            },
            family=self.family,
            hasher_salt=self.hasher_salt,
            method_name=self.method_name,
        )

    def summary(self) -> MultiAssignmentSummary:
        """Assemble the dispersed multi-assignment summary (bottom-k only)."""
        from repro.core.summary import build_summary_from_sketches

        if self.kind != "bottomk":
            raise ValueError(
                "only bottom-k bundles assemble into a multi-assignment "
                f"summary, got kind {self.kind!r}"
            )
        return build_summary_from_sketches(
            self.sketches, self.family, method_name=self.method_name
        )

    def equals(self, other: "SketchBundle") -> bool:
        """Bit-exact equality of metadata and every sketch."""
        if not isinstance(other, SketchBundle):
            return False
        if not self.compatible_with(other):
            return False
        if self.assignments != other.assignments:
            return False
        return all(
            sk.equals(other.sketches[name]) for name, sk in self.sketches.items()
        )


@dataclass
class SummarizerCheckpoint:
    """Snapshot of a :class:`~repro.engine.ShardedSummarizer` mid-ingestion.

    Captures the full configuration (so re-hashing stays coordinated) plus
    every chunk held per assignment: its aggregated table as one
    pre-aggregated ``(keys, totals)`` chunk, if it has folded any events,
    then the raw-event chunks that arrived since, in arrival order.
    Restoring and finishing the stream is therefore bit-identical to never
    having been interrupted: aggregation order and rank seeds are both
    reproduced exactly.

    ``chunks[assignment]`` is the list of ``(keys, weights)`` array pairs
    held for that assignment.
    """

    k: int
    assignments: list[str]
    family: RankFamily
    hasher_salt: int
    chunks: dict[str, list[tuple[np.ndarray, np.ndarray]]] = field(repr=False)

    def __post_init__(self) -> None:
        missing = [name for name in self.assignments if name not in self.chunks]
        if missing:
            raise ValueError(f"chunks missing for assignments {missing!r}")

    @property
    def buffered_events(self) -> int:
        """Rows held: aggregated keys plus not-yet-folded events, summed
        over assignments — what ``ShardedSummarizer.buffered_events``
        reported at the snapshot and reports again after a restore."""
        return sum(
            len(keys)
            for chunk_list in self.chunks.values()
            for keys, _ in chunk_list
        )

    def restore(self):
        """Rebuild the summarizer (see ShardedSummarizer.from_checkpoint)."""
        from repro.engine.sharded import ShardedSummarizer

        return ShardedSummarizer.from_checkpoint(self)


@dataclass(frozen=True)
class EventSection:
    """One namespace's share of an ingest frame.

    ``keys`` is a numeric array (stored raw) or the list of Python key
    values a tag-packed buffer held; every ``weights`` array is ``<f8``
    and as long as ``keys``.  Decoded arrays are read-only views into
    the frame's bytes.
    """

    namespace: str
    keys: "np.ndarray | list"
    weights: dict[str, np.ndarray]


@dataclass(frozen=True)
class EventBatch:
    """A decoded ingest frame: sections in frame order, plus ``sync``."""

    sections: tuple[EventSection, ...]
    sync: bool

    @property
    def events(self) -> int:
        return sum(len(section.keys) for section in self.sections)


#: what one section of a ``bundle_batch`` frame says about its namespace:
#: the caller's version token still holds / here are the bytes / no data
BUNDLE_STATES = ("unchanged", "bundle", "empty")


@dataclass(frozen=True)
class BundleSection:
    """One namespace's share of a ``bundle_batch`` frame.

    ``version`` is the namespace's current token in every state;
    ``bundle`` is the decoded :class:`SketchBundle` (arrays are
    read-only views into the frame's bytes) for state ``"bundle"`` and
    ``None`` otherwise.
    """

    namespace: str
    state: str
    version: str
    bundle: "SketchBundle | None" = None


class BundleBatch(tuple):
    """A decoded ``bundle_batch`` frame: its :class:`BundleSection` rows
    in request order, plus the lease its sender granted (``lease_s``
    seconds; 0.0 when the frame carries none)."""

    lease_s: float = 0.0


# ---------------------------------------------------------------------------
# tagged key packing (object arrays, lists, and sets of key identifiers)
# ---------------------------------------------------------------------------

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def _pack_key(value: Hashable, out: bytearray) -> None:
    """Append one tagged key to ``out`` (recursive for tuples)."""
    # bool before int: bool is an int subclass but a distinct key identity.
    if isinstance(value, (bool, np.bool_)):
        out += b"B" + (b"\x01" if value else b"\x00")
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        if _INT64_MIN <= value <= _INT64_MAX:
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
            _pack_key(part, out)
    else:
        raise CodecError(
            f"cannot serialize key of type {type(value).__name__}: {value!r}"
        )


#: one ``b"i"``-tagged key, laid out exactly as :func:`_pack_key` writes it
_TAGGED_I64 = np.dtype([("tag", "S1"), ("value", "<i8")])


def _pack_ints(ints: np.ndarray) -> bytes:
    """Integers that fit int64, packed in one pass into the bytes the
    per-key loop writes for them as Python ints."""
    packed = np.empty(len(ints), dtype=_TAGGED_I64)
    packed["tag"] = b"i"
    packed["value"] = ints
    return packed.tobytes()


def _pack_keys(values: Sequence[Hashable]) -> bytes:
    # plain ints (not bools, not numpy scalars) that fit int64 are packed
    # in one pass
    if values and set(map(type, values)) == {int}:
        try:
            return _pack_ints(np.array(values, dtype=np.int64))
        except OverflowError:
            pass
    out = bytearray()
    for value in values:
        _pack_key(value, out)
    return bytes(out)


def _tagged_ints(buf: memoryview, count) -> "np.ndarray | None":
    """The int64 values of ``count`` keys when every one is ``b"i"``-tagged
    and they fill ``buf`` exactly; ``None`` sends the caller to the
    per-key reader (and its errors)."""
    if type(count) is not int or len(buf) != 9 * count:
        return None
    packed = np.frombuffer(buf, dtype=_TAGGED_I64)
    if not (packed["tag"] == b"i").all():
        return None
    return packed["value"]


def _unpack_key(buf: memoryview, pos: int) -> tuple[Hashable, int]:
    """Read one tagged key starting at ``pos``; return (value, next pos)."""
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
            part, pos = _unpack_key(buf, pos)
            parts.append(part)
        return tuple(parts), pos
    raise CodecError(f"unknown key tag {tag!r}")


def _unpack_keys(buf: memoryview, count: int) -> list[Hashable]:
    ints = _tagged_ints(buf, count)
    if ints is not None:
        return ints.tolist()
    values = []
    pos = 0
    try:
        for _ in range(count):
            value, pos = _unpack_key(buf, pos)
            values.append(value)
    except (struct.error, IndexError):
        # unpack_from past the end of the buffer: the blob lied about its
        # key count or was cut mid-entry
        raise CodecError("truncated key buffer") from None
    except (UnicodeDecodeError, RecursionError) as err:
        raise CodecError(f"corrupt key buffer: {err}") from None
    if pos != len(buf):
        raise CodecError(
            f"key buffer has {len(buf) - pos} trailing bytes after "
            f"{count} keys"
        )
    return values


#: array dtype kinds stored as raw buffers (everything else is tag-packed)
_RAW_KINDS = "biufUS"


def _object_array(values: list) -> np.ndarray:
    """A 1-D object array of ``values`` (tuples stay elements)."""
    out = np.empty(len(values), dtype=object)
    for pos, value in enumerate(values):
        out[pos] = value
    return out


def _key_column(buf: memoryview, count: int) -> np.ndarray:
    """A sketch's tag-packed key column: int64 when every key is
    ``b"i"``-tagged, Python objects otherwise."""
    ints = _tagged_ints(buf, count)
    if ints is not None:
        return ints.copy()  # contiguous and aligned
    return _object_array(_unpack_keys(buf, count))


def _key_objects(buf: memoryview, count: int) -> np.ndarray:
    """Tag-packed keys as an object array of Python values."""
    ints = _tagged_ints(buf, count)
    if ints is not None:
        return ints.astype(object)
    return _object_array(_unpack_keys(buf, count))


# ---------------------------------------------------------------------------
# blob writer / reader
# ---------------------------------------------------------------------------


def _pad(n: int) -> int:
    return (-n) % _ALIGN


class _BlobWriter:
    """Accumulates named buffers and renders the final blob."""

    def __init__(self, kind: str, meta: dict[str, Any]) -> None:
        self.kind = kind
        self.meta = meta
        self.arrays: dict[str, dict[str, Any]] = {}
        self.parts: list[bytes] = []
        self.offset = 0

    def _append(self, name: str, data: bytes, spec: dict[str, Any]) -> None:
        if name in self.arrays:
            raise CodecError(f"duplicate buffer name {name!r}")
        spec["offset"] = self.offset
        spec["nbytes"] = len(data)
        self.arrays[name] = spec
        self.parts.append(data)
        pad = _pad(len(data))
        if pad:
            self.parts.append(b"\0" * pad)
        self.offset += len(data) + pad

    def add_array(self, name: str, arr: np.ndarray) -> None:
        """Store an array raw when its dtype allows, tag-packed otherwise."""
        if arr.dtype.kind in _RAW_KINDS:
            # C-order bytes in one copy, whatever the array's layout
            self._append(
                name,
                arr.tobytes(order="C"),
                {
                    "enc": "raw",
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                },
            )
        elif arr.dtype.kind == "O":
            if arr.ndim != 1:
                raise CodecError(
                    f"object arrays must be 1-D, got shape {arr.shape}"
                )
            self.add_keys(name, arr.tolist())
        else:
            raise CodecError(
                f"cannot serialize array {name!r} of dtype {arr.dtype}"
            )

    def add_key_column(self, name: str, keys: np.ndarray) -> None:
        """Store a sketch's key column: an integer column tag-packed (the
        bytes of its keys as Python ints), any other as :meth:`add_array`."""
        if keys.dtype.kind not in "iu":
            self.add_array(name, keys)
        elif keys.dtype.kind == "u" and len(keys) and keys.max() > _INT64_MAX:
            self.add_keys(name, keys.tolist())
        else:
            self._append(
                name, _pack_ints(keys), {"enc": "obj", "count": len(keys)}
            )

    def add_numbers(self, name: str, keys: np.ndarray) -> None:
        """Store a numeric array raw and any other tag-packed, value by
        value (an ingest section's keys)."""
        if keys.dtype.kind in "biuf":
            self.add_array(name, keys)
        else:
            self.add_keys(name, keys.tolist())

    def add_keys(self, name: str, values: Sequence[Hashable]) -> None:
        """Store a sequence of key identifiers with the tagged packing."""
        values = list(values)
        self._append(
            name, _pack_keys(values), {"enc": "obj", "count": len(values)}
        )

    def add_scalars(self, name: str, values) -> None:
        """Store floats as a raw <f8 buffer (JSON cannot hold inf)."""
        self.add_array(name, np.asarray(values, dtype="<f8"))

    def add_blob(self, name: str, data: bytes) -> None:
        """Store an opaque nested blob (recursively encoded object)."""
        self._append(name, data, {"enc": "blob"})

    def render(self) -> bytes:
        payload = b"".join(self.parts)
        header = {
            "kind": self.kind,
            "meta": self.meta,
            "arrays": self.arrays,
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        }
        header_json = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        prefix = _HEADER_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_json))
        head = prefix + header_json
        return head + b"\0" * _pad(len(head)) + payload


class _BlobReader:
    """One blob's parsed header over its payload (zero-copy by default).

    :meth:`read` believes the header only once all of it has been checked
    against the kind's row of :data:`_KINDS`.
    """

    def __init__(self, data, writable: bool, verify: bool) -> None:
        view = memoryview(data)
        if len(view) < _HEADER_PREFIX.size:
            raise CodecError(
                f"blob too short ({len(view)} bytes) to hold a header"
            )
        magic, version, header_len = _HEADER_PREFIX.unpack_from(view, 0)
        if magic != MAGIC:
            raise CodecError(
                f"bad magic {magic!r}; not a coordinated-sampling store blob"
            )
        if version != FORMAT_VERSION:
            raise UnsupportedFormatError(
                f"format version {version} is not supported by this codec "
                f"(supported: {FORMAT_VERSION}); refusing to guess at the "
                "layout"
            )
        head_end = _HEADER_PREFIX.size + header_len
        if head_end > len(view):
            raise CodecError("truncated header")
        text = view[_HEADER_PREFIX.size : head_end]
        try:
            header, end = _JSON.raw_decode(str(text, "utf-8"))
        except ValueError as err:  # bad JSON, or bytes that are not UTF-8
            raise CodecError(f"corrupt header JSON: {err}") from None
        if end != len(text):
            raise CodecError("corrupt header JSON: data after the object")
        try:
            self.kind: str = header["kind"]
            self.meta: dict[str, Any] = header["meta"]
            self.arrays: dict[str, dict[str, Any]] = header["arrays"]
            crc = header["crc32"]
        except (KeyError, TypeError):
            raise CodecError(
                "header is missing kind/meta/arrays/crc32"
            ) from None
        if not isinstance(self.meta, dict) or not isinstance(self.arrays, dict):
            raise CodecError("header meta and arrays must be objects")
        self._base = head_end + _pad(head_end)
        self._view = view
        self.writable = writable
        if verify:
            payload = view[self._base :]
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise CodecError("payload checksum mismatch; blob is corrupt")

    def blob(self, name: str) -> memoryview:
        """The bytes of buffer ``name`` (:meth:`read` checks its bounds)."""
        spec = self.arrays[name]
        start = self._base + spec["offset"]
        return self._view[start : start + spec["nbytes"]]

    def read(self, kind: str):
        """The ``kind`` object this blob holds.  Every header field, the
        set of buffers and each buffer's spec are checked against the
        kind's row before any buffer is read."""
        row, meta, arrays = _KINDS[kind], self.meta, self.arrays
        for name, rule in row.fields.items():
            if name not in meta or not rule.check(meta[name]):
                got = repr(meta[name]) if name in meta else "nothing"
                raise _lie(kind, f"field {name!r} is {got}, not {rule.want}")
        plan: list = []
        dims: dict[str, tuple[int, str]] = {}
        room = len(self._view) - self._base
        for name, buf in row.buffers(meta):
            spec = arrays.get(name)
            if spec is None:
                if buf.optional:
                    continue
                raise _lie(kind, f"buffer {name!r} is missing")
            get = spec.get if type(spec) is dict else {}.get
            offset, nbytes, enc = get("offset"), get("nbytes"), get("enc")
            if not (
                type(offset) is int and type(nbytes) is int
                and 0 <= offset <= offset + nbytes <= room
            ):
                raise _lie(kind, f"buffer {name!r} runs past the end")
            start = self._base + offset
            want, raw, tagged, _ = buf.form
            if enc == "raw" and raw:
                text, sizes = get("dtype"), get("shape")
                dtype = _dtype(text, raw) if type(text) is str else None
                if dtype is None or type(sizes) is not list:
                    raise _lie(kind, f"buffer {name!r} has dtype {text!r} "
                                     f"and shape {sizes!r}, not {want}")
            elif enc == "obj" and tagged:
                # the shortest tagged key (a bool) takes two bytes
                dtype, sizes = None, [get("count")]
                if not (type(sizes[0]) is int
                        and 0 <= sizes[0] <= nbytes // 2):
                    raise _lie(kind, f"buffer {name!r} declares "
                                     f"{sizes[0]!r} keys in {nbytes} bytes")
            elif enc == "blob" and buf.nested:
                plan.append((name, buf, start, start + nbytes, None, None))
                continue
            else:
                raise _lie(kind, f"buffer {name!r} is {enc!r}, not {want}")
            tokens = buf.dims
            if buf.last_optional and len(sizes) == len(tokens) - 1:
                tokens = tokens[:-1]
            if len(sizes) != len(tokens):
                raise _lie(kind, f"buffer {name!r} has shape {sizes!r}")
            for token, size in zip(tokens, sizes):
                if type(size) is not int or size < 0:
                    raise _lie(kind, f"buffer {name!r} has shape {sizes!r}")
                if type(token) is int:
                    want = token
                elif token[0] == "#":
                    want = len(meta[token[1:]])
                else:
                    want = dims.setdefault(token, (size, name))[0]
                if size != want:
                    raise _lie(kind, f"buffer {name!r} has {size} where "
                                     f"{_source(token, dims)} says {want}")
            if dtype is not None and (
                math.prod(sizes) * dtype.itemsize != nbytes
            ):
                raise _lie(kind, f"buffer {name!r} is not {nbytes} bytes")
            plan.append((name, buf, start, start + nbytes, dtype, sizes))
        if len(plan) != len(arrays):
            extra = sorted(set(arrays) - {name for name, *_ in plan})
            raise _lie(kind, f"buffers {extra} are not in its row" + (
                f" (one per entry of field {row.counted_by!r})"
                if row.counted_by else ""
            ))
        if row.limit and dims["n"][0] > meta[row.limit]:
            raise _lie(kind, f"buffer {dims['n'][1]!r} holds more than "
                             f"field {row.limit!r} allows")
        values = {}
        for name, buf, start, end, dtype, sizes in plan:
            data = self._view[start:end]
            if dtype is not None:
                value = np.frombuffer(data, dtype=dtype)
                if len(sizes) != 1:
                    value = value.reshape(sizes)
                values[name] = value.copy() if self.writable else value
            elif sizes is not None:
                values[name] = buf.form[2](data, sizes[0])
            else:  # the enclosing blob's checksum already covered these bytes
                part = _BlobReader(data, self.writable, verify=False)
                if part.kind != buf.nested:
                    raise _lie(kind, f"buffer {name!r} is no {buf.nested}")
                values[name] = part.read(buf.nested)
        return row.build(meta, values)


# ---------------------------------------------------------------------------
# the schema table
# ---------------------------------------------------------------------------


def _lie(kind: str, what: str) -> CodecError:
    return CodecError(f"{kind} blob does not decode: {what}")


def _source(token, dims: dict) -> str:
    """What set the size a dimension token stands for, in words."""
    if type(token) is int:
        return "its row"
    if token[0] == "#":
        return f"field {token[1:]!r}"
    return f"buffer {dims[token][1]!r}"


def _dtype(text: str, raw: str) -> "np.dtype | None":
    """The dtype ``text`` names, if a form storing ``raw`` (one dtype, or
    dtype kinds) may hold it."""
    dtype = _DTYPES.get(text)
    if dtype is None:
        try:
            dtype = np.dtype(text)
        except (TypeError, ValueError):
            return None
        if dtype.str != text or not dtype.itemsize:
            return None
    if dtype.str != raw if raw[0] in "<|" else dtype.kind not in raw:
        return None
    return dtype


#: the numeric dtypes by name, parsed once (most of a header's dtypes)
_DTYPES = {dtype.str: dtype for dtype in map(np.dtype, "?bBhHiIqQefd")}


class _Rule(NamedTuple):
    """What a header field's value must be, in words and as a test."""

    want: str
    check: Callable[[Any], bool]


def _one_of(*choices: str) -> _Rule:
    return _Rule(
        f"one of {choices}", lambda v: type(v) is str and v in choices
    )


def _at_least(least: int) -> _Rule:  # a JSON true is a bool, not an int
    return _Rule(f"an int >= {least}", lambda v: type(v) is int and v >= least)


def _names(least: int = 0) -> _Rule:
    return _Rule(f"at least {least} distinct strings", lambda v: (
        type(v) is list and len(v) >= least and set(map(type, v)) <= {str}
        and len(set(v)) == len(v)
    ))


_STR = _Rule("a string", lambda v: type(v) is str)
_BOOL = _Rule("a bool", lambda v: type(v) is bool)
_INT = _Rule("an int", lambda v: type(v) is int)
_SALT = _Rule("an int or null", lambda v: v is None or type(v) is int)
_FAMILY = _one_of(*RANK_FAMILIES)
_CHUNK_COUNTS = _Rule("a list of lists of chunk counts", lambda v: (
    type(v) is list and all(
        type(counts) is list
        and all(type(n) is int and n >= 0 for n in counts)
        for counts in v
    )
))
_SECTIONS = _Rule(
    "[namespace, state, version] rows with distinct namespaces and a state "
    f"in {BUNDLE_STATES}",
    lambda v: type(v) is list and len(v) > 0 and all(
        type(row) is list and len(row) == 3 and set(map(type, row)) == {str}
        and row[1] in BUNDLE_STATES for row in v
    ) and len({row[0] for row in v}) == len(v),
)
_BUNDLE_META = ("kind", "family", "salt", "method", "names")
_BUNDLES = _Rule(
    f"null, or the bundles' {{{', '.join(_BUNDLE_META)}}}",
    lambda v: v is None or (
        type(v) is dict and sorted(v) == sorted(_BUNDLE_META)
        and v["kind"] in ("bottomk", "poisson") and _FAMILY.check(v["family"])
        and _SALT.check(v["salt"]) and _STR.check(v["method"])
        and _names(1).check(v["names"])
    ),
)


# How a buffer's value is stored: (what that is in words, the one dtype it
# may hold raw or the dtype kinds it may, the reader of its tag-packed
# keys, the writer).  A buffer whose form is a kind's name holds a nested
# blob of that kind.
_F8 = ("raw <f8", "<f8", None, _BlobWriter.add_scalars)
_B1 = ("raw |b1", "|b1", None, lambda writer, name, value: (
    writer.add_array(name, np.asarray(value, dtype="|b1"))
))
_INTS = ("raw integers", "iu", None, _BlobWriter.add_array)
_ARRAY = ("an array", _RAW_KINDS, _key_objects, _BlobWriter.add_array)
_COLUMN = ("a key column", _RAW_KINDS, _key_column, _BlobWriter.add_key_column)
_NUMBERS = ("numbers or keys", "biuf", _unpack_keys, _BlobWriter.add_numbers)
_KEYS = ("tag-packed keys", "", _unpack_keys, _BlobWriter.add_keys)
_NESTED = ("a nested blob", "", None, _BlobWriter.add_blob)


class _Buf(NamedTuple):
    """A buffer of a row (built by :func:`_buf`)."""

    form: tuple
    dims: tuple
    optional: bool
    last_optional: bool
    nested: "str | None"


def _buf(form, dims: str = "", optional: bool = False) -> _Buf:
    """A buffer of ``form`` (a kind's name: a nested blob of that kind)
    whose sizes are ``dims``, space separated: a number is fixed,
    ``#field`` is a header field's length, any other symbol must agree
    across the buffers that name it, and a trailing ``?`` marks a last
    size that may be absent.  ``optional``: the buffer may be absent."""
    nested = form if type(form) is str else None
    return _Buf(
        _NESTED if nested else form,
        tuple(int(t) if t.isdigit() else t.rstrip("?") for t in dims.split()),
        optional, dims.endswith("?"), nested,
    )


class _Kind(NamedTuple):
    """One row of :data:`_KINDS`.

    ``fields`` maps each header field to its :class:`_Rule`;
    ``buffers(meta)`` are the ``(name, buffer)`` pairs the header calls
    for, in payload order; ``parts(obj)`` maps an object to its header and
    buffer values, and ``build(meta, values)`` maps them back.
    ``counted_by`` is the header field whose entries call for buffers;
    ``limit`` the one that bounds size ``n``.  ``type`` is what
    :func:`encode` takes (a wire kind has an ``encode_*`` function of its
    own).
    """

    type: "type | None"
    fields: dict[str, _Rule]
    buffers: Callable[[dict], Iterable[tuple[str, _Buf]]]
    parts: Callable[[Any], tuple[dict, dict]]
    build: Callable[[dict, dict], Any]
    counted_by: "str | None" = None
    limit: "str | None" = None


def _family_name(family: RankFamily) -> str:
    """Name of a registry rank family; refuse unregistered instances."""
    name = getattr(family, "name", None)
    try:
        canonical = get_rank_family(name) if isinstance(name, str) else None
    except ValueError:
        canonical = None
    if canonical is None or canonical != family:
        raise CodecError(
            f"rank family {family!r} is not in the registry; only named "
            "families (exp, ipps) can be stored and re-instantiated"
        )
    return name


def _numbered(prefix: str, count: int, buf: _Buf):
    """``(<prefix>0, buf)`` … ``(<prefix><count - 1>, buf)``."""
    return ((f"{prefix}{index}", buf) for index in range(count))


def _sketch(scalars: str) -> dict[str, _Buf]:
    return {
        "keys": _buf(_COLUMN, "n"), "ranks": _buf(_F8, "n"),
        "weights": _buf(_F8, "n"), "scalars": _buf(_F8, scalars),
        "seeds": _buf(_F8, "n", True),
    }


_BOTTOMK, _POISSON = _sketch("2"), _sketch("1")


def _sketch_parts(sketch, meta: dict, *scalars: float) -> tuple[dict, dict]:
    return meta, {
        "keys": sketch.keys, "ranks": sketch.ranks, "weights": sketch.weights,
        "scalars": scalars, "seeds": sketch.seeds,
    }


_SUMMARY = {
    "positions": _buf(_INTS, "u"),
    "member": _buf(_B1, "u #assignments"),
    "ranks": _buf(_F8, "u #assignments"),
    "weights": _buf(_F8, "u #assignments"),
    "thresholds": _buf(_F8, "u #assignments"),
    "rank_k": _buf(_F8, "#assignments", True),
    "rank_kplus1": _buf(_F8, "#assignments", True),
    "seeds": _buf(_F8, "u #assignments?", True),
    "union_keys": _buf(_KEYS, "u", True),
}
_PART = {
    kind: _buf(kind)
    for kind in ("bottomk_sketch", "poisson_sketch", "event_section")
}
_SECTION_KEYS, _SECTION_WEIGHTS = _buf(_NUMBERS, "n"), _buf(_F8, "n")
_LEASE = _buf(_F8, "1", True)


def _chunks(meta: dict) -> Iterable[tuple[str, str]]:
    """``(assignment, chunk)`` per chunk a checkpoint header names.
    ``layout[assignment]`` lists one chunk count per key-disjoint chunk
    list ``s{j}``; a summarizer writes one list per assignment."""
    if len(meta["layout"]) != len(meta["assignments"]):
        raise _lie("checkpoint", "field 'layout' has an entry count other "
                   "than field 'assignments'")
    for ai, name in enumerate(meta["assignments"]):
        for si, n_chunks in enumerate(meta["layout"][ai]):
            for ci in range(n_chunks):
                yield name, f"a{ai}.s{si}.c{ci}"


def _checkpoint(meta: dict, values: dict) -> SummarizerCheckpoint:
    # The lists of one assignment are key-disjoint, so reading them one
    # after another keeps every key's additions in arrival order.
    chunks: dict[str, list] = {name: [] for name in meta["assignments"]}
    for name, chunk in _chunks(meta):
        chunks[name].append((values[f"{chunk}.k"], values[f"{chunk}.w"]))
    return SummarizerCheckpoint(
        meta["k"], list(meta["assignments"]),
        get_rank_family(meta["family"]), meta["salt"], chunks,
    )


def _event_batch(meta: dict, values: dict) -> EventBatch:
    for name, section in zip(meta["namespaces"], values.values()):
        if section.namespace != name:
            raise _lie("event_batch", f"a section is for "
                       f"{section.namespace!r}, field 'namespaces' says "
                       f"{name!r}")
    return EventBatch(tuple(values.values()), meta["sync"])


def _flat_buffers(meta: dict) -> Iterable[tuple[str, _Buf]]:
    """A ``bundle_batch``'s buffers: with bundles, one entry per part
    (``lens``, bottom-k ``k``, ``scalars``, ``seeded``) and the parts'
    columns concatenated (``seeds`` of the seeded parts only)."""
    bundles = meta["bundles"]
    if bundles is not None:
        bottomk = bundles["kind"] == "bottomk"
        yield "lens", _buf(_INTS, "p")
        if bottomk:
            yield "k", _buf(_INTS, "p")
        yield "scalars", _buf(_F8, "p 2" if bottomk else "p 1")
        yield "seeded", _buf(_B1, "p")
        yield "keys", _buf(_COLUMN, "n")
        yield "ranks", _buf(_F8, "n")
        yield "weights", _buf(_F8, "n")
        yield "seeds", _buf(_F8, "s")
    yield "lease_s", _LEASE


def _flat_keys(columns: "list[np.ndarray]") -> np.ndarray:
    """The parts' key columns as one, each part's slice reading back as
    its own blob would: raw when every non-empty part shares one raw,
    non-integer dtype (float or bool keys); else integers that fit int64
    as int64 and anything else as Python objects."""
    filled = [keys for keys in columns if len(keys)]
    dtypes = {keys.dtype for keys in filled}
    if len(dtypes) == 1:
        dtype = dtypes.pop()
        if dtype.kind in _RAW_KINDS and dtype.kind not in "iu":
            return np.concatenate(filled)
    return np.concatenate([_int_keys(keys) for keys in columns])


def _int_keys(keys: np.ndarray) -> np.ndarray:
    """Integers that fit int64 as int64, anything else as Python
    objects."""
    if keys.dtype.kind == "i" or (
        keys.dtype.kind == "u" and not (len(keys) and keys.max() > _INT64_MAX)
    ):
        return keys.astype(np.int64, copy=False)
    return _object_array(keys.tolist())


def _part_keys(keys: np.ndarray) -> np.ndarray:
    """A copy of one part's slice of a decoded key column, as the part's
    own blob would read back: int64 when every key was ``b"i"``-tagged."""
    if keys.dtype == object and all(
        type(key) is int and _INT64_MIN <= key <= _INT64_MAX for key in keys
    ):
        return keys.astype(np.int64)
    return keys.copy()


def _bundle_batch_parts(frame) -> tuple[dict, dict]:
    """A ``bundle_batch`` frame's header and buffers: one header, and per
    assignment the bundle sections' sketch columns concatenated."""
    rows, lease = frame
    bundles = [row[3] for row in rows if row[3] is not None]
    meta = {"sections": [list(row[:3]) for row in rows], "bundles": None}
    values = {"lease_s": None if lease is None else [lease]}
    if not bundles:
        return meta, values
    lead = bundles[0]
    for bundle in bundles[1:]:
        if not (
            lead.compatible_with(bundle)
            and bundle.assignments == lead.assignments
        ):
            raise CodecError(
                "a bundle batch carries bundles of one kind, family, salt, "
                "method and assignment list"
            )
    meta["bundles"] = {
        "kind": lead.kind, "family": _family_name(lead.family),
        "salt": lead.hasher_salt, "method": lead.method_name,
        "names": lead.assignments,
    }
    parts = [
        bundle.sketches[name]
        for name in lead.assignments for bundle in bundles
    ]
    bottomk = lead.kind == "bottomk"
    values.update(
        keys=_flat_keys([part.keys for part in parts]),
        lens=np.array([len(part.keys) for part in parts], dtype=np.int64),
        scalars=[
            (part.kth_rank, part.threshold) if bottomk else (part.tau,)
            for part in parts
        ],
        seeded=[part.seeds is not None for part in parts],
        ranks=np.concatenate([part.ranks for part in parts]),
        weights=np.concatenate([part.weights for part in parts]),
        seeds=np.concatenate(
            [_NO_F8] + [part.seeds for part in parts if part.seeds is not None]
        ),
    )
    if bottomk:
        values["k"] = np.array([part.k for part in parts], dtype=np.int64)
    return meta, values


_NO_F8 = np.empty(0)


def _bundle_batch(meta: dict, values: dict) -> BundleBatch:
    lease = float(values.get("lease_s", [0.0])[0])
    if not 0.0 <= lease < math.inf:
        raise _lie("bundle_batch", f"buffer 'lease_s' holds {lease!r}, "
                   "not a finite, non-negative <f8")
    rows = meta["sections"]
    sent = [index for index, row in enumerate(rows) if row[1] == "bundle"]
    bundles = dict(zip(sent, _flat_bundles(meta, values, len(sent))))
    batch = BundleBatch(
        BundleSection(name, state, version, bundles.get(index))
        for index, (name, state, version) in enumerate(rows)
    )
    batch.lease_s = lease
    return batch


def _flat_bundles(meta: dict, values: dict, count: int) -> list:
    """The ``count`` bundles of a flat ``bundle_batch``, each column a
    copy of its slice, so no bundle keeps the frame alive."""
    about = meta["bundles"]
    if (about is None) != (count == 0):
        raise _lie("bundle_batch", f"field 'bundles' is {about!r} for "
                   f"{count} 'bundle' sections")
    if about is None:
        return []
    names, bottomk = about["names"], about["kind"] == "bottomk"
    lens, seeded = values["lens"], values["seeded"]
    if len(lens) != count * len(names) or (lens < 0).any() or (
        lens > len(values["ranks"])
    ).any():
        raise _lie("bundle_batch", f"buffer 'lens' holds {len(lens)} parts, "
                   f"not one per section ({count}) and assignment "
                   f"({len(names)}), or a length no column backs")
    ends = np.cumsum(lens).tolist()
    if (ends[-1] if ends else 0) != len(values["ranks"]) or int(
        lens[seeded].sum()
    ) != len(values["seeds"]):
        raise _lie("bundle_batch", "buffers 'lens' and 'seeded' do not "
                   "add up to the columns")
    if bottomk and ((values["k"] < 1).any() or (lens > values["k"]).any()):
        raise _lie("bundle_batch", "a bottom-k part's 'k' is below 1 or "
                   "below its length")
    keys = values["keys"]
    sketches = []
    lo = seeds_lo = 0
    for part, hi in enumerate(ends):
        seeds = None
        if seeded[part]:
            seeds_hi = seeds_lo + hi - lo
            seeds = values["seeds"][seeds_lo:seeds_hi].copy()
            seeds_lo = seeds_hi
        part_keys = _part_keys(keys[lo:hi])
        ranks = values["ranks"][lo:hi].copy()
        weights = values["weights"][lo:hi].copy()
        scalars = values["scalars"][part].tolist()
        sketches.append(
            BottomKSketch(int(values["k"][part]), part_keys, ranks, weights,
                          *scalars, seeds)
            if bottomk else
            PoissonSketch(scalars[0], part_keys, ranks, weights, seeds)
        )
        lo = hi
    family = get_rank_family(about["family"])
    return [
        SketchBundle(
            about["kind"],
            {name: sketches[at * count + index]
             for at, name in enumerate(names)},
            family, about["salt"], about["method"],
        )
        for index in range(count)
    ]


def _parts(meta: dict, blobs, **more) -> tuple[dict, dict]:
    """A header and one nested ``part<i>`` per blob (``None``: no part)."""
    return meta, {f"part{i}": blob for i, blob in enumerate(blobs)} | more


#: the format's specification: every kind the codec reads and writes, one
#: row each
_KINDS: dict[str, _Kind] = {
    "bottomk_sketch": _Kind(
        BottomKSketch, {"k": _at_least(1)}, lambda meta: _BOTTOMK.items(),
        lambda sk: _sketch_parts(sk, {"k": sk.k}, sk.kth_rank, sk.threshold),
        lambda meta, v: BottomKSketch(
            meta["k"], v["keys"], v["ranks"], v["weights"],
            *map(float, v["scalars"]), v.get("seeds"),
        ),
        limit="k",
    ),
    "poisson_sketch": _Kind(
        PoissonSketch, {}, lambda meta: _POISSON.items(),
        lambda sk: _sketch_parts(sk, {}, sk.tau),
        lambda meta, v: PoissonSketch(
            float(v["scalars"][0]), v["keys"], v["ranks"], v["weights"],
            v.get("seeds"),
        ),
    ),
    "summary": _Kind(
        MultiAssignmentSummary,
        {
            "mode": _one_of("colocated", "dispersed"),
            "summary_kind": _one_of("bottomk", "poisson"),
            "assignments": _names(),
            # Poisson summaries built without an expected size record 0
            "k": _at_least(0),
            "method": _STR, "consistent": _BOOL, "family": _FAMILY,
        },
        lambda meta: _SUMMARY.items(),
        lambda s: ({
            "mode": s.mode, "summary_kind": s.kind, "k": s.k,
            "assignments": list(s.assignments), "method": s.method_name,
            "consistent": bool(s.consistent),
            "family": _family_name(s.family),
        }, {
            name: getattr(s, name.replace("union_", "")) for name in _SUMMARY
        }),
        lambda meta, v: MultiAssignmentSummary(
            meta["mode"], meta["summary_kind"], list(meta["assignments"]),
            meta["k"], *(v.get(name) for name in list(_SUMMARY)[:-1]),
            get_rank_family(meta["family"]), meta["method"],
            meta["consistent"], v.get("union_keys"),
        ),
    ),
    "sketch_bundle": _Kind(
        SketchBundle,
        {
            "bundle_kind": _one_of("bottomk", "poisson"), "family": _FAMILY,
            "salt": _SALT, "method": _STR, "names": _names(1),
        },
        lambda meta: _numbered(
            "part", len(meta["names"]), _PART[f"{meta['bundle_kind']}_sketch"]
        ),
        lambda bundle: _parts({
            "bundle_kind": bundle.kind, "family": _family_name(bundle.family),
            "salt": bundle.hasher_salt, "method": bundle.method_name,
            "names": bundle.assignments,
        }, map(encode, bundle.sketches.values())),
        lambda meta, v: SketchBundle(
            meta["bundle_kind"], dict(zip(meta["names"], v.values())),
            get_rank_family(meta["family"]), meta["salt"], meta["method"],
        ),
        counted_by="names",
    ),
    "checkpoint": _Kind(
        SummarizerCheckpoint,
        {
            "k": _at_least(1), "assignments": _names(), "family": _FAMILY,
            "salt": _INT, "layout": _CHUNK_COUNTS,
        },
        lambda meta: (
            (f"{chunk}.{part}", _buf(form, chunk))
            for _, chunk in _chunks(meta)
            for part, form in (("k", _ARRAY), ("w", _F8))
        ),
        lambda cp: ({
            "k": cp.k, "assignments": list(cp.assignments),
            "family": _family_name(cp.family), "salt": cp.hasher_salt,
            "layout": [[len(cp.chunks[name])] for name in cp.assignments],
        }, {
            f"a{ai}.s0.c{ci}.{part}": array
            for ai, name in enumerate(cp.assignments)
            for ci, chunk in enumerate(cp.chunks[name])
            for part, array in zip("kw", chunk)
        }),
        _checkpoint,
        counted_by="layout",
    ),
    "event_section": _Kind(
        None, {"namespace": _STR, "names": _names()},
        lambda meta: (
            ("keys", _SECTION_KEYS),
            *_numbered("w", len(meta["names"]), _SECTION_WEIGHTS),
        ),
        lambda section: (
            {"namespace": section.namespace, "names": list(section.weights)},
            {"keys": section.keys} | {
                f"w{index}": weights
                for index, weights in enumerate(section.weights.values())
            },
        ),
        lambda meta, v: EventSection(meta["namespace"], v.pop("keys"), dict(
            zip(meta["names"], v.values())  # the weights, in order
        )),
        counted_by="names",
    ),
    "event_batch": _Kind(
        None, {"namespaces": _names(1), "sync": _BOOL},
        lambda meta: _numbered(
            "part", len(meta["namespaces"]), _PART["event_section"]
        ),
        lambda frame: _parts({
            "namespaces": [name for name, _ in frame[0]], "sync": frame[1],
        }, (blob for _, blob in frame[0])),
        _event_batch,
        counted_by="namespaces",
    ),
    "bundle_batch": _Kind(
        None, {"sections": _SECTIONS, "bundles": _BUNDLES},
        _flat_buffers, _bundle_batch_parts, _bundle_batch,
    ),
}


def _write(kind: str, obj) -> bytes:
    """``obj`` rendered through its kind's row."""
    row = _KINDS[kind]
    meta, values = row.parts(obj)
    writer = _BlobWriter(kind, meta)
    for name, buf in row.buffers(meta):
        value = values.get(name)
        if value is not None:  # else an absent optional buffer
            buf.form[3](writer, name, value)
    return writer.render()


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def encode(obj) -> bytes:
    """Serialize a supported object to a self-describing binary blob.

    Deterministic: equal objects produce byte-identical blobs, which is
    what lets the golden-file test pin format v1 against drift.
    """
    for kind, row in _KINDS.items():
        if row.type is not None and isinstance(obj, row.type):
            return _write(kind, obj)
    raise CodecError(
        f"cannot serialize object of type {type(obj).__name__}; supported: "
        "BottomKSketch, PoissonSketch, MultiAssignmentSummary, "
        "SketchBundle, SummarizerCheckpoint"
    )


def decode(data, *, writable: bool = False, verify: bool = False):
    """Deserialize a blob produced by :func:`encode`.

    Numeric arrays are zero-copy read-only views into ``data`` by default;
    pass ``writable=True`` to copy them out (needed only when the caller
    mutates arrays in place).  ``verify=True`` additionally checks the
    payload CRC — recommended when reading from storage, skipped by
    default so hot-path loads stay O(header).
    """
    return _decode_kind(_BlobReader(data, writable=writable, verify=verify))


def _decode_kind(reader: _BlobReader, expect: "str | None" = None):
    kind = reader.kind
    if expect is not None and kind != expect:
        raise CodecError(f"expected a {expect} frame, got kind {kind!r}")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CodecError(f"unknown blob kind {kind!r}")
    try:
        return reader.read(kind)
    except CodecError:
        raise
    except (ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError, struct.error) as err:
        # a safety net: the row's checks refuse a lie before this can
        raise _lie(kind, repr(err)) from None


def encode_event_section(
    namespace: str, keys: np.ndarray, weights: "dict[str, np.ndarray]"
) -> bytes:
    """One namespace's ``(keys, weights)`` as an ingest-frame section.

    Numeric key arrays are stored raw; every other dtype is tag-packed
    value by value, so the receiver rebuilds its key array from the
    same Python values a JSON body would have carried.
    """
    return _write("event_section", EventSection(namespace, keys, weights))


def encode_event_batch(
    sections: "Sequence[tuple[str, bytes]]", sync: bool = False
) -> bytes:
    """An ingest frame from ``(namespace, encoded section)`` pairs.

    Sections are nested as they are, so one encoded section can ride
    in several frames (one per replica) without being encoded again.
    """
    return _write("event_batch", (sections, bool(sync)))


def decode_event_batch(data) -> EventBatch:
    """Decode an ingest frame received from the network (CRC-verified).

    Every way the bytes can be wrong — truncation, a bad checksum,
    header counts the buffers cannot hold, non-``<f8`` weights,
    duplicate or missing sections — raises :class:`CodecError`.
    """
    reader = _BlobReader(data, writable=False, verify=True)
    return _decode_kind(reader, "event_batch")


def event_batch_namespaces(data) -> tuple[str, ...]:
    """The section namespaces an ingest frame's header names (no payload
    read, no checksum): what slot-scoped fault rules match against."""
    reader = _BlobReader(data, writable=False, verify=False)
    names = reader.meta.get("namespaces")
    if reader.kind != "event_batch" or not isinstance(names, list):
        return ()
    return tuple(name for name in names if isinstance(name, str))


def encode_bundle_batch(
    sections: "Sequence[tuple[str, str, str, SketchBundle | None]]",
    lease_s: "float | None" = None,
) -> bytes:
    """A bundle frame from ``(namespace, state, version, bundle)`` rows.

    ``bundle`` is the namespace's :class:`SketchBundle` (or its
    encoded bytes) for state ``"bundle"`` and ``None`` otherwise; the
    frame's bundles share one
    kind, family, salt, method and assignment list, which its one
    header names, and per assignment their sketches' columns are
    concatenated.  ``lease_s`` (seconds, finite and >= 0) rides in a
    CRC-covered buffer; ``None`` grants no lease.
    """
    for index, (_, state, _, bundle) in enumerate(sections):
        if (state == "bundle") != (bundle is not None):
            raise CodecError(
                f"section {index}: state {state!r} "
                f"{'needs' if bundle is None else 'carries no'} bundle bytes"
            )
    sections = [
        (*row[:3], decode(row[3]) if isinstance(row[3], bytes) else row[3])
        for row in sections
    ]
    for index, row in enumerate(sections):
        if row[3] is not None and not isinstance(row[3], SketchBundle):
            raise CodecError(
                f"section {index}: a {type(row[3]).__name__} is no "
                "sketch_bundle"
            )
    return _write("bundle_batch", (sections, lease_s))


def decode_bundle_batch(
    data, expect: "Sequence[str] | None" = None
) -> BundleBatch:
    """Decode a worker's multi-slot bundle reply (CRC-verified), its
    sections and the lease it grants.

    ``expect`` is the namespaces the request named, in order: a reply
    that answers for anything else is refused.  Every way the bytes can
    be wrong — truncation, a bad checksum, a state without its bytes or
    bytes without their state, part lengths or counts its columns do not
    back, a lease that is not one finite non-negative ``<f8`` —
    raises :class:`CodecError`.  Every decoded column is a copy, so a
    kept bundle never keeps the frame's bytes alive.
    """
    reader = _BlobReader(data, writable=False, verify=True)
    sections = _decode_kind(reader, "bundle_batch")
    names = [section.namespace for section in sections]
    if expect is not None and names != list(expect):
        raise CodecError(
            f"bundle batch answers for {names!r}, the request named "
            f"{list(expect)!r}"
        )
    return sections


def atomic_write_bytes(path, data: bytes) -> None:
    """Publish ``data`` at ``path`` via a same-directory staging file.

    The bytes are staged to a temporary file beside the target, fsynced,
    and published with :func:`os.replace`, so a crash mid-write never
    leaves a truncated or half-written file at ``path``.  Parent
    directories are created as needed.  Serves ``repro-store export``
    only; a :class:`~repro.store.SummaryStore` keeps its artifacts as rows
    of its runtime tier.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    staging = os.path.join(directory, f".{name}.tmp.{os.getpid()}")
    try:
        with open(staging, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    finally:
        if os.path.exists(staging):
            os.unlink(staging)
