"""Versioned binary codec for summaries, sketches, and checkpoints.

Everything a :class:`~repro.store.SummaryStore` holds or a daemon ships —
:class:`~repro.sampling.bottomk.BottomKSketch`,
:class:`~repro.sampling.poisson.PoissonSketch`,
:class:`~repro.core.summary.MultiAssignmentSummary`, per-assignment
:class:`SketchBundle` artifacts, and :class:`SummarizerCheckpoint` snapshots
— round-trips through one self-describing binary format:

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
* **typed failures** — :func:`decode` believes a blob's header only as
  far as it can check it: a lying header (a wrong type, a missing field,
  a count its buffers cannot back) raises :class:`CodecError`, never a
  bare ``KeyError`` or ``TypeError``, so a service can answer it 400.

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
column is always tag-packed when it holds integers: an integer table's
sketch carries its int64 (or other integer) column, and the column is
written in one NumPy pass into a ``(tag, <i8)`` record array — exactly
the bytes the per-key packer writes for the same keys as Python ints, so
typed and object sketches of one sample encode alike and the format is
unchanged.  The way back is one pass too: a sketch's key buffer whose
keys are all ``b"i"``-tagged reads as an int64 array
(:meth:`_BlobReader.key_array`); any other key buffer — and every key
buffer read through :meth:`_BlobReader.array` — reads as Python objects.

The same layout carries **ingest frames** (kind ``event_batch``): the
header names the section namespaces in order and each ``part<i>`` buffer
is a nested ``event_section`` blob — raw numeric or tag-packed ``keys``
plus one ``<f8`` ``w<j>`` buffer per assignment.  Frames arrive from the
network, so :func:`decode_event_batch` checks the CRC and believes no
count the bytes cannot back.

The way back is the same container (kind ``bundle_batch``): a worker's
reply to one multi-slot ``GET /bundle``.  The header lists one
``[namespace, state, version]`` row per requested namespace, in request
order, and a ``bundle`` row's ``part<i>`` buffer is the nested
``sketch_bundle`` blob; ``unchanged`` and ``empty`` rows carry no bytes.
An optional one-element ``<f8`` ``lease_s`` buffer is the worker's lease:
the seconds for which it promises none of the frame's version tokens
moves except by a write the coordinator sends (a frame without it grants
none).  :func:`decode_bundle_batch` holds it to the same standard.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.core.summary import MultiAssignmentSummary
from repro.ranks.families import RankFamily, get_rank_family
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

    def add_keys(self, name: str, values: Sequence[Hashable]) -> None:
        """Store a sequence of key identifiers with the tagged packing."""
        values = list(values)
        self._append(
            name, _pack_keys(values), {"enc": "obj", "count": len(values)}
        )

    def add_scalars(self, name: str, values: Sequence[float]) -> None:
        """Store scalar floats as a raw f8 buffer (JSON cannot hold inf)."""
        self.add_array(name, np.array(values, dtype="<f8"))

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
    """Resolves named buffers of one decoded blob (zero-copy by default)."""

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
        try:
            header = json.loads(view[_HEADER_PREFIX.size : head_end].tobytes())
        except ValueError as err:  # bad JSON, or bytes that are not UTF-8
            raise CodecError(f"corrupt header JSON: {err}") from None
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
        self._data = data
        self.writable = writable
        if verify:
            payload = view[self._base :]
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise CodecError("payload checksum mismatch; blob is corrupt")

    def _slice(self, spec: dict[str, Any]) -> memoryview:
        offset, nbytes = spec.get("offset"), spec.get("nbytes")
        if (
            type(offset) is not int or type(nbytes) is not int
            or offset < 0 or nbytes < 0
        ):
            raise CodecError("buffer spec needs integer offset and nbytes")
        start = self._base + offset
        end = start + nbytes
        if end > len(self._view):
            raise CodecError("buffer extends past end of blob; truncated?")
        return self._view[start:end]

    def _spec(self, name: str, enc: str) -> dict[str, Any]:
        spec = self.arrays.get(name)
        if not isinstance(spec, dict):
            raise CodecError(f"blob is missing buffer {name!r}")
        if spec.get("enc") != enc:
            raise CodecError(
                f"buffer {name!r} has encoding {spec.get('enc')!r}, "
                f"expected {enc!r}"
            )
        return spec

    def has(self, name: str) -> bool:
        return name in self.arrays

    def array(self, name: str) -> np.ndarray:
        """A named array: zero-copy view for raw, rebuilt for tag-packed."""
        spec = self.arrays.get(name)
        if spec is None:
            raise CodecError(f"blob is missing buffer {name!r}")
        if spec["enc"] == "obj":
            ints = _tagged_ints(self._slice(spec), spec.get("count"))
            if ints is not None:
                return ints.astype(object)  # Python ints, as per key
            values = self.keys(name)
            out = np.empty(len(values), dtype=object)
            for pos, value in enumerate(values):
                out[pos] = value
            return out
        spec = self._spec(name, "raw")
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(
            self._slice(spec), dtype=dtype, count=count
        ).reshape(shape)
        return arr.copy() if self.writable else arr

    def key_array(self, name: str) -> np.ndarray:
        """A sketch's key column: :meth:`array`, except that a buffer of
        ``b"i"``-tagged keys only reads as one int64 array."""
        spec = self.arrays.get(name)
        if isinstance(spec, dict) and spec.get("enc") == "obj":
            ints = _tagged_ints(self._slice(spec), spec.get("count"))
            if ints is not None:
                return ints.copy()  # contiguous and aligned
        return self.array(name)

    def keys(self, name: str) -> list[Hashable]:
        spec = self._spec(name, "obj")
        return _unpack_keys(self._slice(spec), spec["count"])

    def vector(self, name: str) -> "np.ndarray | list[Hashable]":
        """A 1-D numeric array or key list from *untrusted* bytes.

        Unlike :meth:`array`, the header is not believed: the declared
        count must be exactly what the named bytes can hold, so a lying
        shape or a huge count is a :class:`CodecError` before anything
        is allocated for it.
        """
        spec = self.arrays.get(name)
        if not isinstance(spec, dict):
            raise CodecError(f"blob is missing buffer {name!r}")
        buf = self._slice(spec)
        enc = spec.get("enc")
        if enc == "obj":
            count = spec.get("count")
            # the shortest tagged key (a bool) takes two bytes
            if type(count) is not int or not 0 <= count <= len(buf) // 2:
                raise CodecError(
                    f"buffer {name!r} declares {count!r} keys in "
                    f"{len(buf)} bytes"
                )
            return _unpack_keys(buf, count)
        if enc != "raw":
            raise CodecError(f"buffer {name!r} has encoding {enc!r}")
        try:
            dtype = np.dtype(str(spec.get("dtype")))
        except (TypeError, ValueError):
            raise CodecError(
                f"buffer {name!r} has no usable dtype"
            ) from None
        shape = spec.get("shape")
        if (
            dtype.kind not in "biuf"
            or not isinstance(shape, list) or len(shape) != 1
            or type(shape[0]) is not int
            or shape[0] * dtype.itemsize != len(buf)
        ):
            raise CodecError(
                f"buffer {name!r}: dtype {dtype} and shape {shape!r} do "
                f"not describe its {len(buf)} bytes"
            )
        return np.frombuffer(buf, dtype=dtype)

    def scalars(self, name: str, count: int) -> tuple[float, ...]:
        arr = self.array(name)
        if arr.shape != (count,):
            raise CodecError(
                f"scalar buffer {name!r} has shape {arr.shape}, "
                f"expected ({count},)"
            )
        return tuple(float(v) for v in arr)

    def blob(self, name: str) -> memoryview:
        return self._slice(self._spec(name, "blob"))


# ---------------------------------------------------------------------------
# coordination metadata helpers
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# per-kind encoders
# ---------------------------------------------------------------------------


def _encode_bottomk_sketch(sk: BottomKSketch) -> bytes:
    writer = _BlobWriter("bottomk_sketch", {"k": sk.k})
    writer.add_key_column("keys", sk.keys)
    writer.add_array("ranks", np.asarray(sk.ranks, dtype="<f8"))
    writer.add_array("weights", np.asarray(sk.weights, dtype="<f8"))
    writer.add_scalars("scalars", [sk.kth_rank, sk.threshold])
    if sk.seeds is not None:
        writer.add_array("seeds", np.asarray(sk.seeds, dtype="<f8"))
    return writer.render()


def _decode_bottomk_sketch(reader: _BlobReader) -> BottomKSketch:
    kth_rank, threshold = reader.scalars("scalars", 2)
    return BottomKSketch(
        k=int(reader.meta["k"]),
        keys=reader.key_array("keys"),
        ranks=reader.array("ranks"),
        weights=reader.array("weights"),
        kth_rank=kth_rank,
        threshold=threshold,
        seeds=reader.array("seeds") if reader.has("seeds") else None,
    )


def _encode_poisson_sketch(sk: PoissonSketch) -> bytes:
    writer = _BlobWriter("poisson_sketch", {})
    writer.add_key_column("keys", sk.keys)
    writer.add_array("ranks", np.asarray(sk.ranks, dtype="<f8"))
    writer.add_array("weights", np.asarray(sk.weights, dtype="<f8"))
    writer.add_scalars("scalars", [sk.tau])
    if sk.seeds is not None:
        writer.add_array("seeds", np.asarray(sk.seeds, dtype="<f8"))
    return writer.render()


def _decode_poisson_sketch(reader: _BlobReader) -> PoissonSketch:
    (tau,) = reader.scalars("scalars", 1)
    return PoissonSketch(
        tau=tau,
        keys=reader.key_array("keys"),
        ranks=reader.array("ranks"),
        weights=reader.array("weights"),
        seeds=reader.array("seeds") if reader.has("seeds") else None,
    )


def _encode_summary(summary: MultiAssignmentSummary) -> bytes:
    writer = _BlobWriter(
        "summary",
        {
            "mode": summary.mode,
            "summary_kind": summary.kind,
            "assignments": list(summary.assignments),
            "k": summary.k,
            "method": summary.method_name,
            "consistent": bool(summary.consistent),
            "family": _family_name(summary.family),
        },
    )
    writer.add_array("positions", summary.positions)
    writer.add_array("member", np.asarray(summary.member, dtype="|b1"))
    writer.add_array("ranks", np.asarray(summary.ranks, dtype="<f8"))
    writer.add_array("weights", np.asarray(summary.weights, dtype="<f8"))
    writer.add_array("thresholds", np.asarray(summary.thresholds, dtype="<f8"))
    if summary.rank_k is not None:
        writer.add_array("rank_k", np.asarray(summary.rank_k, dtype="<f8"))
    if summary.rank_kplus1 is not None:
        writer.add_array(
            "rank_kplus1", np.asarray(summary.rank_kplus1, dtype="<f8")
        )
    if summary.seeds is not None:
        writer.add_array("seeds", np.asarray(summary.seeds, dtype="<f8"))
    if summary.keys is not None:
        writer.add_keys("union_keys", summary.keys)
    return writer.render()


def _decode_summary(reader: _BlobReader) -> MultiAssignmentSummary:
    meta = reader.meta
    return MultiAssignmentSummary(
        mode=meta["mode"],
        kind=meta["summary_kind"],
        assignments=list(meta["assignments"]),
        k=int(meta["k"]),
        positions=reader.array("positions"),
        member=reader.array("member"),
        ranks=reader.array("ranks"),
        weights=reader.array("weights"),
        thresholds=reader.array("thresholds"),
        rank_k=reader.array("rank_k") if reader.has("rank_k") else None,
        rank_kplus1=(
            reader.array("rank_kplus1") if reader.has("rank_kplus1") else None
        ),
        seeds=reader.array("seeds") if reader.has("seeds") else None,
        family=get_rank_family(meta["family"]),
        method_name=meta["method"],
        consistent=bool(meta["consistent"]),
        keys=reader.keys("union_keys") if reader.has("union_keys") else None,
    )


def _encode_bundle(bundle: SketchBundle) -> bytes:
    writer = _BlobWriter(
        "sketch_bundle",
        {
            "bundle_kind": bundle.kind,
            "family": _family_name(bundle.family),
            "salt": bundle.hasher_salt,
            "method": bundle.method_name,
            "names": bundle.assignments,
        },
    )
    for index, sk in enumerate(bundle.sketches.values()):
        writer.add_blob(f"part{index}", encode(sk))
    return writer.render()


def _decode_bundle(reader: _BlobReader) -> SketchBundle:
    meta = reader.meta
    sketches = {}
    for index, name in enumerate(meta["names"]):
        sketches[name] = decode(
            reader.blob(f"part{index}"), writable=reader.writable
        )
    salt = meta["salt"]
    return SketchBundle(
        kind=meta["bundle_kind"],
        sketches=sketches,
        family=get_rank_family(meta["family"]),
        hasher_salt=None if salt is None else int(salt),
        method_name=meta["method"],
    )


def _encode_checkpoint(cp: SummarizerCheckpoint) -> bytes:
    # ``layout[assignment]`` lists one chunk count per key-disjoint chunk
    # list ``s{j}``; a summarizer holds one list per assignment.
    writer = _BlobWriter(
        "checkpoint",
        {
            "k": cp.k,
            "assignments": list(cp.assignments),
            "family": _family_name(cp.family),
            "salt": cp.hasher_salt,
            "layout": [[len(cp.chunks[name])] for name in cp.assignments],
        },
    )
    for ai, name in enumerate(cp.assignments):
        for ci, (keys, weights) in enumerate(cp.chunks[name]):
            writer.add_array(f"a{ai}.s0.c{ci}.k", keys)
            writer.add_array(
                f"a{ai}.s0.c{ci}.w", np.asarray(weights, dtype="<f8")
            )
    return writer.render()


def _decode_checkpoint(reader: _BlobReader) -> SummarizerCheckpoint:
    meta = reader.meta
    assignments = list(meta["assignments"])
    layout = meta["layout"]
    if len(layout) != len(assignments):
        raise CodecError("checkpoint layout does not match assignments")
    chunks: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for ai, name in enumerate(assignments):
        # The lists of one assignment are key-disjoint, so reading them one
        # after another keeps every key's additions in arrival order.
        chunk_list = []
        for si, n_chunks in enumerate(layout[ai]):
            for ci in range(n_chunks):
                keys = reader.array(f"a{ai}.s{si}.c{ci}.k")
                weights = reader.array(f"a{ai}.s{si}.c{ci}.w")
                if len(keys) != len(weights):
                    raise CodecError(
                        f"chunk a{ai}.s{si}.c{ci} has {len(keys)} keys but "
                        f"{len(weights)} weights"
                    )
                chunk_list.append((keys, weights))
        chunks[name] = chunk_list
    return SummarizerCheckpoint(
        k=int(meta["k"]),
        assignments=assignments,
        family=get_rank_family(meta["family"]),
        hasher_salt=int(meta["salt"]),
        chunks=chunks,
    )


def encode_event_section(
    namespace: str, keys: np.ndarray, weights: "dict[str, np.ndarray]"
) -> bytes:
    """One namespace's ``(keys, weights)`` as an ingest-frame section.

    Numeric key arrays are stored raw; every other dtype is tag-packed
    value by value, so the receiver rebuilds its key array from the
    same Python values a JSON body would have carried.
    """
    writer = _BlobWriter(
        "event_section", {"namespace": namespace, "names": list(weights)}
    )
    if keys.dtype.kind in "biuf":
        writer.add_array("keys", keys)
    else:
        writer.add_keys("keys", keys.tolist())
    for index, values in enumerate(weights.values()):
        writer.add_array(f"w{index}", np.asarray(values, dtype="<f8"))
    return writer.render()


def encode_event_batch(
    sections: "Sequence[tuple[str, bytes]]", sync: bool = False
) -> bytes:
    """An ingest frame from ``(namespace, encoded section)`` pairs.

    Sections are nested as they are, so one encoded section can ride
    in several frames (one per replica) without being encoded again.
    """
    writer = _BlobWriter(
        "event_batch",
        {"namespaces": [name for name, _ in sections], "sync": bool(sync)},
    )
    for index, (_, blob) in enumerate(sections):
        writer.add_blob(f"part{index}", blob)
    return writer.render()


def _decode_event_section(reader: _BlobReader) -> EventSection:
    namespace, names = reader.meta.get("namespace"), reader.meta.get("names")
    if (
        not isinstance(namespace, str)
        or not isinstance(names, list)
        or not all(isinstance(name, str) for name in names)
        or len(set(names)) != len(names)
    ):
        raise CodecError(
            "event section needs a namespace and distinct assignment names"
        )
    keys = reader.vector("keys")
    weights = {}
    for index, name in enumerate(names):
        values = reader.vector(f"w{index}")
        if not isinstance(values, np.ndarray) or values.dtype != "<f8":
            raise CodecError(f"weights[{name!r}] must be a raw <f8 buffer")
        if len(values) != len(keys):
            raise CodecError(
                f"weights[{name!r}] has {len(values)} values for "
                f"{len(keys)} keys"
            )
        weights[name] = values
    return EventSection(namespace, keys, weights)


def _decode_event_batch(reader: _BlobReader) -> EventBatch:
    names, sync = reader.meta.get("namespaces"), reader.meta.get("sync")
    if (
        not isinstance(names, list) or not names
        or not all(isinstance(name, str) for name in names)
        or not isinstance(sync, bool)
    ):
        raise CodecError(
            "event batch needs at least one section namespace and a "
            "boolean sync flag"
        )
    if len(set(names)) != len(names):
        raise CodecError(f"duplicate section namespace in {names!r}")
    sections = []
    for index, name in enumerate(names):
        # the frame's checksum already covered the nested bytes
        part = _BlobReader(
            reader.blob(f"part{index}"), writable=False, verify=False
        )
        if part.kind != "event_section":
            raise CodecError(
                f"section {index} has kind {part.kind!r}, expected "
                "'event_section'"
            )
        section = _decode_event_section(part)
        if section.namespace != name:
            raise CodecError(
                f"section {index} is for {section.namespace!r}, the frame "
                f"header says {name!r}"
            )
        sections.append(section)
    return EventBatch(tuple(sections), sync)


def encode_bundle_batch(
    sections: "Sequence[tuple[str, str, str, bytes | None]]",
    lease_s: "float | None" = None,
) -> bytes:
    """A bundle frame from ``(namespace, state, version, blob)`` rows.

    ``blob`` is the namespace's already encoded :class:`SketchBundle`
    for state ``"bundle"`` (nested as it is) and ``None`` otherwise.
    ``lease_s`` (seconds, finite and >= 0) rides in a CRC-covered
    buffer; ``None`` grants no lease.
    """
    writer = _BlobWriter("bundle_batch", {
        "sections": [
            [name, state, version] for name, state, version, _ in sections
        ],
    })
    for index, (_, state, _, blob) in enumerate(sections):
        if (state == "bundle") != (blob is not None):
            raise CodecError(
                f"section {index}: state {state!r} "
                f"{'needs' if blob is None else 'carries no'} bundle bytes"
            )
        if blob is not None:
            writer.add_blob(f"part{index}", blob)
    if lease_s is not None:
        writer.add_scalars("lease_s", [lease_s])
    return writer.render()


def _decode_bundle_batch(reader: _BlobReader) -> BundleBatch:
    rows = reader.meta.get("sections")
    if not isinstance(rows, list) or not rows or not all(
        isinstance(row, list) and len(row) == 3
        and all(isinstance(field, str) for field in row)
        and row[1] in BUNDLE_STATES
        for row in rows
    ):
        raise CodecError(
            "bundle batch needs at least one [namespace, state, version] "
            f"section with a state in {BUNDLE_STATES}"
        )
    names = [row[0] for row in rows]
    if len(set(names)) != len(names):
        raise CodecError(f"duplicate section namespace in {names!r}")
    parts = {
        f"part{index}" for index, row in enumerate(rows) if row[1] == "bundle"
    }
    if set(reader.arrays) - {"lease_s"} != parts:
        raise CodecError(
            f"bundle batch carries buffers {sorted(reader.arrays)} but its "
            f"section states call for {sorted(parts)}"
        )
    lease_s = 0.0
    if "lease_s" in reader.arrays:
        lease = reader.vector("lease_s")
        if not (
            isinstance(lease, np.ndarray) and lease.dtype == np.dtype("<f8")
            and len(lease) == 1 and 0.0 <= lease[0] < np.inf
        ):
            raise CodecError(
                "bundle batch lease must be one finite, non-negative <f8, "
                f"got {list(lease)!r}"
            )
        lease_s = float(lease[0])
    sections = []
    for index, (name, state, version) in enumerate(rows):
        bundle = None
        if state == "bundle":
            # the frame's checksum already covered the nested bytes
            part = _BlobReader(
                reader.blob(f"part{index}"), writable=False, verify=False
            )
            if part.kind != "sketch_bundle":
                raise CodecError(
                    f"section {index} has kind {part.kind!r}, expected "
                    "'sketch_bundle'"
                )
            bundle = _decode_kind(part)
        sections.append(BundleSection(name, state, version, bundle))
    batch = BundleBatch(sections)
    batch.lease_s = lease_s
    return batch


_DECODERS: dict[str, Callable[[_BlobReader], Any]] = {
    "bottomk_sketch": _decode_bottomk_sketch,
    "poisson_sketch": _decode_poisson_sketch,
    "summary": _decode_summary,
    "sketch_bundle": _decode_bundle,
    "checkpoint": _decode_checkpoint,
    "event_section": _decode_event_section,
    "event_batch": _decode_event_batch,
    "bundle_batch": _decode_bundle_batch,
}


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def encode(obj) -> bytes:
    """Serialize a supported object to a self-describing binary blob.

    Deterministic: equal objects produce byte-identical blobs, which is
    what lets the golden-file test pin format v1 against drift.
    """
    if isinstance(obj, BottomKSketch):
        return _encode_bottomk_sketch(obj)
    if isinstance(obj, PoissonSketch):
        return _encode_poisson_sketch(obj)
    if isinstance(obj, MultiAssignmentSummary):
        return _encode_summary(obj)
    if isinstance(obj, SketchBundle):
        return _encode_bundle(obj)
    if isinstance(obj, SummarizerCheckpoint):
        return _encode_checkpoint(obj)
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


def _decode_kind(reader: _BlobReader):
    try:
        decoder = _DECODERS[reader.kind]
    except (KeyError, TypeError):
        raise CodecError(f"unknown blob kind {reader.kind!r}") from None
    try:
        return decoder(reader)
    except CodecError:
        raise
    except (ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError, struct.error) as err:
        # the per-kind decoders trust their headers; a lie in one must
        # surface as a typed error, wherever the bytes came from
        raise CodecError(
            f"{reader.kind} blob does not decode: {err!r}"
        ) from None


def decode_event_batch(data) -> EventBatch:
    """Decode an ingest frame received from the network (CRC-verified).

    Every way the bytes can be wrong — truncation, a bad checksum,
    header counts the buffers cannot hold, non-``<f8`` weights,
    duplicate or missing sections — raises :class:`CodecError`.
    """
    reader = _BlobReader(data, writable=False, verify=True)
    if reader.kind != "event_batch":
        raise CodecError(
            f"expected an event_batch frame, got kind {reader.kind!r}"
        )
    return _decode_event_batch(reader)


def event_batch_namespaces(data) -> tuple[str, ...]:
    """The section namespaces an ingest frame's header names (no payload
    read, no checksum): what slot-scoped fault rules match against."""
    reader = _BlobReader(data, writable=False, verify=False)
    names = reader.meta.get("namespaces")
    if reader.kind != "event_batch" or not isinstance(names, list):
        return ()
    return tuple(name for name in names if isinstance(name, str))


def decode_bundle_batch(
    data, expect: "Sequence[str] | None" = None
) -> BundleBatch:
    """Decode a worker's multi-slot bundle reply (CRC-verified), its
    sections and the lease it grants.

    ``expect`` is the namespaces the request named, in order: a reply
    that answers for anything else is refused.  Every way the bytes can
    be wrong — truncation, a bad checksum, a state without its bytes or
    bytes without their state, a nested blob that is not a decodable
    sketch bundle, a lease that is not one finite non-negative ``<f8`` —
    raises :class:`CodecError`.
    """
    reader = _BlobReader(data, writable=False, verify=True)
    if reader.kind != "bundle_batch":
        raise CodecError(
            f"expected a bundle_batch frame, got kind {reader.kind!r}"
        )
    sections = _decode_bundle_batch(reader)
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
