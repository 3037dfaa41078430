"""Persistent summary store: codec, registry, and the runtime tier.

The storage layer between the ingestion engine and the query
engine: :mod:`repro.store.codec` serializes sketches, summaries,
and checkpoints to a versioned zero-copy binary format;
:mod:`repro.store.store` keeps the resulting artifacts in a namespace- and
time-bucket-partitioned registry with one-transaction mutations and exact
merge-based rollups; :mod:`repro.store.runtime` is the WAL-mode SQLite
runtime tier beneath it (manifest and artifact bytes, persistent
query-result cache, cluster and repair journals).  The registry is the
one durable medium: a mid-stream
:class:`~repro.store.codec.SummarizerCheckpoint` is stored like any other
artifact and resumes ingestion bit-identically.  ``python -m repro.store``
exposes the write/ls/compact/export/query/stats workflow on the command
line.
"""

from repro.store.codec import (
    CodecError,
    SketchBundle,
    SummarizerCheckpoint,
    UnsupportedFormatError,
    decode,
    encode,
)
from repro.store.runtime import RUNTIME_FILENAME, RuntimeStore
from repro.store.store import (
    BUNDLE_KINDS,
    GRANULARITIES,
    StoreEntry,
    SummaryStore,
    bucket_bounds,
    bucket_for,
    bucket_granularity,
    coarsen_bucket,
)

__all__ = [
    "CodecError",
    "UnsupportedFormatError",
    "SketchBundle",
    "SummarizerCheckpoint",
    "encode",
    "decode",
    "BUNDLE_KINDS",
    "GRANULARITIES",
    "RUNTIME_FILENAME",
    "RuntimeStore",
    "StoreEntry",
    "SummaryStore",
    "bucket_bounds",
    "bucket_for",
    "bucket_granularity",
    "coarsen_bucket",
]
