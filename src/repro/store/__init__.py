"""Persistent summary store: codec, disk registry, and checkpoint/resume.

The storage layer between the ingestion engine and the query
engine: :mod:`repro.store.codec` serializes sketches, samplers, summaries,
and checkpoints to a versioned zero-copy binary format;
:mod:`repro.store.store` keeps the resulting artifacts in a namespace- and
time-bucket-partitioned registry with one-transaction mutations and exact
merge-based rollups; :mod:`repro.store.runtime` is the WAL-mode SQLite
runtime tier beneath it (manifest and artifact bytes, persistent
query-result cache, cluster and repair journals); :mod:`repro.store.checkpoint`
freezes and resumes ingestion bit-identically.  ``python -m repro.store``
exposes the write/ls/compact/export/query/stats workflow on the command
line.
"""

from repro.store.checkpoint import load_checkpoint, save_checkpoint
from repro.store.codec import (
    CodecError,
    SketchBundle,
    SummarizerCheckpoint,
    UnsupportedFormatError,
    decode,
    encode,
    read_file,
    write_file,
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
    "write_file",
    "read_file",
    "save_checkpoint",
    "load_checkpoint",
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
