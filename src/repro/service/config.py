"""Configuration for the always-on summarization service.

A :class:`ServiceConfig` describes one ``repro-serve`` daemon: where the
:class:`~repro.store.SummaryStore` lives, which namespaces it summarizes
(each a :class:`NamespaceConfig` naming the bottom-k size, weight
assignments, and coordination salt of that namespace's live
:class:`~repro.engine.ShardedSummarizer`), the HTTP bind address, and the
runtime knobs — live-window granularity, background compaction cadence,
ingest-queue depth.

Configs round-trip through JSON (:meth:`ServiceConfig.to_json` /
:meth:`ServiceConfig.from_json`), so ``repro-serve serve --config
service.json`` and programmatic construction describe identical daemons.
The coordination fields (``k``, ``salt``, ``family``) must stay fixed for
the life of a namespace: they are what keeps the live window, the stored
buckets, and any coordinated remote writers exactly mergeable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import ClassVar

from repro.store.store import GRANULARITIES

__all__ = [
    "MAX_BATCH_EVENTS", "DaemonConfig", "NamespaceConfig", "ServiceConfig",
]

#: default cap on the events of one ingest batch — a worker's
#: ``max_batch_events`` default, and what a coordinator (which cannot see
#: its workers' configs) holds a client batch to before routing it
MAX_BATCH_EVENTS = 100_000


@dataclass(frozen=True)
class NamespaceConfig:
    """Summarization parameters of one service namespace."""

    name: str
    assignments: tuple[str, ...]
    k: int = 256
    family: str = "ipps"
    salt: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(self.assignments))
        if not self.name:
            raise ValueError("namespace name must be non-empty")
        if not self.assignments:
            raise ValueError(
                f"namespace {self.name!r} needs at least one assignment"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def make_summarizer(self):
        """A fresh live-window summarizer with this namespace's coordination."""
        from repro.engine.sharded import ShardedSummarizer
        from repro.ranks.families import get_rank_family
        from repro.ranks.hashing import KeyHasher

        return ShardedSummarizer(
            k=self.k,
            assignments=list(self.assignments),
            family=get_rank_family(self.family),
            hasher=KeyHasher(self.salt),
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "assignments": list(self.assignments),
            "k": self.k,
            "family": self.family,
            "salt": self.salt,
        }

    @classmethod
    def from_json(cls, row: dict) -> "NamespaceConfig":
        unknown = set(row) - {"name", "assignments", "k", "family", "salt"}
        if unknown:
            # A typo'd coordination field must not fall back to its default.
            raise ValueError(
                f"unknown namespace config keys: "
                f"{', '.join(sorted(unknown))} (in-process sharding was "
                "removed: its shard-count and partition-salt keys can "
                "simply be deleted from the file, summaries never depended "
                "on them)"
            )
        return cls(
            name=row["name"],
            assignments=tuple(row["assignments"]),
            k=int(row.get("k", 256)),
            family=row.get("family", "ipps"),
            salt=int(row.get("salt", 0)),
        )


def unknown_namespace(name, known) -> str:
    """The one message for a namespace a daemon does not serve;
    ``known`` iterates the names it does."""
    return f"unknown namespace {name!r}; known: {', '.join(known)}"


class DaemonConfig:
    """What a daemon's config shares: namespaces, a port override, and
    the JSON and file round trips.  Subclasses are frozen dataclasses
    with ``namespaces`` and ``port`` fields, and set ``_kind`` (the
    config's name in errors) and ``_root_field`` (its state directory)."""

    _kind: ClassVar[str]
    _root_field: ClassVar[str]

    def _check_namespaces(self) -> None:
        """JSON rows become :class:`NamespaceConfig`; none or a repeated
        name is refused."""
        object.__setattr__(self, "namespaces", tuple(
            ns if isinstance(ns, NamespaceConfig)
            else NamespaceConfig.from_json(ns)
            for ns in self.namespaces
        ))
        names = [ns.name for ns in self.namespaces]
        if not names:
            raise ValueError(f"a {self._kind} needs at least one namespace")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate namespace names in {names!r}")

    def with_port(self, port: int):
        return replace(self, port=port)

    def to_json(self) -> dict:
        """The config's fields, in declaration order, as JSON."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["namespaces"] = [ns.to_json() for ns in self.namespaces]
        return payload

    @classmethod
    def from_json(cls, payload: dict):
        """Build from JSON; an unknown key is refused (a typo'd knob must
        not fall back to its default)."""
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown {cls._kind} config keys: "
                f"{', '.join(sorted(unknown))}"
            )
        if cls._root_field not in payload or "namespaces" not in payload:
            raise ValueError(
                f"{cls._kind} config needs {cls._root_field!r} and "
                "'namespaces'"
            )
        return cls(**payload)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")


@dataclass(frozen=True)
class ServiceConfig(DaemonConfig):
    """One ``repro-serve`` daemon: store, namespaces, bind, runtime knobs."""

    _kind = "service"
    _root_field = "store_root"

    store_root: str
    namespaces: tuple[NamespaceConfig, ...]
    host: str = "127.0.0.1"
    port: int = 8765
    #: live-window bucket granularity; windows rotate on these boundaries
    granularity: str = "minute"
    #: coarse granularity background compaction rolls buckets up to
    #: (``None`` disables compaction)
    compact_to: str | None = "hour"
    #: seconds between background compaction runs
    compact_every_s: float = 300.0
    #: seconds between rotation checks
    tick_s: float = 1.0
    #: max ingest batches queued before the server answers 429
    ingest_queue_batches: int = 64
    #: max events accepted in one ingest batch
    max_batch_events: int = MAX_BATCH_EVENTS
    #: metrics + tracing on/off (off: no spans, every /status count is 0)
    observability: bool = True
    #: optional JSONL file finished spans are appended to
    trace_log: str | None = None

    def __post_init__(self) -> None:
        self._check_namespaces()
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {self.granularity!r}; known: "
                f"{', '.join(GRANULARITIES)}"
            )
        if self.compact_to is not None and self.compact_to not in GRANULARITIES:
            raise ValueError(
                f"unknown compaction granularity {self.compact_to!r}; "
                f"known: {', '.join(GRANULARITIES)}"
            )
        if self.tick_s <= 0 or self.compact_every_s <= 0:
            raise ValueError("tick_s and compact_every_s must be positive")
        if self.ingest_queue_batches < 1:
            raise ValueError(
                f"ingest_queue_batches must be >= 1, got "
                f"{self.ingest_queue_batches}"
            )

    def namespace(self, name: str) -> NamespaceConfig:
        for ns in self.namespaces:
            if ns.name == name:
                return ns
        raise KeyError(
            unknown_namespace(name, (ns.name for ns in self.namespaces))
        )
