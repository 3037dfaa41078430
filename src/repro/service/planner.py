"""Query planning over a source's merged view.

:class:`QueryPlanner` answers service queries from what its **source**
reads for a selection — a namespace, optionally restricted to an
inclusive ``since``/``until`` bucket window — as a :class:`SourceView`:
sketch bundles in merge order and the version naming them.  It routes
the request through the vectorized :class:`~repro.engine.queries.
QueryEngine` merged from them, so an answer is bit-identical to an
offline engine run over the equivalently merged summaries.  A worker's
source is the planner itself: the stored partial (the exact merge of the
selected stored entries) with the live-window bundle on top.  The
coordinator's is the slot bundles its gather fetched; slots no owner
answered make the answer ``partial``, never cached.

Three caches sit in front of the work, each invalidated by its key — a
stale entry can never be served, because its key names a state that no
longer exists:

===============  ====================================  ==================
cache            key                                   invalidated by
===============  ====================================  ==================
engines          ``(namespace, since, until)``: one    the source's
(memory, 8       engine, replaced when the version     version moving
selections)      moves
stored partials  ``(namespace, bundle_rev, entry       ``bundle_rev`` only:
(LRU, memory)    paths)`` — ``store.bundle_version``   flush, rotation,
                                                       compaction, import,
                                                       remove — **not**
                                                       ingest
results          request signature + the full          every ingest,
(LRU, memory     version                               rotation and store
index over                                             mutation; survives
runtime.sqlite,                                        a clean restart.
written behind)                                        A SIGKILL loses
                                                       the rows put or
                                                       hit since the last
                                                       flush: recomputed,
                                                       never wrong
===============  ====================================  ==================

A query whose answer or engine is already in memory is answered by one
memo step (:meth:`QueryPlanner.answer_in_memory`): the result probe,
then the estimate on the memoized engine and the put.  A daemon runs it
on its event loop without waiting for a lock (a coordinator only inside
a lease on its last read); :meth:`QueryPlanner.answer`
runs the same step, waiting, before it reads the source.

The stored-partial memo is what a fresh query under ingest lives on: the
merge of the stored buckets is a pure function of the store's bundle
revision, so it is built once per revision and every later plan, window
and ``GET /bundle`` merges one cached :class:`StoredPartial` with the live
window.  Entries of a superseded revision are dropped on the next insert.
"""

from __future__ import annotations

import contextlib
import json
import math
import reprlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, repeat
from typing import Mapping, NamedTuple, Sequence

from repro.core.aggregates import FUNCTIONS, AggregationSpec
from repro.obs import default_tracer
from repro.core.predicates import key_in
from repro.engine.merge import disjoint_union, refuse_duplicates
from repro.engine.queries import ESTIMATORS, QueryEngine, jaccard_from_summary
from repro.service.config import unknown_namespace
from repro.service.jsonutil import sanitize_non_finite
from repro.service.temporal import decay_factor, parse_duration, resolve_windows
from repro.service.windows import LIVE_PART, LiveWindowManager
from repro.store.store import bucket_bounds

__all__ = [
    "QueryPlanner", "QuerySpec", "SourceView", "StoredPartial",
    "query_request_from_params", "view_bundles",
]

#: selections a planner keeps a merged engine for (LRU), one engine each
_MAX_CACHED_ENGINES = 8

_MEMO_LOOKUPS = "repro_partial_memo_lookups_total"


class _Busy(Exception):
    """A lock the non-blocking memo step needed was held elsewhere."""


@contextlib.contextmanager
def _held(lock, blocking: bool):
    """Hold ``lock``; without ``blocking``, raise :class:`_Busy` rather
    than wait for it."""
    if not lock.acquire(blocking):
        raise _Busy
    try:
        yield
    finally:
        lock.release()


def query_request_from_params(params: dict) -> dict:
    """A ``GET /query`` query string as the equivalent POST body.

    Comma-separated ``assignments`` and ``keys`` become lists; ``ell``
    and ``anchor`` become numbers where they parse — what does not parse
    stays a string, for :meth:`QuerySpec.parse` to refuse exactly as it
    refuses the POST form.  JSON bodies carry key types exactly; a query
    string cannot, so numeric-looking keys are folded to numbers —
    matching how JSON ingest delivers them.  Keys that are digit
    *strings* in the data must use ``POST /query``.
    """
    def number(raw: str, *types):
        for cast in types:
            with contextlib.suppress(ValueError):
                return cast(raw)
        return raw

    request = dict(params)
    for field in ("assignments", "keys"):
        if field in request:
            request[field] = [p for p in request[field].split(",") if p]
    if "keys" in request:
        request["keys"] = [number(key, int, float) for key in request["keys"]]
    if "ell" in request:
        request["ell"] = number(request["ell"], int)
    if "anchor" in request:
        request["anchor"] = number(request["anchor"], float)
    return request


def _scalar_list(request: dict, field: str, types, what: str):
    """``request[field]`` as a tuple of ``types`` scalars, or ``None``.

    A bare string is refused, not iterated: ``"keys": "k1"`` would
    otherwise select the keys ``"k"`` and ``"1"``.
    """
    value = request.get(field)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(
        map(isinstance, value, repeat(types))
    ):
        raise ValueError(
            f"{field!r} must be a list of {what}, got {reprlib.repr(value)}"
        )
    return tuple(value)


def _bucket_id(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"not a bucket id string: {value!r}")
    bucket_bounds(value)
    return value


def _choice(request: dict, field: str, choices, default=None) -> str:
    value = request.get(field)
    value = default if value is None else value
    if value not in choices:
        raise ValueError(
            f"unknown {field} {value!r}; known: {', '.join(choices)}"
        )
    return value


@dataclass(frozen=True)
class QuerySpec:
    """One validated ``/query`` request — the service's query grammar.

    :meth:`parse` is the only code that reads a query body, so the
    worker, its continuous-query registrations and the coordinator
    refuse the same requests with the same message; the spec also names
    its result-cache row (:meth:`cache_key`) and shapes its answer from
    an engine (:meth:`answer`).
    """

    namespace: str
    kind: str  # "estimate" | "jaccard"
    names: tuple
    function: "str | None" = None  # estimate only
    estimator: str = "auto"
    ell: "int | None" = None
    keys: "tuple | None" = None
    variant: str = "l"  # jaccard only
    since: "str | None" = None
    until: "str | None" = None
    window_s: "float | None" = None
    step_s: "float | None" = None
    decay_s: "float | None" = None
    anchor: "float | None" = None

    @classmethod
    def parse(cls, request: dict, configs: Mapping) -> "QuerySpec":
        """Validate a query body against the daemon's namespace configs.

        ``ValueError`` (a 400) names the offending field and the form it
        accepts; an unknown namespace or assignment is a ``KeyError``
        (a 404) listing the known ones.  A field that is ``None`` is
        absent.
        """
        namespace = request.get("namespace")
        if not namespace or not isinstance(namespace, str):
            raise ValueError("query needs a 'namespace'")
        if namespace not in configs:
            raise KeyError(unknown_namespace(namespace, configs))
        kind = _choice(request, "kind", ("estimate", "jaccard"), "estimate")
        names = _scalar_list(request, "assignments", str, "assignment names")
        if not names:
            raise ValueError(
                "query needs 'assignments': a non-empty list of names"
            )
        known = configs[namespace].assignments
        for name in names:
            if name not in known:
                raise KeyError(
                    f"unknown assignment {name!r} for namespace "
                    f"{namespace!r}; known: {', '.join(known)}"
                )
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate assignment names in {list(names)!r}; a query "
                "is over distinct assignments"
            )
        if kind == "jaccard" and len(names) < 2:
            raise ValueError(
                "a jaccard query needs at least two assignments"
            )
        fields = {"namespace": namespace, "kind": kind, "names": names}
        for field, name, check in (
            ("since", "since", _bucket_id), ("until", "until", _bucket_id),
            ("window", "window_s", parse_duration),
            ("step", "step_s", parse_duration),
            ("decay", "decay_s", parse_duration),
        ):
            if request.get(field) is not None:
                try:
                    fields[name] = check(request[field])
                except ValueError as err:
                    raise ValueError(f"{field!r}: {err}") from None
        if kind == "jaccard":
            for field in ("keys", "ell", "window", "step", "decay", "anchor"):
                if request.get(field) is not None:
                    raise ValueError(
                        f"{field!r} is not supported for jaccard queries"
                    )
            return cls(
                **fields, variant=_choice(request, "variant", ("s", "l"), "l")
            )
        fields["function"] = _choice(request, "function", FUNCTIONS)
        fields["estimator"] = _choice(
            request, "estimator", ESTIMATORS, "auto"
        )
        ell = request.get("ell")
        if ell is not None and not (
            type(ell) is int and 1 <= ell <= len(names)
        ):
            raise ValueError(
                f"'ell' must be an integer in 1..{len(names)} (the number "
                f"of assignments), got {ell!r}"
            )
        if "window_s" in fields:
            fields.setdefault("step_s", fields["window_s"])
        elif "step_s" in fields:
            raise ValueError(
                "'step' only applies to windowed queries; pass 'window' too"
            )
        anchor = request.get("anchor")
        if anchor is not None:
            if type(anchor) not in (int, float) or not math.isfinite(anchor):
                raise ValueError(
                    "'anchor' must be a finite number (POSIX seconds), "
                    f"got {anchor!r}"
                )
            if "window_s" not in fields and "decay_s" not in fields:
                raise ValueError(
                    "'anchor' only applies with 'window' or 'decay'"
                )
            fields["anchor"] = float(anchor)
        spec = cls(**fields, ell=ell, keys=_scalar_list(
            request, "keys", (str, int, float),
            "strings or numbers (no null/objects)",
        ))
        spec.aggregation  # noqa: B018 - e.g. 'single' over two names: a 400
        return spec

    @property
    def temporal(self) -> bool:
        """Needs per-bucket partials (windowed or time-decayed)."""
        return self.window_s is not None or self.decay_s is not None

    @cached_property
    def aggregation(self) -> AggregationSpec:
        return AggregationSpec(self.function, self.names, ell=self.ell)

    @cached_property
    def predicate(self):
        return None if self.keys is None else key_in(self.keys)

    @cached_property
    def _key_sel(self):
        # a repeated key selects no new row, so it names no new cache row
        return None if self.keys is None else sorted(set(map(repr, self.keys)))

    def cache_key(self, version: str, prefix: str = "", anchor=None) -> str:
        """The result-cache row of this query at data ``version``.

        Compact JSON — stable across processes and restarts (unlike
        ``hash()``), which is what makes persistent hits work; the field
        order is frozen, rows written by earlier releases still hit.
        ``anchor`` (temporal queries) is the anchor as resolved against
        the data span.
        """
        head = [self.namespace, version, self.since, self.until]
        if self.kind == "jaccard":
            fields = [prefix + "jaccard", *head, self.names, self.variant]
        else:
            windowed = self.window_s is not None
            fields = [
                prefix + ("window_series" if windowed else "estimate"),
                *head, self.function, self.names, self.estimator, self.ell,
                self._key_sel,
            ]
            if windowed:
                fields += [self.window_s, self.step_s, self.decay_s, anchor]
            elif self.decay_s is not None:
                fields += [self.decay_s, anchor]
        return json.dumps(fields, separators=(",", ":"))

    def answer(self, engine: QueryEngine) -> dict:
        """The query's own answer fields, evaluated on ``engine``."""
        shaped = {"assignments": list(self.names)}
        if self.kind == "jaccard":
            shaped["estimate"] = jaccard_from_summary(
                engine.summary, self.names, self.variant
            )
            shaped["estimator"] = f"jaccard-{self.variant}"
            return shaped
        shaped["function"] = self.function
        shaped["estimate"] = engine.estimate(
            self.aggregation, estimator=self.estimator,
            predicate=self.predicate,
        )
        shaped["estimator"] = self.estimator
        if self.estimator == "auto":
            shaped["estimator"] = engine.default_estimator(self.aggregation)
        return shaped


@dataclass(frozen=True)
class StoredPartial:
    """The exact merge of some stored entries — one memo value.

    ``sample_keys`` keeps, per assignment, every key any part sampled, as
    :func:`~repro.engine.merge.disjoint_union` holds them (one sorted
    int64 array for integer keys, a set for generic ones): a superset of
    the merged sketches' keys, because a merge drops all but the k
    smallest ranks.  A later merge checks against it, so a key that
    recurs in a part still raises the merges' duplicate-key
    ``ValueError`` even when an earlier merge no longer carries it.
    """

    bundle: object  # SketchBundle, parts merged in entry order
    sample_keys: dict
    entries: int

    @classmethod
    def leaf(cls, bundle) -> "StoredPartial":
        return cls(bundle, {
            name: disjoint_union([sk.keys])
            for name, sk in bundle.sketches.items()
        }, 1)

    @classmethod
    def merged(cls, parts: "Sequence[StoredPartial]") -> "StoredPartial":
        # the unions are the duplicate-key check, built once and kept
        sample_keys = {
            name: disjoint_union([
                part.sample_keys[name]
                for part in parts if name in part.sample_keys
            ])
            for name in dict.fromkeys(n for p in parts for n in p.sample_keys)
        }
        bundle = parts[0].bundle.merge(
            *(part.bundle for part in parts[1:]), disjoint=True
        )
        return cls(bundle, sample_keys, sum(part.entries for part in parts))

    def refuse_duplicates(self, live) -> None:
        """Raise if the live bundle sampled a key a stored part sampled."""
        for name, sketch in live.sketches.items():
            if name in self.sample_keys:
                refuse_duplicates(self.sample_keys[name], sketch.keys)


def view_bundles(stored: "StoredPartial | None", live) -> list:
    """The view's bundles in merge order (stored first, the live window
    last), refused if they share a sample key; empty when both are absent."""
    bundles = [] if stored is None else [stored.bundle]
    if live is not None:
        if stored is not None:
            stored.refuse_duplicates(live)
        bundles.append(live)
    return bundles


class SourceView(NamedTuple):
    """What a planner's source read for one selection: the version naming
    it, bundles in merge order, the counts the answer reports (a
    ``union_keys`` entry is filled in from the engine), the slots no
    owner answered (``None``: a source that cannot miss one) and whether
    the source already refused bundles sharing a sample key."""

    version: str
    bundles: list
    sources: dict
    missing: "list | None" = None
    disjoint: bool = False


class _Snapshot(NamedTuple):
    """One consistent read of a namespace under the manager lock."""

    version: str
    bundle_rev: str
    entries: list  # stored entries, the live window's own flush masked
    live: object  # the live bundle; None when empty or out of the window
    live_bucket: str
    live_events: int


class QueryPlanner:
    """Query answering over a source's merged view behind version-keyed
    caches.

    Over a worker's ``manager`` the planner is its own source and counts
    in the manager's registry (``metrics`` overrides it).  A ``source``
    has the ``configs``, ``runtime``, ``cache_prefix``,
    :meth:`current_version` and :meth:`read` a worker's planner has.
    """

    cache_prefix = ""  # the worker source's result-cache keys

    #: :attr:`stats` key -> the registry series that counts it
    stats_series = {
        "hits": ("repro_result_cache_lookups_total", {"outcome": "hit"}),
        "misses": ("repro_result_cache_lookups_total", {"outcome": "miss"}),
        "engine_builds": "repro_engine_build_seconds",
        "partial_hits": (_MEMO_LOOKUPS, {"outcome": "hit"}),
        "partial_builds": (_MEMO_LOOKUPS, {"outcome": "build"}),
        "window_queries": "repro_window_queries_total",
    }

    def __init__(
        self,
        manager: "LiveWindowManager | None" = None,
        max_cached_partials: int = 128,
        metrics=None,
        tracer=None,
        source=None,
    ) -> None:
        self.manager = manager
        if source is None:
            self.configs, self.runtime = manager.configs, manager.store.runtime
            source = self
        self.source = source
        self._metrics = metrics if metrics is not None else manager.metrics
        self._tracer = tracer if tracer is not None else default_tracer()
        self._plan_seconds = self._metrics.histogram(
            "repro_query_plan_seconds",
            "Merged-engine planning latency in seconds (cache hits "
            "included).",
            labelnames=("namespace",),
        )
        self._engine_build_seconds = self._metrics.histogram(
            "repro_engine_build_seconds",
            "Latency of building a merged QueryEngine on a cache miss.",
        )
        self._engine_hits = self._metrics.counter(
            "repro_engine_memo_hits_total",
            "Answers estimated on a memoized merged engine.",
        )
        self._result_cache_lookups = self._metrics.counter(
            "repro_result_cache_lookups_total",
            "Persistent result-cache probes, by outcome.",
            labelnames=("outcome",),
        )
        self._partial_lookups = self._metrics.counter(
            "repro_stored_partial_lookups_total",
            "Stored-side memo lookups of a query view, by outcome (hit, "
            "build).",
            labelnames=("outcome",),
        )
        self._memo_lookups = self._metrics.counter(
            _MEMO_LOOKUPS, "Stored-partial memo probes (a view's, and each "
            "bucket's of a multi-bucket selection), by outcome.",
            labelnames=("outcome",),
        )
        self._window_queries = self._metrics.counter(
            "repro_window_queries_total", "Window-series answers computed."
        )
        self.max_cached_partials = max(1, max_cached_partials)
        #: (namespace, since, until) -> (version, engine, sources,
        #: missing)
        self._engines: OrderedDict[tuple, tuple] = OrderedDict()
        # (namespace, bundle_rev, entry paths) -> StoredPartial, and the
        # revision each namespace's memo entries belong to
        self._partials: OrderedDict[tuple, StoredPartial] = OrderedDict()
        self._partial_revs: dict[str, str] = {}
        self._runtime = source.runtime
        # Serializes planner cache mutation and engine kernel runs among
        # query threads.  Deliberately NOT the manager's lock: ingestion
        # only contends with the short snapshot, never with kernel
        # computation.
        self._lock = threading.RLock()
        #: live read-only counts, each read from its registry series
        self.stats = self._metrics.counts(self.stats_series)

    # -- planning -------------------------------------------------------------

    def _memoized(self, selection: tuple, version: str) -> "tuple | None":
        """The memo's ``(engine, sources, missing)`` for ``selection`` at
        ``version``, or ``None`` (planner lock held)."""
        memo = self._engines.get(selection)
        if memo is None or memo[0] != version:
            return None
        self._engines.move_to_end(selection)
        return memo[1:]

    def _engine(self, selection: tuple, view: SourceView) -> tuple:
        """``(engine, sources)`` over ``view``: the memoized one at its
        version, else built outside the lock and put in its place;
        ``(None, sources)`` for a view without bundles."""
        if not view.bundles:
            return None, view.sources
        with self._lock:
            memo = self._memoized(selection, view.version)
            if memo is not None:
                self._engine_hits.inc()
                return memo[:2]
        build_started = time.perf_counter()
        with self._tracer.span(
            "engine-build", namespace=selection[0], bundles=len(view.bundles)
        ):
            engine = QueryEngine.from_bundles(
                view.bundles, disjoint=view.disjoint
            )
        self._engine_build_seconds.observe(time.perf_counter() - build_started)
        sources = view.sources
        if "union_keys" in sources:
            sources = {**sources, "union_keys": engine.summary.n_union}
        with self._lock:
            memo = self._memoized(selection, view.version)
            if memo is not None:
                return memo[:2]
            self._engines[selection] = (
                view.version, engine, sources, view.missing
            )
            self._engines.move_to_end(selection)
            while len(self._engines) > _MAX_CACHED_ENGINES:
                self._engines.popitem(last=False)
        return engine, sources

    def forget_engines(self) -> None:
        """Drop the memoized engines: a source's tokens may repeat."""
        with self._lock:
            self._engines.clear()

    @staticmethod
    def _live_in_window(
        bucket: str, since: str | None, until: str | None
    ) -> bool:
        if since is None and until is None:
            return True
        lo, hi = bucket_bounds(bucket)
        if since is not None and hi <= bucket_bounds(since)[0]:
            return False
        if until is not None and lo >= bucket_bounds(until)[1]:
            return False
        return True

    def _snapshot(
        self, namespace: str, since: str | None, until: str | None
    ) -> _Snapshot:
        """Version, entry selection and live bundle, read together.

        Everything downstream is consistent with the one returned
        version.  The manager lock is held for this read only — never
        across disk loads, merges or engine builds — and never together
        with the planner lock.
        """
        manager = self.manager
        with manager.lock:
            version = manager.version(namespace)  # KeyError when unknown
            entries = manager.store.bundle_entries(
                namespace, since=since, until=until
            )
            window = manager._window(namespace)
            if window.events:
                # The live view supersedes the window's own flush
                # artifact (same events, published for crash durability):
                # serving both would double-count every key.
                entries = [
                    entry
                    for entry in entries
                    if not (
                        entry.bucket == window.bucket
                        and entry.part == LIVE_PART
                    )
                ]
            live, live_events = None, 0
            if self._live_in_window(window.bucket, since, until):
                _bucket, live_events, live = manager.live_view(namespace)
            return _Snapshot(
                version, manager.store.bundle_version(namespace), entries,
                live, window.bucket, live_events,
            )

    def _stable(self, namespace: str, attempt):
        """``attempt()``, re-run while the store moves under it.

        A mid-build ``FileNotFoundError`` means the store mutated the
        snapshotted artifacts away (moving the version with them); the
        attempt takes a fresh snapshot and tries again.
        """
        for _attempt in range(8):
            try:
                return attempt()
            except FileNotFoundError:
                continue
        raise RuntimeError(
            f"could not plan a stable view of namespace {namespace!r}: the "
            "store kept mutating the selected artifacts away between "
            "snapshot and load"
        )

    @staticmethod
    def _no_data(namespace, since, until) -> LookupError:
        window = f" in window [{since or '-'}, {until or '-'}]"
        return LookupError(
            f"no data for namespace {namespace!r}"
            + (window if since or until else "")
        )

    def _stored_partial(
        self, namespace: str, bundle_rev: str, entries: list
    ) -> tuple:
        """``(partial, outcome)``: the exact merge of ``entries``, memoized
        per bundle revision; ``outcome`` is ``"hit"`` or ``"build"``.

        A bucket's partial is the merge of its entries, each loaded from
        the store; a selection's is the merge of its buckets' partials
        (consecutive same-bucket runs, so parts stay in entry order) —
        both under the one key shape, so overlapping selections and
        sliding windows share the buckets they cover.  Loads and merges
        run outside the planner lock; a ``FileNotFoundError`` propagates
        so the caller re-snapshots.
        """
        key = (
            namespace, bundle_rev,
            tuple((entry.bucket, entry.part) for entry in entries),
        )
        partial, outcome = self._partial_get(key), "hit"
        if partial is None:
            runs = [
                list(run) for _bucket, run in
                groupby(entries, key=lambda entry: entry.bucket)
            ]
            if len(runs) == 1:
                parts = [
                    StoredPartial.leaf(self.manager.store.load(entry))
                    for entry in entries
                ]
            else:
                parts = [
                    self._stored_partial(namespace, bundle_rev, run)[0]
                    for run in runs
                ]
            partial, outcome = self._partial_put(
                key,
                parts[0] if len(parts) == 1 else StoredPartial.merged(parts),
            )
        return partial, outcome

    def _partial_get(self, key: tuple) -> "StoredPartial | None":
        with self._lock:
            partial = self._partials.get(key)
            if partial is not None:
                self._partials.move_to_end(key)
                self._memo_lookups.inc(outcome="hit")
            return partial

    def _partial_put(self, key: tuple, partial: StoredPartial) -> tuple:
        """Insert unless a concurrent build won: ``(cached, outcome)``."""
        namespace, bundle_rev = key[0], key[1]
        with self._lock:
            cached = self._partial_get(key)
            if cached is not None:
                return cached, "hit"
            self._memo_lookups.inc(outcome="build")
            # a build that outlived its revision can never hit: not kept
            if bundle_rev == self.manager.store.bundle_version(namespace):
                if self._partial_revs.get(namespace) != bundle_rev:
                    self._partial_revs[namespace] = bundle_rev
                    for stale in [
                        k for k in self._partials
                        if k[0] == namespace and k[1] != bundle_rev
                    ]:
                        del self._partials[stale]
                self._partials[key] = partial
                while len(self._partials) > self.max_cached_partials:
                    self._partials.popitem(last=False)
            return partial, "build"

    def view(
        self,
        namespace: str,
        since: str | None = None,
        until: str | None = None,
    ) -> tuple:
        """``(stored, live, version, sources)`` of one consistent snapshot.

        ``stored`` is the selection's :class:`StoredPartial` (``None``
        without stored entries), ``live`` the live-window bundle (``None``
        when empty or outside the window); :func:`view_bundles` puts them
        in merge order.  ``sources`` counts the stored *entries* and live
        events behind them.  What :meth:`read` serves a query from and
        the worker's ``GET /bundle`` encodes.
        """
        def attempt():
            snap = self._snapshot(namespace, since, until)
            stored = None
            if snap.entries:
                with self._tracer.span(
                    "stored-partial", entries=len(snap.entries)
                ) as span:
                    stored, outcome = self._stored_partial(
                        namespace, snap.bundle_rev, snap.entries
                    )
                    span.annotate(outcome=outcome)
                self._partial_lookups.inc(outcome=outcome)
            return stored, snap.live, snap.version, {
                "stored_entries": len(snap.entries),
                "live_events": snap.live_events,
            }

        return self._stable(namespace, attempt)

    def current_version(self, namespace: str, blocking: bool = True) -> str:
        """The worker source's version, read before any view: a memo
        step can answer without one.  ``KeyError`` when unknown."""
        with _held(self.manager.lock, blocking):
            return self.manager.version(namespace)

    def read(self, namespace: str, since=None, until=None) -> SourceView:
        """The worker source: :meth:`view` in merge order, refused if its
        parts share a sample key; ``LookupError`` when it holds no data."""
        stored, live, version, sources = self.view(namespace, since, until)
        bundles = view_bundles(stored, live)
        if not bundles:
            raise self._no_data(namespace, since, until)
        sources["union_keys"] = None
        return SourceView(version, bundles, sources, disjoint=True)

    # -- temporal planning ----------------------------------------------------

    def _temporal_snapshot(self, namespace, since, until) -> tuple:
        """``(frame, data span)``; a frame is ``(snapshot, entries by
        bucket, bucket bounds)`` — what :meth:`_span_answer` selects from."""
        snap = self._snapshot(namespace, since, until)
        by_bucket: dict[str, list] = {}
        for entry in snap.entries:
            by_bucket.setdefault(entry.bucket, []).append(entry)
        bounds = {bucket: bucket_bounds(bucket) for bucket in by_bucket}
        spans = list(bounds.values())
        if snap.live is not None:
            spans.append(bucket_bounds(snap.live_bucket))
        if not spans:
            raise self._no_data(namespace, since, until)
        span = min(lo for lo, _hi in spans), max(hi for _lo, hi in spans)
        return (snap, by_bucket, bounds), span

    def _span_answer(
        self, spec: QuerySpec, frame, span_lo, span_hi, anchor
    ) -> "dict | None":
        """Decay-scaled estimate over one half-open time span.

        Selects the frame's buckets whose :func:`bucket_bounds` span
        intersects ``[span_lo, span_hi)``, scales each bucket's stored
        partial by its decay factor (age measured from the bucket start
        to ``anchor``), merges, builds the engine and evaluates:
        ``{"estimate", "estimator", "sources"}``, or ``None`` for a span
        with no data.
        """
        snap, by_bucket, bounds = frame

        def overlaps(lo, hi) -> bool:
            return not (hi <= span_lo or lo >= span_hi)

        def scale(start) -> float:
            if spec.decay_s is None:
                return 1.0
            return decay_factor(start, anchor, spec.decay_s)

        live = snap.live
        if live is not None:
            live_lo, live_hi = bucket_bounds(snap.live_bucket)
            if not overlaps(live_lo, live_hi):
                live = None
        bundles = []
        scales = []
        n_entries = 0
        for bucket in sorted(by_bucket):
            if not overlaps(*bounds[bucket]):
                continue
            partial, _outcome = self._stored_partial(
                spec.namespace, snap.bundle_rev, by_bucket[bucket]
            )
            if live is not None:
                partial.refuse_duplicates(live)
            bundles.append(partial.bundle)
            scales.append(scale(bounds[bucket][0]))
            n_entries += partial.entries
        if live is not None:
            bundles.append(live)
            scales.append(scale(live_lo))
        if not bundles:
            return None
        engine = QueryEngine.from_bundles(bundles, scales=scales)
        answer = spec.answer(engine)
        return {
            "estimate": answer["estimate"],
            "estimator": answer["estimator"],
            "sources": {
                "stored_entries": n_entries,
                "live_events": snap.live_events if live is not None else 0,
                "union_keys": engine.summary.n_union,
            },
        }

    def _temporal(self, spec: QuerySpec) -> dict:
        """A window series, or one time-decayed estimate of the whole
        selected span (see :meth:`window_series`, :meth:`estimate`).

        Same merged view as :meth:`read`, but each bucket's partial is
        scaled by its decay factor before the merge.  A decayed
        estimate's anchor defaults to the end of the selected data span
        (deterministic — no wall clock), a window's is its own end; the
        resolved anchor is part of the cache key.
        """
        namespace, windowed = spec.namespace, spec.window_s is not None

        def attempt() -> dict:
            frame, span = self._temporal_snapshot(
                namespace, spec.since, spec.until
            )
            version, anchor = frame[0].version, spec.anchor
            if anchor is None and not windowed:
                anchor = span[1].timestamp()
            cache_key = spec.cache_key(version, anchor=anchor)
            hit = self._probe(cache_key)
            if hit is not None:
                return hit
            result = {
                "function": spec.function, "assignments": list(spec.names),
                "namespace": namespace, "version": version,
                "decay_s": spec.decay_s,
            }
            if windowed:
                rows = []
                result["estimator"] = spec.estimator
                for w_lo, w_hi in resolve_windows(
                    *span, spec.window_s, spec.step_s, anchor
                ):
                    answer = self._span_answer(spec, frame, w_lo, w_hi, w_hi)
                    if answer is None:
                        answer = {"estimate": None, "empty": True}
                    else:
                        result["estimator"] = answer.pop("estimator")
                    rows.append({
                        "start": w_lo.isoformat(), "end": w_hi.isoformat(),
                        **answer,
                    })
                self._window_queries.inc()
                result.update(
                    windows=rows, window_s=spec.window_s, step_s=spec.step_s
                )
            else:
                result.update(
                    self._span_answer(spec, frame, *span, anchor),
                    anchor=anchor,
                )
            return self._put(cache_key, namespace, version, result)

        return self._stable(namespace, attempt)

    # -- answering ------------------------------------------------------------

    def _probe(self, key: str) -> dict | None:
        """Result-cache probe; counts a hit, returns ``None`` on miss."""
        with self._tracer.span("cache-probe") as span:
            hit = self._runtime.cache_get(key)
            span.annotate(outcome="miss" if hit is None else "hit")
        if hit is None:
            return None
        self._result_cache_lookups.inc(outcome="hit")
        return {**hit, "cached": True}

    def _put(
        self, key: str, namespace: str, version: str, result: dict,
        blocking: bool = True,
    ) -> dict:
        """Cache one computed answer and count the miss it answered."""
        # Sanitize *before* caching: the cache row and the wire carry
        # the same RFC 8259-strict form (non-finite floats as null +
        # "non_finite" markers), so a replayed answer is byte-identical
        # to the first serving.
        result = sanitize_non_finite(result)
        with _held(self._runtime.cache_lock, blocking):
            self._runtime.cache_put(key, namespace, version, result)
        self._result_cache_lookups.inc(outcome="miss")
        return {**result, "cached": False}

    def _evaluate(
        self, spec: QuerySpec, key: str, version: str, engine, sources,
        blocking: bool = True, missing: "list | None" = None,
    ) -> dict:
        """Estimate on ``engine`` (``None``: no data) and put the answer,
        unless ``missing`` slots make it ``partial`` (planner lock held)."""
        if engine is None:
            answer = {"estimate": None, "empty": True}
        else:
            with self._tracer.span("estimate"):
                answer = spec.answer(engine)
        result = {
            **answer, "namespace": spec.namespace, "version": version,
            "sources": sources,
        }
        if missing is not None:
            result["partial"] = bool(missing)
        if missing:
            # Loud, never cached nor counted as a miss: the answer covers
            # only the slots that responded, so it may change the
            # instant a worker returns.
            result = sanitize_non_finite(result)
            return {**result, "missing_slots": missing, "cached": False}
        return self._put(key, spec.namespace, version, result, blocking)

    def _from_memory(
        self, spec: QuerySpec, blocking: bool = True,
        max_work: "int | None" = None,
    ) -> tuple:
        """The memo step: ``(answer | None, version | None)``.

        Probes the result cache at the source's current version, then
        the engine memo; an engine hit is evaluated and put, unless its
        union rows plus the predicate's keys exceed ``max_work``.
        ``None`` means the caller must read the source — always, while
        the source names no current version (a coordinator outside a
        lease).  An engine memoized from a view keeps its ``missing``
        slots, so the answer is shaped as that view's was.  Without
        ``blocking`` a busy lock raises :class:`_Busy`.  Locks are taken
        one at a time (manager, then the cache's, then planner → cache),
        never the manager's together with the planner's.
        """
        version = self.source.current_version(spec.namespace, blocking)
        if version is None:
            return None, None
        key = spec.cache_key(version, self.source.cache_prefix)
        with _held(self._runtime.cache_lock, blocking):
            hit = self._probe(key)
        if hit is not None:
            return hit, version
        with _held(self._lock, blocking):
            memo = self._memoized(
                (spec.namespace, spec.since, spec.until), version
            )
            if memo is None or max_work is not None and (
                memo[0].summary.n_union + len(spec.keys or ()) > max_work
            ):
                return None, version
            engine, sources, missing = memo
            self._engine_hits.inc()
            return self._evaluate(
                spec, key, version, engine, sources, blocking, missing
            ), version

    def answer_in_memory(self, spec: QuerySpec, max_work: int) -> dict | None:
        """:meth:`answer` when the memo step alone answers it, without
        waiting for any lock; else ``None``.

        For a daemon's event loop: it runs no SQL and never reads the
        source, merges or builds.  ``None`` for a temporal spec, a memo
        miss, a busy lock, a source that names no current version, or an
        estimate over more than ``max_work`` union rows plus
        predicate keys.  The answer is the one :meth:`answer` gives.
        """
        if spec.temporal:
            return None
        with contextlib.suppress(_Busy):
            return self._from_memory(spec, False, max_work)[0]
        return None

    def _served(self, spec: QuerySpec) -> dict:
        """The memo step, waiting for its locks; on a miss, :meth:`plan`."""
        answer, seen = self._from_memory(spec)
        return self.plan(spec, seen) if answer is None else answer

    def plan(self, spec: QuerySpec, seen: "str | None" = None) -> dict:
        """Read the source, then answer from its view: the result cache
        if it names a version other than ``seen`` (the memo step's, which
        probed it) and misses no slot, else the view's engine, memoized
        or built."""
        selection = (spec.namespace, spec.since, spec.until)
        started = time.perf_counter()
        try:
            with self._tracer.span("plan", namespace=spec.namespace):
                view = self.source.read(*selection)
                key = spec.cache_key(view.version, self.source.cache_prefix)
                if view.version != seen and not view.missing:
                    hit = self._probe(key)
                    if hit is not None:
                        return hit
                engine, sources = self._engine(selection, view)
        finally:
            self._plan_seconds.observe(
                time.perf_counter() - started, namespace=spec.namespace
            )
        with self._lock:
            return self._evaluate(
                spec, key, view.version, engine, sources,
                missing=view.missing,
            )

    def answer(self, spec: QuerySpec) -> dict:
        """Answer one validated query over the source's merged view.

        A ``window`` makes it a sliding/tumbling series, a ``decay`` one
        time-decayed estimate (a worker's); results are version-cached
        either way.
        """
        return self._temporal(spec) if spec.temporal else self._served(spec)

    def _query(self, **request) -> dict:
        return self.answer(QuerySpec.parse(request, self.source.configs))

    def estimate(
        self,
        namespace: str,
        function: str,
        assignments: Sequence[str],
        estimator: str = "auto",
        ell: int | None = None,
        keys: Sequence | None = None,
        since: str | None = None,
        until: str | None = None,
        decay: "str | float | None" = None,
        anchor: "float | None" = None,
    ) -> dict:
        """One aggregate estimate over the merged live + stored view.

        ``keys`` (optional) restricts the subpopulation with a
        :func:`~repro.core.predicates.key_in` predicate, looked up in the
        summary's key index (predicate pushdown).  ``decay`` (an
        exponential half-life duration, e.g. ``"5m"``) weights each
        bucket by its age at ``anchor`` (default: the end of the
        selected data span) via the exact rank-scaling transform.
        """
        return self._query(
            namespace=namespace, function=function, assignments=assignments,
            estimator=estimator, ell=ell, keys=keys, since=since,
            until=until, decay=decay, anchor=anchor,
        )

    def window_series(
        self,
        namespace: str,
        function: str,
        assignments: Sequence[str],
        window: "str | float",
        step: "str | float | None" = None,
        decay: "str | float | None" = None,
        anchor: "float | None" = None,
        estimator: str = "auto",
        ell: int | None = None,
        keys: Sequence | None = None,
        since: str | None = None,
        until: str | None = None,
    ) -> dict:
        """Sliding/tumbling window estimate series over the merged view.

        Resolves ``window``/``step`` (duration specs, e.g. ``"15m"`` /
        ``"1m"``) against the selected data's span into half-open
        windows, each answered from the stored-partial memo (per-bucket
        merges are shared across overlapping windows and survive
        ingest).  ``decay`` decays *per window*, anchored at its end.
        Windows with no data report ``estimate: null``, ``empty: true``.
        """
        return self._query(
            namespace=namespace, function=function, assignments=assignments,
            window=window, step=step, decay=decay, anchor=anchor,
            estimator=estimator, ell=ell, keys=keys, since=since, until=until,
        )

    def jaccard(
        self,
        namespace: str,
        assignments: Sequence[str],
        variant: str = "l",
        since: str | None = None,
        until: str | None = None,
    ) -> dict:
        """Weighted Jaccard ratio over the merged live + stored view."""
        return self._query(
            kind="jaccard", namespace=namespace, assignments=assignments,
            variant=variant, since=since, until=until,
        )
