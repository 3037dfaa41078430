"""Query planning over live windows merged with stored buckets.

:class:`QueryPlanner` answers service queries as **merge live view +
stored buckets**: it selects the namespace's sketch-bundle artifacts
(optionally restricted to an inclusive ``since``/``until`` bucket window),
adds the in-memory live-window bundle when the window is non-empty and in
range, merges everything with the exact bundle-merge primitive, and routes
the request through the vectorized
:class:`~repro.engine.queries.QueryEngine` — so a service answer is
bit-identical to an offline engine run over the equivalently merged
summaries.

Two version-keyed caches sit in front of the work:

* **engines** — an in-memory LRU of merged :class:`QueryEngine` per
  ``(namespace, version, window)``; repeated queries against an unchanged
  namespace share decoded summary views and kernel caches;
* **results** — final estimates keyed by the full request signature plus
  the version token, held in the store's **persistent runtime tier**
  (:class:`~repro.store.runtime.RuntimeStore`): a hot query costs one
  SQLite row lookup, hit counts accumulate across requests, and because
  both halves of the version token survive a clean shutdown, a restarted
  daemon answers previously served queries straight from the cache —
  bit-identically, without rebuilding an engine (JSON float round-trips
  are exact, and NumPy scalars are coerced losslessly on the way in).

Both keys embed :meth:`LiveWindowManager.version`, which moves on every
ingest, rotation, and query-servable store mutation — cache invalidation
is automatic and exact (a stale entry can never be served, because its
key names a version that no longer exists).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Sequence

from repro.core.aggregates import AggregationSpec
from repro.obs import default_registry, default_tracer
from repro.core.predicates import key_in
from repro.engine.queries import ESTIMATORS, QueryEngine, jaccard_from_summary
from repro.service.jsonutil import sanitize_non_finite
from repro.service.temporal import decay_factor, parse_duration, resolve_windows
from repro.service.windows import LIVE_PART, LiveWindowManager
from repro.store.store import bucket_bounds

__all__ = ["QueryPlanner"]

#: aggregate functions the service exposes
FUNCTIONS = ("single", "min", "max", "l1", "lth_largest")


class QueryPlanner:
    """Merged live + stored query answering with version-keyed caching."""

    def __init__(
        self,
        manager: LiveWindowManager,
        max_cached_engines: int = 8,
        max_cached_results: int = 1024,
        max_cached_partials: int = 128,
        metrics=None,
        tracer=None,
    ) -> None:
        self.manager = manager
        # the daemon injects its per-process registry/tracer; offline
        # users (notebooks, benches without a daemon) get the globals
        self._metrics = metrics if metrics is not None else default_registry()
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
        self._result_cache_lookups = self._metrics.counter(
            "repro_result_cache_lookups_total",
            "Persistent result-cache probes, by outcome.",
            labelnames=("outcome",),
        )
        self.max_cached_engines = max(1, max_cached_engines)
        self.max_cached_results = max(1, max_cached_results)
        self.max_cached_partials = max(1, max_cached_partials)
        self._engines: OrderedDict[tuple, tuple[QueryEngine, dict]] = (
            OrderedDict()
        )
        # Partial-merge frontier: per-(namespace, version, bucket) merged
        # *undecayed* bundles.  Overlapping sliding windows share these —
        # each bucket is loaded from disk and merged once per version,
        # then every window that covers it pays only a cheap k-sized
        # scale + merge instead of a decode.  Version-keyed like the
        # engine cache, so invalidation is automatic and exact.
        self._partials: OrderedDict[tuple, object] = OrderedDict()
        self._runtime = manager.store.runtime
        # Serializes planner cache mutation and engine kernel runs among
        # query threads.  Deliberately NOT the manager's lock: ingestion
        # only contends with the short plan() snapshot, never with kernel
        # computation.
        self._lock = threading.RLock()
        self.stats = {
            "hits": 0, "misses": 0, "engine_builds": 0,
            "partial_hits": 0, "partial_builds": 0, "window_queries": 0,
        }

    # -- planning -------------------------------------------------------------

    def _engine_cache_get(self, key: tuple) -> "tuple | None":
        """Locked LRU probe: the cached ``(engine, sources)`` or ``None``."""
        with self._lock:
            cached = self._engines.get(key)
            if cached is not None:
                self._engines.move_to_end(key)
            return cached

    def _engine_cache_put(self, key: tuple, engine, sources) -> tuple:
        """Insert unless a concurrent build won; returns the cached pair."""
        with self._lock:
            cached = self._engines.get(key)
            if cached is not None:
                self._engines.move_to_end(key)
                return cached
            self._engines[key] = (engine, sources)
            self.stats["engine_builds"] += 1
            while len(self._engines) > self.max_cached_engines:
                self._engines.popitem(last=False)
            return engine, sources

    def _live_in_window(
        self, bucket: str, since: str | None, until: str | None
    ) -> bool:
        if since is None and until is None:
            return True
        lo, hi = bucket_bounds(bucket)
        if since is not None and hi <= bucket_bounds(since)[0]:
            return False
        if until is not None and lo >= bucket_bounds(until)[1]:
            return False
        return True

    def plan(
        self,
        namespace: str,
        since: str | None = None,
        until: str | None = None,
    ) -> tuple[QueryEngine, str, dict]:
        """Merged engine for a namespace and time window, version-cached.

        Returns ``(engine, version, sources)`` where ``sources`` counts the
        stored entries and live events the merged view covers.  Raises
        ``KeyError`` for an unknown namespace and ``LookupError`` when the
        selection holds no data at all.

        The manager lock is held only for short sections — a version
        read on the cache-hit path, and the snapshot (version, entry
        selection, live-window bundle as a defensive copy) on a miss —
        never across the disk loads and the engine build, so an
        engine-cache miss cannot stall ingestion or rotation.  The
        manager and planner locks are never held together either, so a
        query thread stuck behind a long kernel run under the planner
        lock cannot transitively block ingestion.  The snapshot reads
        its own fresh version (the probe's version is only a cache key,
        not a consistency claim), so no version re-check loop is needed;
        only a mid-build FileNotFoundError — the store mutated the
        snapshotted artifacts away, moving the version with them —
        triggers a re-snapshot and retry.
        """
        started = time.perf_counter()
        try:
            with self._tracer.span("plan", namespace=namespace):
                return self._plan(namespace, since, until)
        finally:
            if self._metrics.enabled:
                self._plan_seconds.observe(
                    time.perf_counter() - started, namespace=namespace
                )

    def _plan(
        self, namespace: str, since: str | None, until: str | None
    ) -> tuple[QueryEngine, str, dict]:
        manager = self.manager
        for _attempt in range(8):
            with manager.lock:
                version = manager.version(namespace)  # KeyError when unknown
            key = (namespace, version, since, until)
            cached = self._engine_cache_get(key)
            if cached is not None:
                engine, sources = cached
                return engine, version, sources
            with manager.lock:
                # Snapshot keyed to a fresh version: everything below is
                # consistent with THIS read, whatever moved since the
                # probe above.
                version = manager.version(namespace)
                entries = manager.store.bundle_entries(
                    namespace, since=since, until=until
                )
                window = manager._window(namespace)
                if window.events:
                    # The live view supersedes the window's own flush
                    # artifact (same events, published for crash
                    # durability): serving both would double-count every
                    # key.
                    entries = [
                        entry
                        for entry in entries
                        if not (
                            entry.bucket == window.bucket
                            and entry.part == LIVE_PART
                        )
                    ]
                live = None
                live_events = 0
                if self._live_in_window(window.bucket, since, until):
                    _bucket, live_events, live = manager.live_view(namespace)
            key = (namespace, version, since, until)
            cached = self._engine_cache_get(key)
            if cached is not None:
                engine, sources = cached
                return engine, version, sources
            try:
                bundles = [manager.store.load(entry) for entry in entries]
            except FileNotFoundError:
                continue  # store moved under us; version changed with it
            if live is not None:
                bundles.append(live)
            if not bundles:
                raise LookupError(
                    f"no data for namespace {namespace!r}"
                    + (
                        f" in window [{since or '-'}, {until or '-'}]"
                        if since or until
                        else ""
                    )
                )
            build_started = time.perf_counter()
            with self._tracer.span(
                "engine-build", namespace=namespace, bundles=len(bundles)
            ):
                engine = QueryEngine.from_bundles(bundles)
            if self._metrics.enabled:
                self._engine_build_seconds.observe(
                    time.perf_counter() - build_started
                )
            sources = {
                "stored_entries": len(entries),
                "live_events": live_events,
                "union_keys": engine.summary.n_union,
            }
            engine, sources = self._engine_cache_put(key, engine, sources)
            return engine, version, sources
        raise RuntimeError(
            f"could not plan a stable view of namespace {namespace!r}: the "
            "store kept mutating the selected artifacts away between "
            "snapshot and load"
        )

    # -- temporal planning ----------------------------------------------------

    def _bucket_partial(self, namespace: str, version: str, bucket: str,
                        entries: list):
        """Merged undecayed bundle of one bucket, frontier-cached.

        The reuse unit of sliding-window queries: loaded from disk and
        merged at most once per ``(namespace, version, bucket)``, then
        shared by every window that covers the bucket.  Loads happen
        outside the planner lock (same discipline as :meth:`plan`); a
        ``FileNotFoundError`` propagates so the caller re-snapshots.
        """
        key = (namespace, version, bucket)
        with self._lock:
            cached = self._partials.get(key)
            if cached is not None:
                self._partials.move_to_end(key)
                self.stats["partial_hits"] += 1
                return cached
        bundles = [self.manager.store.load(entry) for entry in entries]
        merged = bundles[0].merge(*bundles[1:])
        with self._lock:
            cached = self._partials.get(key)
            if cached is not None:
                self._partials.move_to_end(key)
                self.stats["partial_hits"] += 1
                return cached
            self._partials[key] = merged
            self.stats["partial_builds"] += 1
            while len(self._partials) > self.max_cached_partials:
                self._partials.popitem(last=False)
        return merged

    def _temporal_snapshot(
        self, namespace: str, since: str | None, until: str | None
    ) -> tuple:
        """Atomic (version, entries-by-bucket, live view) snapshot.

        Mirrors :meth:`plan`'s snapshot discipline: version, entry
        selection, and the live bundle are read together under the
        manager lock (with the live view superseding its own flush
        artifact), so everything downstream is consistent with the one
        returned version.
        """
        manager = self.manager
        with manager.lock:
            version = manager.version(namespace)  # KeyError when unknown
            entries = manager.store.bundle_entries(
                namespace, since=since, until=until
            )
            live_bucket, events, bundle = manager.live_view(namespace)
            if events:
                entries = [
                    entry
                    for entry in entries
                    if not (
                        entry.bucket == live_bucket
                        and entry.part == LIVE_PART
                    )
                ]
            live = None
            live_events = 0
            if bundle is not None and self._live_in_window(
                live_bucket, since, until
            ):
                live = bundle
                live_events = events
        by_bucket: dict[str, list] = {}
        for entry in entries:
            by_bucket.setdefault(entry.bucket, []).append(entry)
        return version, by_bucket, live, live_bucket, live_events

    def _engine_for_span(
        self, namespace, version, by_bucket, bounds, live, live_bucket,
        live_events, span_lo, span_hi, decay_s, anchor,
    ):
        """Decay-scaled merged engine over one half-open time span.

        Selects the snapshot's buckets whose :func:`bucket_bounds` span
        intersects ``[span_lo, span_hi)``, scales each bucket's frontier
        partial by its decay factor (age measured from the bucket start
        to ``anchor``), merges, and builds the engine.  Returns
        ``(engine, stored_entries, live_events)`` — ``engine`` is ``None``
        for a span with no data.
        """
        bundles = []
        scales = []
        n_entries = 0
        for bucket in sorted(by_bucket):
            lo, hi = bounds[bucket]
            if hi <= span_lo or lo >= span_hi:
                continue
            bundles.append(
                self._bucket_partial(namespace, version, bucket,
                                     by_bucket[bucket])
            )
            scales.append(
                1.0 if decay_s is None else decay_factor(lo, anchor, decay_s)
            )
            n_entries += len(by_bucket[bucket])
        span_live_events = 0
        if live is not None:
            lo, hi = bucket_bounds(live_bucket)
            if not (hi <= span_lo or lo >= span_hi):
                bundles.append(live)
                scales.append(
                    1.0 if decay_s is None
                    else decay_factor(lo, anchor, decay_s)
                )
                span_live_events = live_events
        if not bundles:
            return None, 0, 0
        engine = QueryEngine.from_bundles(bundles, scales=scales)
        return engine, n_entries, span_live_events

    @staticmethod
    def _data_span(bounds: dict, live_bucket, live) -> "tuple | None":
        """Union span of the snapshot's buckets (and the live window)."""
        spans = list(bounds.values())
        if live is not None:
            spans.append(bucket_bounds(live_bucket))
        if not spans:
            return None
        return min(lo for lo, _hi in spans), max(hi for _lo, hi in spans)

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
        ``"1m"``) against the selected data's
        :func:`~repro.store.store.bucket_bounds` span into concrete
        half-open windows, and answers each from the partial-merge
        frontier — per-bucket merges are shared across overlapping
        windows instead of rebuilding from disk per window.  ``decay``
        (a half-life duration) applies exponential time decay *per
        window*, anchored at that window's end, via the exact
        rank-scaling transform.  Windows with no data report
        ``estimate: null`` with ``"empty": true``.  Results are
        version-cached like every other answer.
        """
        if function not in FUNCTIONS:
            raise ValueError(
                f"unknown function {function!r}; known: "
                f"{', '.join(FUNCTIONS)}"
            )
        if estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {estimator!r}; known: {ESTIMATORS}"
            )
        window_s = parse_duration(window)
        step_s = window_s if step is None else parse_duration(step)
        decay_s = None if decay is None else parse_duration(decay)
        anchor_ts = None if anchor is None else float(anchor)
        names = tuple(assignments)
        key_sel = None if keys is None else tuple(sorted(map(repr, keys)))
        predicate = None if keys is None else key_in(keys)
        spec = AggregationSpec(function, names, ell=ell)
        for _attempt in range(8):
            version, by_bucket, live, live_bucket, live_events = (
                self._temporal_snapshot(namespace, since, until)
            )
            cache_key = (
                "window_series", namespace, version, since, until,
                function, names, estimator, ell, key_sel,
                window_s, step_s, decay_s, anchor_ts,
            )
            hit = self._probe(cache_key)
            if hit is not None:
                return hit
            bounds = {bucket: bucket_bounds(bucket) for bucket in by_bucket}
            span = self._data_span(bounds, live_bucket, live)
            if span is None:
                raise LookupError(
                    f"no data for namespace {namespace!r}"
                    + (
                        f" in window [{since or '-'}, {until or '-'}]"
                        if since or until
                        else ""
                    )
                )
            windows = resolve_windows(
                span[0], span[1], window_s, step_s, anchor_ts
            )
            rows = []
            resolved = estimator
            try:
                for w_lo, w_hi in windows:
                    engine, n_entries, w_live = self._engine_for_span(
                        namespace, version, by_bucket, bounds, live,
                        live_bucket, live_events, w_lo, w_hi, decay_s, w_hi,
                    )
                    row = {
                        "start": w_lo.isoformat(),
                        "end": w_hi.isoformat(),
                    }
                    if engine is None:
                        row.update(estimate=None, empty=True)
                    else:
                        if estimator == "auto":
                            resolved = engine.default_estimator(spec)
                        row.update(
                            estimate=engine.estimate(
                                spec, estimator=estimator,
                                predicate=predicate,
                            ),
                            sources={
                                "stored_entries": n_entries,
                                "live_events": w_live,
                                "union_keys": engine.summary.n_union,
                            },
                        )
                    rows.append(row)
            except FileNotFoundError:
                continue  # store moved under us; version changed with it
            with self._lock:
                self.stats["window_queries"] += 1
            result = {
                "windows": rows,
                "window_s": window_s,
                "step_s": step_s,
                "decay_s": decay_s,
                "estimator": resolved,
                "function": function,
                "assignments": list(names),
                "namespace": namespace,
                "version": version,
            }
            return self._cached(
                cache_key, namespace, version, lambda: result
            )
        raise RuntimeError(
            f"could not plan a stable windowed view of namespace "
            f"{namespace!r}: the store kept mutating the selected "
            "artifacts away between snapshot and load"
        )

    def _decayed_estimate(
        self, namespace, function, names, estimator, ell, keys, key_sel,
        since, until, decay_s, anchor_ts,
    ) -> dict:
        """One time-decayed estimate over the full selected span.

        Same merged view as :meth:`plan`, but each bucket's partial is
        scaled by its decay factor before the merge.  The anchor defaults
        to the end of the selected data span (deterministic — no wall
        clock), and the resolved anchor is part of the cache key.
        """
        predicate = None if keys is None else key_in(keys)
        spec = AggregationSpec(function, names, ell=ell)
        for _attempt in range(8):
            version, by_bucket, live, live_bucket, live_events = (
                self._temporal_snapshot(namespace, since, until)
            )
            bounds = {bucket: bucket_bounds(bucket) for bucket in by_bucket}
            span = self._data_span(bounds, live_bucket, live)
            if span is None:
                raise LookupError(
                    f"no data for namespace {namespace!r}"
                    + (
                        f" in window [{since or '-'}, {until or '-'}]"
                        if since or until
                        else ""
                    )
                )
            anchor = (
                anchor_ts if anchor_ts is not None else span[1].timestamp()
            )
            cache_key = (
                "estimate", namespace, version, since, until,
                function, names, estimator, ell, key_sel, decay_s, anchor,
            )
            hit = self._probe(cache_key)
            if hit is not None:
                return hit
            try:
                engine, n_entries, live_n = self._engine_for_span(
                    namespace, version, by_bucket, bounds, live, live_bucket,
                    live_events, span[0], span[1], decay_s, anchor,
                )
            except FileNotFoundError:
                continue  # store moved under us; version changed with it
            resolved = (
                engine.default_estimator(spec)
                if estimator == "auto"
                else estimator
            )
            result = {
                "estimate": engine.estimate(
                    spec, estimator=estimator, predicate=predicate
                ),
                "estimator": resolved,
                "function": function,
                "assignments": list(names),
                "namespace": namespace,
                "version": version,
                "decay_s": decay_s,
                "anchor": anchor,
                "sources": {
                    "stored_entries": n_entries,
                    "live_events": live_n,
                    "union_keys": engine.summary.n_union,
                },
            }
            return self._cached(
                cache_key, namespace, version, lambda: result
            )
        raise RuntimeError(
            f"could not plan a stable decayed view of namespace "
            f"{namespace!r}: the store kept mutating the selected "
            "artifacts away between snapshot and load"
        )

    # -- answering ------------------------------------------------------------

    @staticmethod
    def _result_key(key: tuple) -> str:
        """Deterministic string form of a result-cache key tuple.

        ``json.dumps`` with compact separators: tuples become lists,
        ``None`` becomes ``null`` — stable across processes and restarts
        (unlike ``hash()``), which is what makes persistent hits work.
        """
        return json.dumps(key, separators=(",", ":"))

    def _probe(self, key: tuple) -> dict | None:
        """Persistent-cache probe; counts a hit, returns ``None`` on miss."""
        with self._tracer.span("cache-probe") as span:
            hit = self._runtime.cache_get(self._result_key(key))
            span.annotate(outcome="miss" if hit is None else "hit")
        if hit is None:
            return None
        if self._metrics.enabled:
            self._result_cache_lookups.inc(outcome="hit")
        with self._lock:
            self.stats["hits"] += 1
        return {**hit, "cached": True}

    def _cached(
        self, key: tuple, namespace: str, version: str, compute
    ) -> dict:
        hit = self._probe(key)
        if hit is not None:
            return hit
        # Sanitize *before* caching: the persistent row and the wire
        # carry the same RFC 8259-strict form (non-finite floats as null
        # + "non_finite" markers), so a replayed answer is
        # byte-identical to the first serving.
        result = sanitize_non_finite(compute())
        self._runtime.cache_put(
            self._result_key(key), namespace, version, result,
            max_entries=self.max_cached_results,
        )
        if self._metrics.enabled:
            self._result_cache_lookups.inc(outcome="miss")
        with self._lock:
            self.stats["misses"] += 1
        return {**result, "cached": False}

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
        :func:`~repro.core.predicates.key_in` predicate, evaluated on the
        summary's union keys only (predicate pushdown).  ``decay`` (an
        exponential half-life duration, e.g. ``"5m"``) weights each
        bucket by its age at ``anchor`` (default: the end of the
        selected data span) via the exact rank-scaling transform.
        """
        if function not in FUNCTIONS:
            raise ValueError(
                f"unknown function {function!r}; known: "
                f"{', '.join(FUNCTIONS)}"
            )
        if estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {estimator!r}; known: {ESTIMATORS}"
            )
        names = tuple(assignments)
        key_sel = None if keys is None else tuple(sorted(map(repr, keys)))
        if decay is not None:
            return self._decayed_estimate(
                namespace, function, names, estimator, ell, keys, key_sel,
                since, until, parse_duration(decay),
                None if anchor is None else float(anchor),
            )
        # Fast path: a previously served answer — possibly from an
        # earlier daemon run — needs no engine at all.
        with self.manager.lock:
            version = self.manager.version(namespace)  # KeyError if unknown
        hit = self._probe((
            "estimate", namespace, version, since, until,
            function, names, estimator, ell, key_sel,
        ))
        if hit is not None:
            return hit
        engine, version, sources = self.plan(namespace, since, until)
        with self._lock:
            return self._answer_estimate(
                engine, version, sources, namespace, function, names,
                estimator, ell, keys, key_sel, since, until,
            )

    def _answer_estimate(
        self, engine, version, sources, namespace, function, names,
        estimator, ell, keys, key_sel, since, until,
    ) -> dict:
        cache_key = (
            "estimate", namespace, version, since, until,
            function, names, estimator, ell, key_sel,
        )

        def compute() -> dict:
            spec = AggregationSpec(function, names, ell=ell)
            predicate = None if keys is None else key_in(keys)
            value = engine.estimate(
                spec, estimator=estimator, predicate=predicate
            )
            resolved = (
                engine.default_estimator(spec)
                if estimator == "auto"
                else estimator
            )
            return {
                "estimate": value,
                "estimator": resolved,
                "function": function,
                "assignments": list(names),
                "namespace": namespace,
                "version": version,
                "sources": sources,
            }

        return self._cached(cache_key, namespace, version, compute)

    def jaccard(
        self,
        namespace: str,
        assignments: Sequence[str],
        variant: str = "l",
        since: str | None = None,
        until: str | None = None,
    ) -> dict:
        """Weighted Jaccard ratio over the merged live + stored view."""
        names = tuple(assignments)
        with self.manager.lock:
            version = self.manager.version(namespace)  # KeyError if unknown
        hit = self._probe((
            "jaccard", namespace, version, since, until, names, variant,
        ))
        if hit is not None:
            return hit
        engine, version, sources = self.plan(namespace, since, until)
        with self._lock:
            return self._answer_jaccard(
                engine, version, sources, namespace, names, variant,
                since, until,
            )

    def _answer_jaccard(
        self, engine, version, sources, namespace, names, variant,
        since, until,
    ) -> dict:
        cache_key = (
            "jaccard", namespace, version, since, until, names, variant,
        )

        def compute() -> dict:
            value = jaccard_from_summary(engine.summary, names, variant)
            return {
                "estimate": value,
                "estimator": f"jaccard-{variant}",
                "assignments": list(names),
                "namespace": namespace,
                "version": version,
                "sources": sources,
            }

        return self._cached(cache_key, namespace, version, compute)
