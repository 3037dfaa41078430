"""Batch query answering over multi-assignment summaries.

:class:`QueryEngine` is the one route from a summary to adjusted weights:
``adjusted_dense`` / ``adjusted`` / ``estimate`` answer one
:class:`~repro.core.aggregates.AggregationSpec` with a named estimator
(:data:`ESTIMATORS`), and ``run`` serves a *batch* of queries (many specs ×
assignment subsets × key predicates) from one summary by running the
kernels of :mod:`repro.estimators` once and sharing their dense outputs:

* **per-summary view cache** — CDF matrices, per-subset sorts and
  thresholds live on :meth:`MultiAssignmentSummary.views` and are computed
  once, whichever and however many queries touch them;
* **adjusted-weight sharing** — the dense adjusted-weight vector of a spec
  is cached by ``(estimator, function, R, ℓ)``, so fifty queries that
  differ only in their predicate pay for one kernel run, and the L1
  estimator reuses the cached max/min vectors (Eq. (17));
* **predicate pushdown** — a key predicate (``key_in``) is an
  O(|keys|) lookup in a key → row index (the summary's
  :attr:`~repro.core.summary.MultiAssignmentSummary.key_index`, or the
  dataset's); any other predicate is evaluated *once per distinct
  predicate object* on the summary's union keys only
  (:meth:`~repro.core.predicates.Predicate.mask_at`), never on the full
  dataset.  Each query reduces to a masked sum.

The kernels, and the engine's answers through them, are pinned against an
independent oracle in ``tests/test_kernel_parity.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.aggregates import AggregationSpec
from repro.core.dataset import MultiAssignmentDataset
from repro.core.predicates import AllKeys, KeyIn, Predicate
from repro.core.summary import MultiAssignmentSummary
from repro.estimators.base import AdjustedWeights
from repro.estimators.colocated import colocated_kernel, generic_kernel
from repro.estimators.dispersed import lset_kernel, sset_kernel
from repro.estimators.horvitz_thompson import ht_kernel
from repro.estimators.rank_conditioning import plain_rc_kernel

__all__ = ["Query", "QueryResult", "QueryEngine", "jaccard_from_summary"]

#: estimator names accepted by :class:`QueryEngine`
ESTIMATORS = (
    "auto", "sset", "lset", "l1-s", "l1-l", "colocated", "generic",
    "plain_rc", "ht",
)


@dataclass(frozen=True)
class Query:
    """One aggregate query: a spec, an optional predicate, an estimator.

    ``predicate`` overrides ``spec.predicate`` when given; ``estimator`` is
    one of :data:`ESTIMATORS` (``"auto"`` routes on the summary's mode and
    rank method).  ``label`` tags the result for reports.
    """

    spec: AggregationSpec
    predicate: Predicate | None = None
    estimator: str = "auto"
    label: str = ""

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; known: {ESTIMATORS}"
            )

    @property
    def effective_predicate(self) -> Predicate:
        return self.predicate if self.predicate is not None else self.spec.predicate


@dataclass
class QueryResult:
    """Estimate of one query plus bookkeeping for reports."""

    query: Query
    estimate: float
    estimator: str
    #: union keys passing the predicate (== n_union for AllKeys)
    n_selected: int

    @property
    def label(self) -> str:
        if self.query.label:
            return self.query.label
        spec = self.query.spec
        return f"{self.estimator}[{spec.function}:{','.join(spec.assignments)}]"


class QueryEngine:
    """Vectorized multi-query estimation over one summary.

    Parameters
    ----------
    summary:
        the summary to answer from.
    dataset:
        optional dataset supplying key identifiers and attributes for
        predicate evaluation.  Not needed for ``AllKeys`` predicates or for
        stream-built summaries whose ``summary.keys`` carry the identifiers.

    >>> from repro import (AggregationSpec, MultiAssignmentDataset,
    ...                    QueryEngine, summarize_dataset)
    >>> ds = MultiAssignmentDataset(["a", "b", "c"], ["w1", "w2"],
    ...                             [[3.0, 1.0], [2.0, 5.0], [4.0, 4.0]])
    >>> engine = QueryEngine(summarize_dataset(ds, k=3, mode="colocated",
    ...                                        seed=1), ds)
    >>> engine.run([AggregationSpec("max", ("w1", "w2"))])[0].estimate
    12.0
    """

    def __init__(
        self,
        summary: MultiAssignmentSummary,
        dataset: MultiAssignmentDataset | None = None,
    ) -> None:
        self.summary = summary
        self.dataset = dataset
        self._dense: dict[tuple, np.ndarray] = {}
        self._predicate_masks: dict[int, np.ndarray] = {}
        # keep predicates alive so id()-keyed cache entries stay valid
        # (insertion order mirrors _predicate_masks for FIFO eviction)
        self._predicate_refs: list[Predicate] = []
        self._stream_positions_cache: np.ndarray | None = None

    #: ad-hoc per-request predicates are evicted FIFO beyond this many
    MAX_CACHED_PREDICATES = 256

    @classmethod
    def from_store(
        cls,
        store,
        namespace: str,
        buckets: Sequence[str] | None = None,
        dataset: MultiAssignmentDataset | None = None,
    ) -> "QueryEngine":
        """Engine over the stored summaries of one namespace.

        Loads every sketch-bundle artifact of ``namespace`` (optionally
        restricted to ``buckets``) from a
        :class:`~repro.store.SummaryStore`, merges them exactly, assembles
        the dispersed multi-assignment summary, and serves it on the
        vectorized fast path.  Because compaction uses the same exact
        merge, a rolled-up store answers identically to the raw one.
        """
        return cls(store.summary(namespace, buckets), dataset)

    @classmethod
    def from_bundles(
        cls,
        bundles,
        dataset: MultiAssignmentDataset | None = None,
        scales: "Sequence[float] | None" = None,
        disjoint: bool = False,
    ) -> "QueryEngine":
        """Engine over the exact merge of several sketch bundles.

        The merged-view hook of the always-on service: a live in-memory
        window bundle and any number of stored bucket bundles merge with
        the exact :meth:`~repro.store.codec.SketchBundle.merge` primitive
        into one summary, so the engine's answers are bit-identical to an
        offline run over the equivalently merged artifacts.  Raises
        ``ValueError`` on an empty bundle list, on incompatible
        coordination metadata, and on duplicate keys (not a key-disjoint
        partition) unless ``disjoint=True`` says the caller refused them
        already (see :meth:`~repro.store.codec.SketchBundle.merge`).

        ``scales`` (one positive factor per bundle) applies
        :meth:`~repro.store.codec.SketchBundle.scaled` before merging —
        the decay-aware entry point: a scaled bundle is a valid sketch of
        the scaled sub-dataset, so merging per-bucket decayed bundles
        yields exactly the summary of the time-decayed weight assignment.
        """
        bundles = list(bundles)
        if not bundles:
            raise ValueError("need at least one sketch bundle")
        if scales is not None:
            scales = [float(s) for s in scales]
            if len(scales) != len(bundles):
                raise ValueError(
                    f"need one scale per bundle, got {len(scales)} scales "
                    f"for {len(bundles)} bundles"
                )
            bundles = [b.scaled(s) for b, s in zip(bundles, scales)]
        merged = bundles[0].merge(*bundles[1:], disjoint=disjoint)
        return cls(merged.summary(), dataset)

    @classmethod
    def from_encoded_bundles(
        cls,
        blobs: "Sequence[bytes]",
        dataset: MultiAssignmentDataset | None = None,
        scales: "Sequence[float] | None" = None,
    ) -> "QueryEngine":
        """Engine over codec-encoded sketch bundles — the over-the-wire path.

        Each blob is a :func:`~repro.store.codec.encode`'d
        :class:`~repro.store.codec.SketchBundle`, e.g. fetched from a
        worker's ``GET /bundle?namespace=``.  Decoding
        verifies the embedded CRC (a corrupted transfer fails loudly),
        and because the codec round-trips IEEE-754 doubles bit-exactly,
        the merged answers are bit-identical to a single-process engine
        over the union of the workers' events.
        """
        from repro.store.codec import SketchBundle, decode

        bundles = []
        for position, blob in enumerate(blobs):
            obj = decode(blob, verify=True)
            if not isinstance(obj, SketchBundle):
                raise ValueError(
                    f"blob {position} decodes to {type(obj).__name__}, "
                    "not a SketchBundle"
                )
            bundles.append(obj)
        return cls.from_bundles(bundles, dataset, scales=scales)

    @staticmethod
    def serve_many(
        store, requests, buckets=None
    ) -> "dict[str, list[QueryResult]]":
        """Answer query batches across many stored namespaces.

        Parameters
        ----------
        store:
            a :class:`~repro.store.SummaryStore` or a store root path; the
            root is opened once, so every namespace is answered from the
            manifest as it stands at the call.
        requests:
            mapping of namespace -> sequence of :class:`Query` (or bare
            :class:`~repro.core.aggregates.AggregationSpec`) items.
        buckets:
            optional mapping of namespace -> bucket ids to restrict to.

        Each namespace's bundles are merged once into one engine, which
        answers that namespace's whole batch from shared decoded views
        and kernel caches.  Returns ``{namespace: [QueryResult, ...]}`` in
        request order, with result order matching each batch's query
        order; an unknown namespace raises :class:`KeyError`.
        """
        from repro.store.store import SummaryStore

        root = store if isinstance(store, (str, os.PathLike)) else store.root
        store = SummaryStore(root, create=False)
        try:
            return {
                name: QueryEngine.from_store(
                    store, name, None if buckets is None else buckets.get(name)
                ).run(queries)
                for name, queries in requests.items()
            }
        finally:
            store.runtime.close()

    @classmethod
    def for_summary(
        cls,
        summary: MultiAssignmentSummary,
        dataset: MultiAssignmentDataset | None = None,
    ) -> "QueryEngine":
        """Engine memoized on the summary object (one per summary).

        Repeated callers — e.g. the evaluation harness running many
        estimator tasks against the same draw — share one engine and
        therefore one kernel cache.
        """
        engine = summary.__dict__.get("_query_engine")
        if engine is None:
            engine = cls(summary, dataset)
            summary.__dict__["_query_engine"] = engine
        elif dataset is not None and engine.dataset is not dataset:
            engine.bind_dataset(dataset)
        return engine

    def bind_dataset(self, dataset: MultiAssignmentDataset) -> None:
        """Attach a (different) dataset for predicate evaluation.

        Keeps the kernel cache — adjusted weights never depend on the
        dataset — and drops only the dataset-derived predicate masks and
        key-position mapping.
        """
        self.dataset = dataset
        self._predicate_masks.clear()
        self._predicate_refs.clear()
        self._stream_positions_cache = None

    # -- estimator routing ----------------------------------------------------

    def default_estimator(self, spec: AggregationSpec) -> str:
        """Route a spec to the estimator ``"auto"`` resolves to.

        Colocated summaries use the inclusive estimator (lowest variance,
        Lemma 5.1).  Dispersed bottom-k summaries use the l-set template
        when its closed forms apply (shared-seed / independent with known
        seeds, Section 7.2) and fall back to s-set otherwise; dispersed
        Poisson singles use HT.
        """
        summary = self.summary
        if summary.mode == "colocated":
            return "colocated"
        if summary.kind == "poisson" and spec.function == "single":
            return "ht"
        if spec.function == "l1":
            return "l1-l" if self._lset_applicable() else "l1-s"
        if self._lset_applicable():
            return "lset"
        return "sset"

    def _lset_applicable(self) -> bool:
        return self.summary.seeds is not None and self.summary.method_name in (
            "shared_seed",
            "independent",
        )

    # -- adjusted-weight cache ------------------------------------------------

    def adjusted_dense(
        self, spec: AggregationSpec, estimator: str = "auto"
    ) -> np.ndarray:
        """Dense adjusted ``f``-weights over union rows, cached per spec.

        The cache key ignores the predicate — adjusted weights never depend
        on the selection (Section 3), which is exactly what makes them
        shareable across queries.
        """
        if estimator == "auto":
            estimator = self.default_estimator(spec)
        key = (estimator, spec.function, spec.assignments, spec.ell)
        dense = self._dense.get(key)
        if dense is None:
            dense = self._compute_dense(spec, estimator)
            # shared by every later query of this spec: no in-place edits
            dense.setflags(write=False)
            self._dense[key] = dense
        return dense

    def _compute_dense(
        self, spec: AggregationSpec, estimator: str
    ) -> np.ndarray:
        summary = self.summary
        if estimator == "colocated":
            return colocated_kernel(summary, spec)
        if estimator == "generic":
            return generic_kernel(summary, spec)
        if estimator == "plain_rc":
            self._require_single(spec, estimator)
            return plain_rc_kernel(summary, spec.assignments[0])
        if estimator == "ht":
            self._require_single(spec, estimator)
            return ht_kernel(summary, spec.assignments[0])
        if estimator in ("l1-s", "l1-l") or spec.function == "l1":
            if spec.function != "l1":
                raise ValueError(
                    f"{estimator!r} answers 'l1' specs; got {spec.function!r}"
                )
            if estimator not in ("l1-s", "l1-l"):
                # sset and lset reject the L1 aggregate
                raise ValueError(
                    "the L1 aggregate is not top-ℓ dependent; use estimator "
                    f"'l1-s' or 'l1-l' (a^max − a^min), got {estimator!r}"
                )
            min_spec = AggregationSpec("min", spec.assignments)
            max_spec = AggregationSpec("max", spec.assignments)
            return self.adjusted_dense(
                max_spec, "sset"
            ) - self.adjusted_dense(
                min_spec, "sset" if estimator == "l1-s" else "lset"
            )
        if estimator == "sset":
            return sset_kernel(summary, spec)
        if estimator == "lset":
            return lset_kernel(summary, spec)
        raise ValueError(f"unknown estimator {estimator!r}")

    @staticmethod
    def _require_single(spec: AggregationSpec, estimator: str) -> None:
        if spec.function != "single" or len(spec.assignments) != 1:
            raise ValueError(
                f"{estimator!r} answers 'single' specs over one assignment; "
                f"got {spec.function!r} over {spec.assignments!r}"
            )

    def adjusted(
        self, spec: AggregationSpec, estimator: str = "auto", label: str = ""
    ) -> AdjustedWeights:
        """Sparse :class:`AdjustedWeights` for one spec (cached kernel run)."""
        resolved = (
            self.default_estimator(spec) if estimator == "auto" else estimator
        )
        dense = self.adjusted_dense(spec, resolved)
        return AdjustedWeights.from_dense(
            self.summary,
            dense,
            label or f"{resolved}[{spec.function}:{','.join(spec.assignments)}]",
        )

    # -- predicate pushdown ---------------------------------------------------

    def predicate_mask(self, predicate: Predicate) -> np.ndarray | None:
        """Boolean mask over the summary's union rows (``None`` = all).

        A :class:`~repro.core.predicates.KeyIn` looks its keys up in a
        key → row index, which is cheaper than memoizing its mask.  Any
        other predicate is evaluated once per distinct predicate object,
        on the union keys only — never on the full dataset.
        """
        if isinstance(predicate, AllKeys):
            return None
        if isinstance(predicate, KeyIn):
            return self._evaluate_predicate(predicate)
        key = id(predicate)
        if key in self._predicate_masks:
            return self._predicate_masks[key]
        mask = self._evaluate_predicate(predicate)
        if len(self._predicate_masks) >= self.MAX_CACHED_PREDICATES:
            oldest = next(iter(self._predicate_masks))
            del self._predicate_masks[oldest]
            self._predicate_refs.pop(0)
        self._predicate_masks[key] = mask
        self._predicate_refs.append(predicate)
        return mask

    def _evaluate_predicate(self, predicate: Predicate) -> np.ndarray:
        summary = self.summary
        # Stream-built summaries index keys by synthetic row numbers; their
        # real identifiers live in summary.keys.  A key predicate finds its
        # rows through the summary's own key index; anything else must map
        # the keys to dataset rows before an attribute lookup.
        if summary.keys is not None:
            if isinstance(predicate, KeyIn):
                mask = np.zeros(summary.n_union, dtype=bool)
                mask[predicate.rows_in(summary.key_index)] = True
                return mask
            if self.dataset is not None:
                return np.asarray(
                    predicate.mask_at(self.dataset, self._stream_positions()),
                    dtype=bool,
                )
            raise ValueError(
                f"{predicate!r} may read key attributes, which this "
                "engine cannot supply (no dataset attached); pass a "
                "dataset to QueryEngine, or select by key with "
                "key_in/all_keys"
            )
        if self.dataset is not None:
            return np.asarray(
                predicate.mask_at(self.dataset, summary.positions), dtype=bool
            )
        raise ValueError(
            "predicate evaluation needs a dataset (pass one to QueryEngine) "
            "or a summary that carries raw key identifiers"
        )

    def _stream_positions(self) -> np.ndarray:
        """Dataset rows of a stream summary's keys, computed once per engine.

        Stream-built summaries use synthetic row numbers as ``positions``;
        their real identifiers live in ``summary.keys`` and must be mapped
        to dataset rows before any attribute lookup.
        """
        positions = self._stream_positions_cache
        if positions is None:
            assert self.dataset is not None and self.summary.keys is not None
            try:
                positions = np.fromiter(
                    (
                        self.dataset.key_position(key)
                        for key in self.summary.keys
                    ),
                    dtype=np.int64,
                    count=self.summary.n_union,
                )
            except KeyError as missing:
                raise ValueError(
                    f"summary key {missing.args[0]!r} is not in the "
                    "attached dataset; predicates cannot be evaluated"
                ) from None
            self._stream_positions_cache = positions
        return positions

    # -- query execution ------------------------------------------------------

    def estimate(
        self,
        spec: AggregationSpec,
        estimator: str = "auto",
        predicate: Predicate | None = None,
    ) -> float:
        """Estimate ``Σ_{i : d(i)=1} f(i)`` for one spec."""
        dense = self.adjusted_dense(spec, estimator)
        mask = self.predicate_mask(
            predicate if predicate is not None else spec.predicate
        )
        if mask is None:
            return float(dense.sum())
        return float(dense[mask].sum())

    def run(
        self, queries: Sequence[Query | AggregationSpec]
    ) -> list[QueryResult]:
        """Answer a batch of queries, sharing all cached intermediates.

        Bare :class:`AggregationSpec` items are wrapped as auto-routed
        queries.  Order of results matches the input order.
        """
        results: list[QueryResult] = []
        for item in queries:
            query = item if isinstance(item, Query) else Query(spec=item)
            estimator = (
                self.default_estimator(query.spec)
                if query.estimator == "auto"
                else query.estimator
            )
            dense = self.adjusted_dense(query.spec, estimator)
            mask = self.predicate_mask(query.effective_predicate)
            if mask is None:
                estimate = float(dense.sum())
                n_selected = self.summary.n_union
            else:
                estimate = float(dense[mask].sum())
                n_selected = int(mask.sum())
            results.append(
                QueryResult(
                    query=query,
                    estimate=estimate,
                    estimator=estimator,
                    n_selected=n_selected,
                )
            )
        return results


def jaccard_from_summary(
    summary: MultiAssignmentSummary,
    assignments: Sequence[str],
    variant: str = "l",
) -> float:
    """Weighted Jaccard ratio estimate ``Σ w^min / Σ w^max`` from a summary.

    Estimates numerator and denominator with the dispersed min/max
    estimators (s-set or l-set per ``variant``) and clips the ratio into
    ``[0, 1]``.  As a ratio of unbiased estimators it is consistent rather
    than unbiased — the unbiased alternative needs k-mins sketches with
    independent-differences ranks (:func:`repro.estimators.jaccard_from_kmins`),
    which are not computable in the dispersed model.

    Runs on the :class:`QueryEngine` fast path, so the max and min
    estimates share the per-summary subset views.  Returns 0.0 for empty
    and all-zero-weight summaries (nothing was sampled ⇒ both norms
    estimate to 0).
    """
    if variant not in ("s", "l"):
        raise ValueError(f"variant must be 's' or 'l', got {variant!r}")
    names = tuple(assignments)
    if len(names) < 2:
        raise ValueError("weighted Jaccard needs at least two assignments")
    engine = QueryEngine.for_summary(summary)
    total_max = engine.estimate(AggregationSpec("max", names), "sset")
    if total_max <= 0.0:
        return 0.0
    min_estimator = "sset" if variant == "s" else "lset"
    total_min = engine.estimate(AggregationSpec("min", names), min_estimator)
    return min(1.0, max(0.0, total_min / total_max))
