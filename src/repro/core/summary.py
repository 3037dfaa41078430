"""Multi-assignment summaries: what the estimators are allowed to see.

A summary bundles the per-assignment sketches of one rank-assignment draw
into a single object with an explicit *information model*:

* **colocated** summaries carry the full weight vector of every key in the
  union of the embedded samples (the vector is attached to the key when it
  is sampled, Section 6);
* **dispersed** summaries carry ``w^(b)(i)`` only when ``i`` is in the
  bottom-k sketch of ``b`` (Section 7) — entries the dispersed processes
  never saw together are ``NaN`` and estimators must not read them.

Either way the summary records, per assignment ``b``, the rank values
``r_k(I)`` and ``r_{k+1}(I)`` and per (union key, assignment) membership,
which is exactly the information Section 6 lists as sufficient to recover
``r_k(I \\ {i})`` for every union key — the conditioning quantity of all
rank-conditioning estimators.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.ranks.assignments import RankDraw
from repro.ranks.families import RankFamily
from repro.sampling.bottomk import BottomKSketch, _array_bits_equal
from repro.sampling.poisson import PoissonSketch

__all__ = [
    "MultiAssignmentSummary",
    "SummaryViews",
    "SubsetViews",
    "build_bottomk_summary",
    "build_poisson_summary",
    "build_summary_from_sketches",
    "build_fixed_size_summary",
]

_T = TypeVar("_T")

_INF = math.inf

COLOCATED = "colocated"
DISPERSED = "dispersed"


@dataclass
class MultiAssignmentSummary:
    """Union of per-assignment sketches plus estimator bookkeeping.

    All per-key arrays are aligned with :attr:`positions`, the sorted
    distinct dataset positions of the union of the embedded samples.
    The builders store the ``(u, m)`` matrices column-major (Fortran
    order), one contiguous column per assignment, as the estimators
    reduce across the assignments of each key.  The layout is invisible
    to values, :meth:`equals` and the codec, which writes every array in
    C order; a decoded summary keeps its matrices as the zero-copy
    row-major views the codec returns, and the estimators give the same
    bits on them.

    Attributes
    ----------
    mode:
        ``"colocated"`` or ``"dispersed"`` (see module docstring).
    kind:
        ``"bottomk"`` or ``"poisson"``.
    assignments:
        assignment names, defining the column order of all matrices.
    k:
        per-assignment sample size (bottom-k) or expected size (Poisson).
    positions:
        ``(u,)`` sorted dataset positions of union keys.
    member:
        ``(u, m)`` boolean; ``member[i, b]`` iff union key i is in the
        sketch of assignment b.
    ranks:
        ``(u, m)`` rank values where known (members), ``+inf`` elsewhere.
    weights:
        ``(u, m)`` weights; in dispersed mode ``NaN`` where not a member.
    thresholds:
        ``(u, m)``; for bottom-k this is ``r^(b)_k(I \\ {i})`` (the RC
        conditioning threshold), for Poisson the fixed ``τ^(b)``.
    rank_k / rank_kplus1:
        ``(m,)`` per-assignment ``r_k(I)`` / ``r_{k+1}(I)`` (bottom-k only;
        ``None`` for Poisson).
    seeds:
        ``(u,)`` shared seeds, ``(u, m)`` per-assignment seeds (NaN where
        unknown), or ``None`` when the rank method exposes no seeds.
    family / method_name / consistent:
        the rank family and rank-assignment method that produced the draw.
    """

    mode: str
    kind: str
    assignments: list[str]
    k: int
    positions: np.ndarray
    member: np.ndarray
    ranks: np.ndarray
    weights: np.ndarray
    thresholds: np.ndarray
    rank_k: np.ndarray | None
    rank_kplus1: np.ndarray | None
    seeds: np.ndarray | None
    family: RankFamily
    method_name: str
    consistent: bool
    #: raw key identifiers aligned with ``positions`` (stream-built
    #: summaries; ``None`` when positions index a dataset directly)
    keys: list | None = None

    @property
    def n_union(self) -> int:
        """Number of distinct keys stored in the summary."""
        return len(self.positions)

    @property
    def n_assignments(self) -> int:
        return len(self.assignments)

    def columns(self, assignments: Sequence[str] | None) -> list[int]:
        """Column indices of a subset R of the assignments (all if None)."""
        if assignments is None:
            return list(range(self.n_assignments))
        index = {name: b for b, name in enumerate(self.assignments)}
        return [index[name] for name in assignments]

    def storage_size(self) -> int:
        """Number of distinct keys (the summary's storage cost metric)."""
        return self.n_union

    def sharing_index(self) -> float:
        """``|S| / (k · |W|)`` — lower means more cross-assignment sharing.

        Lies in ``[1/|W|, 1]`` when every assignment has at least k positive
        keys (Section 9.3).  Poisson summaries built without an
        ``expected_size`` record ``k = 0``; for those the denominator falls
        back to the total realized membership count ``Σ_b |sketch b|`` (the
        realized analogue of ``k · |W|``).  ``nan`` when the summary is
        empty.
        """
        denominator = float(self.k * self.n_assignments)
        if denominator <= 0.0:
            denominator = float(self.member.sum())
        if denominator <= 0.0:
            return math.nan
        return self.n_union / denominator

    def views(self) -> "SummaryViews":
        """Cached dense array views for the vectorized estimation kernels.

        The views (CDF matrices, per-subset sorts, broadcast seed matrices)
        are computed lazily, once per summary, and shared by every query
        answered from it — the per-summary cache of the batch
        :class:`~repro.engine.queries.QueryEngine`.  They assume the summary
        is immutable once built; do not mutate the summary's arrays after
        the first call.
        """
        cache = self.__dict__.get("_views")
        if cache is None:
            cache = SummaryViews(self)
            self.__dict__["_views"] = cache
        return cache

    @property
    def key_index(self) -> dict | None:
        """Row of each raw key identifier in :attr:`keys`, built once.

        ``None`` when ``positions`` index a dataset directly.  A cache, not
        a field: a union assembled by a dictionary pass (object, mixed,
        bool or float keys) hands over that dictionary; a union of one
        integer dtype (sorted, no dictionary), a decoded, unpickled or
        ``dataclasses.replace``d summary builds it here, on the first
        lookup.  Treat it as read-only.
        """
        if self.keys is None:
            return None
        index = self.__dict__.get("_key_index")
        if index is None:
            index = dict(zip(self.keys, range(self.n_union)))
            if len(index) != self.n_union:
                raise ValueError("summary keys are not distinct")
            self.__dict__["_key_index"] = index
        return index

    def __getstate__(self) -> dict:
        """Pickle and copy the fields only: cached views and the key index
        are rebuilt on demand (the views' weak back-references cannot be
        pickled)."""
        state = self.__dict__.copy()
        state.pop("_views", None)
        state.pop("_key_index", None)
        return state

    def equals(self, other: "MultiAssignmentSummary") -> bool:
        """Bit-exact equality of every stored field.

        Float arrays are compared by raw bytes, so ``+inf`` thresholds and
        ``NaN`` dispersed-weight placeholders compare exactly.  This is the
        contract behind checkpoint/resume ("bit-identical summaries") and
        the store codec round-trip tests; cached views and the key index
        are ignored.
        """

        def bits(a: np.ndarray | None, b: np.ndarray | None) -> bool:
            if a is None or b is None:
                return a is None and b is None
            return _array_bits_equal(a, b)

        if not isinstance(other, MultiAssignmentSummary):
            return False
        if (
            self.mode != other.mode
            or self.kind != other.kind
            or self.assignments != other.assignments
            or self.k != other.k
            or self.family != other.family
            or self.method_name != other.method_name
            or self.consistent != other.consistent
        ):
            return False
        if (self.keys is None) != (other.keys is None):
            return False
        if self.keys is not None and list(self.keys) != list(other.keys):
            return False
        return (
            bits(self.positions, other.positions)
            and bits(self.member, other.member)
            and bits(self.ranks, other.ranks)
            and bits(self.weights, other.weights)
            and bits(self.thresholds, other.thresholds)
            and bits(self.rank_k, other.rank_k)
            and bits(self.rank_kplus1, other.rank_kplus1)
            and bits(self.seeds, other.seeds)
        )

    def __repr__(self) -> str:
        return (
            f"MultiAssignmentSummary(mode={self.mode!r}, kind={self.kind!r}, "
            f"k={self.k}, n_union={self.n_union}, "
            f"method={self.method_name!r}, family={self.family.name!r})"
        )


class SummaryViews:
    """Lazily-computed dense views over one :class:`MultiAssignmentSummary`.

    Everything the paper's estimators read repeatedly is materialized here
    exactly once:

    * :attr:`cdf_weight_threshold` — the ``(u, m)`` matrix
      ``F_{w^(b)(i)}(θ_ib)`` where ``θ_ib = r^(b)_k(I∖{i})`` (bottom-k) or
      ``τ^(b)`` (Poisson).  This single matrix drives the colocated
      inclusion probabilities (Eq. (5)/(6)), the plain RC / HT estimators
      (Section 3), and the l-set membership terms (Eq. (13)/(14)).
    * :meth:`cdf_column` — one assignment's column of that matrix, for
      the single-sketch estimators.
    * :meth:`subset` — per assignment-subset ``R`` sort/threshold caches
      (:class:`SubsetViews`) shared by every query over the same ``R``.

    Arbitrary derived arrays can be memoized with :meth:`cached`, which the
    estimation kernels use for method-specific quantities (e.g. the
    colocated inclusion probabilities).

    The summary owns its views, so the way back is a weak proxy: a
    reference cycle would keep every superseded summary (and the query
    engine built on it) alive until a full garbage collection.  Hold the
    summary for as long as you use its views.
    """

    def __init__(self, summary: MultiAssignmentSummary) -> None:
        self.summary = weakref.proxy(summary)
        self._subsets: dict[tuple[int, ...], SubsetViews] = {}
        self._cache: dict[object, object] = {}

    def cached(self, key: object, compute: Callable[[], _T]) -> _T:
        """Memoize an arbitrary derived array under ``key``.

        A stored ndarray is made read-only: every later caller shares it,
        so an in-place edit would corrupt their answers.
        """
        try:
            return self._cache[key]  # type: ignore[return-value]
        except KeyError:
            value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache[key] = value
            return value

    @cached_property
    def cdf_weight_threshold(self) -> np.ndarray:
        """``(u, m)`` matrix ``F_{w^(b)(i)}(θ_ib)``; 0 at unknown (NaN) cells."""
        summary = self.summary
        return summary.family.cdf_matrix(summary.weights, summary.thresholds)

    def cdf_column(self, b: int) -> np.ndarray:
        """Column ``b`` of :attr:`cdf_weight_threshold`, computed on that
        one column unless the full matrix is already built."""
        full = self.__dict__.get("cdf_weight_threshold")
        if full is not None:
            return full[:, b]
        summary = self.summary
        return summary.family.cdf_matrix(
            summary.weights[:, b], summary.thresholds[:, b]
        )

    def subset(self, cols: Sequence[int]) -> "SubsetViews":
        """Shared per-``R`` views for the assignment columns ``cols``."""
        key = tuple(int(c) for c in cols)
        view = self._subsets.get(key)
        if view is None:
            view = SubsetViews(self, key)
            self._subsets[key] = view
        return view


class SubsetViews:
    """Per assignment-subset ``R`` caches used by the dispersed kernels.

    All attributes are lazy and aligned with the summary's union rows; a
    query batch touching the same ``R`` with several aggregate functions
    (min, max, L1, ℓ-th largest) shares one threshold matrix.  The
    ``(u, |R|)`` views keep the summary's layout — over every column in
    order they *are* the summary's matrices — so on a built (column-major)
    summary the per-key reductions across R walk contiguous columns.  The top-ℓ quantities
    need no per-row sort at the two extremes: ℓ = 1 is a column max and
    ℓ = |R| a column min; only 1 < ℓ < |R| sorts.
    """

    def __init__(self, views: SummaryViews, cols: tuple[int, ...]) -> None:
        # Owned by the views object, as that is by the summary: weak, too.
        self._views = weakref.proxy(views)
        self.cols = cols
        every = cols == tuple(range(views.summary.n_assignments))
        self._col_list = None if every else list(cols)

    def _over_r(self, matrix: np.ndarray) -> np.ndarray:
        """The columns of R of a ``(u, m)`` summary matrix."""
        return matrix if self._col_list is None else matrix[:, self._col_list]

    @cached_property
    def theta(self) -> np.ndarray:
        """``(u, |R|)`` conditioning thresholds ``r^(b)_k(I∖{i})`` over R."""
        return self._over_r(self._views.summary.thresholds)

    @cached_property
    def theta_min(self) -> np.ndarray:
        """``r^(min R)_k(I∖{i})`` — the s-set global threshold per key."""
        return self.theta.min(axis=1)

    @cached_property
    def ranks(self) -> np.ndarray:
        return self._over_r(self._views.summary.ranks)

    @cached_property
    def member(self) -> np.ndarray:
        return self._over_r(self._views.summary.member)

    @cached_property
    def member_counts(self) -> np.ndarray:
        """Number of sketches of R containing each key (l-set candidacy)."""
        return self.member.sum(axis=1)

    @cached_property
    def masked_weights(self) -> np.ndarray:
        """Weights over R with unknown entries set to ``−inf`` (l-set top-ℓ)."""
        weights = self._over_r(self._views.summary.weights)
        return np.where(self.member & ~np.isnan(weights), weights, -math.inf)

    @cached_property
    def weight_max(self) -> np.ndarray:
        """Largest :attr:`masked_weights` per key."""
        return self.masked_weights.max(axis=1)

    @cached_property
    def first_max(self) -> np.ndarray:
        """Per key, the first column holding :attr:`weight_max` — the one a
        stable descending sort ranks first."""
        at_max = self.masked_weights == self.weight_max[:, None]
        first = np.zeros(at_max.shape, dtype=bool, order="F")
        free = np.ones(len(at_max), dtype=bool)
        for b in range(at_max.shape[1]):
            np.logical_and(at_max[:, b], free, out=first[:, b])
            free &= ~at_max[:, b]
        return first

    @cached_property
    def order(self) -> np.ndarray:
        """Stable descending-weight column order of :attr:`masked_weights`."""
        return np.argsort(-self.masked_weights, axis=1, kind="stable")

    @cached_property
    def sorted_desc(self) -> np.ndarray:
        """:attr:`masked_weights` sorted descending along R."""
        return np.take_along_axis(self.masked_weights, self.order, axis=1)

    @cached_property
    def col_rank(self) -> np.ndarray:
        """Rank of each column in the descending-weight order (0 = largest)."""
        ranks = np.empty_like(self.order)
        np.put_along_axis(
            ranks, self.order,
            np.broadcast_to(np.arange(len(self.cols)), self.order.shape),
            axis=1,
        )
        return ranks

    def top(self, ell: int) -> tuple[np.ndarray, np.ndarray]:
        """``(w_ℓth, top_mask)``: each key's ℓ-th largest masked weight, and
        its member cells among the ℓ largest (ties to the lower column, as
        the stable sort orders them)."""
        if ell == len(self.cols):
            return self.masked_weights.min(axis=1), self.member
        if ell == 1:
            return self.weight_max, self.first_max & self.member
        return self.sorted_desc[:, ell - 1], (self.col_rank < ell) & self.member

    @cached_property
    def in_prime(self) -> np.ndarray:
        """s-set membership test ``r^(b)(i) < r^(min R)_k(I∖{i})`` per cell."""
        return self.ranks < self.theta_min[:, None]

    @cached_property
    def in_prime_counts(self) -> np.ndarray:
        return self.in_prime.sum(axis=1)

    @cached_property
    def sset_weights(self) -> np.ndarray:
        """Weights restricted to the s-set selection ``R'`` (−inf outside)."""
        return np.where(self.in_prime, self.masked_weights, -math.inf)

    def sset_top(self, ell: int) -> np.ndarray:
        """Each key's ℓ-th largest :attr:`sset_weights`."""
        if ell == len(self.cols):
            return self.sset_weights.min(axis=1)
        if ell == 1:
            return self.sset_weights.max(axis=1)
        return -np.sort(-self.sset_weights, axis=1)[:, ell - 1]

    @cached_property
    def member_cdf(self) -> np.ndarray:
        """``F_{w^(b)(i)}(θ_ib)`` over R with unknown weights treated as 0.

        The l-set membership terms of Eq. (13)/(14); identical to the
        corresponding slice of
        :attr:`SummaryViews.cdf_weight_threshold` except that −inf/NaN
        placeholders are zeroed before the CDF.
        """
        summary = self._views.summary
        safe = np.where(self.masked_weights > -math.inf, self.masked_weights, 0.0)
        return summary.family.cdf_matrix(safe, self.theta)

    @cached_property
    def seed_matrix(self) -> np.ndarray | None:
        """Seeds broadcast to ``(u, |R|)`` (``None`` without known seeds)."""
        seeds = self._views.summary.seeds
        if seeds is None:
            return None
        if seeds.ndim == 1:
            return np.broadcast_to(seeds[:, None], (len(seeds), len(self.cols)))
        return self._over_r(seeds)


def _union_and_matrices(
    sketch_keys: list[np.ndarray],
    sketch_ranks: list[np.ndarray],
    n_assignments: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union positions plus (u, m) member/rank matrices from sketch arrays."""
    non_empty = [keys for keys in sketch_keys if len(keys)]
    if non_empty:
        union = np.unique(np.concatenate(non_empty))
    else:
        union = np.empty(0, dtype=np.int64)
    u = len(union)
    member = np.zeros((u, n_assignments), dtype=bool, order="F")
    ranks = np.full((u, n_assignments), _INF, dtype=float, order="F")
    for b, (keys, rank_values) in enumerate(zip(sketch_keys, sketch_ranks)):
        if len(keys) == 0:
            continue
        rows = np.searchsorted(union, keys)
        member[rows, b] = True
        ranks[rows, b] = rank_values
    return union, member, ranks


def _seed_matrix_for_union(
    draw: RankDraw, union: np.ndarray, member: np.ndarray, mode: str
) -> np.ndarray | None:
    """Seeds the summary may carry, honouring the information model.

    Shared-seed: one seed per union key (recoverable from any membership).
    Independent (known seeds): per-assignment seeds; in dispersed mode a
    process only records the seed where the key was sampled, but since the
    seed is a *hash* of the key identifier it is recoverable for every
    assignment — so we keep the full matrix in both modes.
    """
    if draw.seeds is None:
        return None
    if draw.seeds.ndim == 1:
        return draw.seeds[union].copy()
    return np.asfortranarray(draw.seeds[union])


def _thresholds(
    member: np.ndarray, rank_k: np.ndarray, rank_kplus1: np.ndarray
) -> np.ndarray:
    """Bottom-k ``r_k(I∖{i})`` per cell, column-major: ``r_{k+1}(I)`` for
    members, ``r_k(I)`` for non-members."""
    thresholds = np.empty(member.shape, order="F")
    thresholds[...] = rank_k
    np.copyto(thresholds, rank_kplus1, where=member)
    return thresholds


def _union_weights(
    weights: np.ndarray, union: np.ndarray, member: np.ndarray, mode: str
) -> np.ndarray:
    """The union rows of a dense weight matrix, column-major; in dispersed
    mode a key's weight is known only where it was sampled."""
    union_weights = np.asfortranarray(weights[union])
    if mode == DISPERSED:
        union_weights[~member] = np.nan
    return union_weights


def build_bottomk_summary(
    weights: np.ndarray,
    draw: RankDraw,
    k: int | Sequence[int],
    assignments: Sequence[str],
    family: RankFamily,
    mode: str = COLOCATED,
    sketches: Sequence[BottomKSketch] | None = None,
) -> MultiAssignmentSummary:
    """Build a bottom-k summary from a rank draw over a dense weight matrix.

    ``k`` may be a single size or one size per assignment — the paper's
    bottom-k^(b) variant ("derivations extend easily to bottom-k(b)
    sketches", Section 4); estimators read the conditioning threshold per
    (key, assignment) cell, so heterogeneous sizes need no special casing.
    ``sketches`` may be supplied when already built (e.g. by the
    fixed-distinct-keys variant); otherwise per-assignment bottom-k
    sketches are built from the draw.
    """
    from repro.sampling.bottomk import bottomk_from_ranks

    if mode not in (COLOCATED, DISPERSED):
        raise ValueError(f"mode must be 'colocated' or 'dispersed', got {mode!r}")
    weights = np.asarray(weights, dtype=float)
    n, m = weights.shape
    if len(assignments) != m:
        raise ValueError("assignments must name every weight column")
    if np.ndim(k) == 0:
        k_per_assignment = [int(k)] * m
        summary_k = int(k)
    else:
        k_per_assignment = [int(v) for v in k]  # type: ignore[union-attr]
        if len(k_per_assignment) != m:
            raise ValueError(
                f"need one k per assignment, got {len(k_per_assignment)} "
                f"for {m} assignments"
            )
        summary_k = max(k_per_assignment)
    k = summary_k
    if sketches is None:
        sketches = [
            bottomk_from_ranks(draw.ranks[:, b], weights[:, b],
                               k_per_assignment[b])
            for b in range(m)
        ]
    union, member, ranks = _union_and_matrices(
        [sk.keys for sk in sketches], [sk.ranks for sk in sketches], m
    )
    rank_k = np.array([sk.kth_rank for sk in sketches], dtype=float)
    rank_kplus1 = np.array([sk.threshold for sk in sketches], dtype=float)
    thresholds = _thresholds(member, rank_k, rank_kplus1)
    return MultiAssignmentSummary(
        mode=mode,
        kind="bottomk",
        assignments=list(assignments),
        k=k,
        positions=union,
        member=member,
        ranks=ranks,
        weights=_union_weights(weights, union, member, mode),
        thresholds=thresholds,
        rank_k=rank_k,
        rank_kplus1=rank_kplus1,
        seeds=_seed_matrix_for_union(draw, union, member, mode),
        family=family,
        method_name=draw.method.name,
        consistent=draw.method.consistent,
    )


def build_fixed_size_summary(
    weights: np.ndarray,
    draw: RankDraw,
    k: int,
    assignments: Sequence[str],
    family: RankFamily,
    mode: str = COLOCATED,
    budget: int | None = None,
) -> MultiAssignmentSummary:
    """Colocated summary with a *fixed number of distinct keys*.

    Implements the storage-constrained variant of Section 4: pick the
    largest per-assignment size ℓ ≥ k such that the union of the bottom-ℓ
    samples holds at most ``budget`` distinct keys (default ``k·|W|``),
    then build the summary at size ℓ.  All estimators apply unchanged with
    the enlarged embedded samples; the summary's ``k`` reports ℓ.

    Note the mild conditioning caveat: ℓ is chosen from the realized ranks,
    so the rank-conditioning argument holds given ℓ; empirically the bias
    is negligible (see tests/test_fixed_size.py).
    """
    from repro.sampling.combined import fixed_size_bottomk

    ell, sketches = fixed_size_bottomk(draw.ranks, np.asarray(weights, float),
                                       k, budget)
    return build_bottomk_summary(
        weights, draw, ell, assignments, family, mode=mode, sketches=sketches
    )


def build_summary_from_sketches(
    sketches: dict[str, BottomKSketch],
    family: RankFamily,
    method_name: str = "shared_seed",
) -> MultiAssignmentSummary:
    """Assemble a dispersed summary from independently computed sketches.

    This is the collection step of a real dispersed deployment: each weight
    assignment's bottom-k sketch was produced by its own
    :class:`~repro.sampling.bottomk.BottomKStreamSampler` (coordinated only
    through the shared key hash), the sketches are shipped to one place, and
    the union summary is assembled with no access to the original data.

    Sketch ``keys`` are raw key identifiers here; the resulting summary
    carries them in ``summary.keys`` (each key object as first met, in
    first-encounter order over the sketches) and uses row indices
    internally.  Sketches whose key arrays share one integer dtype are
    united by sorting — those of an integer-keyed
    :class:`~repro.engine.ShardedSummarizer`, whether taken in process,
    decoded from a stored or fetched bundle (int64) or merged from such
    bundles; any others (object, mixed, bool or float keys, and uint64
    keys beyond int64 once decoded) by one dictionary pass, which the
    summary keeps as its :attr:`~MultiAssignmentSummary.key_index`.
    ``summary.keys`` holds Python objects either way (an integer union's
    ``tolist()``), so a key dictionary or a JSON answer cannot tell the
    two apart.  Either way each sketch's
    ranks, weights and seeds then land with one fancy-index assignment
    per column, later sketches overwriting a shared key's seed.
    """
    from repro.ranks.assignments import get_rank_method

    method = get_rank_method(method_name)
    assignments = list(sketches)
    m = len(assignments)
    if m == 0:
        raise ValueError("need at least one sketch")
    k = sketches[assignments[0]].k
    for name, sk in sketches.items():
        if sk.k != k:
            raise ValueError(
                f"sketch sizes differ: {name} has k={sk.k}, expected {k}"
            )
    key_arrays = [sk.keys for sk in sketches.values()]
    dtypes = {keys.dtype for keys in key_arrays if len(keys)}
    dtype = dtypes.pop() if len(dtypes) == 1 else None
    key_index: dict | None = None
    if dtype is not None and dtype.kind in "iu":
        union, rows = _sorted_union(key_arrays, dtype)
        union_keys = union.tolist()
    else:
        key_index = {}
        row_of = key_index.setdefault
        rows = [
            np.array(
                [row_of(key, len(key_index)) for key in keys.tolist()],
                dtype=np.intp,
            )
            for keys in key_arrays
        ]
        union_keys = list(key_index)
    u = len(union_keys)
    member = np.zeros((u, m), dtype=bool, order="F")
    ranks = np.full((u, m), _INF, dtype=float, order="F")
    weights = np.full((u, m), np.nan, dtype=float, order="F")
    seeds: np.ndarray | None = None
    if method_name == "shared_seed":
        seeds = np.full(u, np.nan, dtype=float)
    rank_k = np.empty(m)
    rank_kplus1 = np.empty(m)
    for b, (sk, row) in enumerate(zip(sketches.values(), rows)):
        rank_k[b] = sk.kth_rank
        rank_kplus1[b] = sk.threshold
        member[row, b] = True
        ranks[row, b] = sk.ranks
        weights[row, b] = sk.weights
        if seeds is not None and sk.seeds is not None:
            seeds[row] = sk.seeds
    thresholds = _thresholds(member, rank_k, rank_kplus1)
    summary = MultiAssignmentSummary(
        mode=DISPERSED,
        kind="bottomk",
        assignments=assignments,
        k=k,
        positions=np.arange(u, dtype=np.int64),
        member=member,
        ranks=ranks,
        weights=weights,
        thresholds=thresholds,
        rank_k=rank_k,
        rank_kplus1=rank_kplus1,
        seeds=seeds,
        family=family,
        method_name=method_name,
        consistent=method.consistent,
        keys=union_keys,
    )
    if key_index is not None:
        summary.__dict__["_key_index"] = key_index
    return summary


def _sorted_union(
    key_arrays: list[np.ndarray], dtype: np.dtype
) -> tuple[np.ndarray, list[np.ndarray]]:
    """First-encounter union of integer key arrays, and each array's rows.

    The same union and rows as a dictionary pass, by sorting: a quicksort
    groups the equal keys of the concatenation, ``np.minimum.reduceat``
    finds each group's first position, and those positions, read in
    order, are the union in first-encounter order.
    (``np.unique(..., return_index=True)`` would find them with a stable
    sort, which is slower than the dictionary at a few thousand keys.)
    At least one array is non-empty.
    """
    flat = np.concatenate([keys.astype(dtype, copy=False) for keys in key_arrays])
    order = np.argsort(flat)
    ordered = flat[order]
    new_group = np.empty(len(flat), dtype=bool)
    new_group[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new_group))
    is_first = np.zeros(len(flat), dtype=bool)
    is_first[first] = True
    row_at = np.cumsum(is_first) - 1  # the row of the key first met there
    rows = np.empty(len(flat), dtype=np.intp)
    rows[order] = row_at[first][np.cumsum(new_group) - 1]
    bounds = np.cumsum([len(keys) for keys in key_arrays])[:-1]
    return flat[is_first], np.split(rows, bounds)


def build_poisson_summary(
    weights: np.ndarray,
    draw: RankDraw,
    taus: np.ndarray,
    assignments: Sequence[str],
    family: RankFamily,
    mode: str = COLOCATED,
    expected_size: int | None = None,
) -> MultiAssignmentSummary:
    """Build a Poisson summary (fixed per-assignment thresholds τ^(b))."""
    from repro.sampling.poisson import poisson_sketch_matrix

    if mode not in (COLOCATED, DISPERSED):
        raise ValueError(f"mode must be 'colocated' or 'dispersed', got {mode!r}")
    weights = np.asarray(weights, dtype=float)
    n, m = weights.shape
    taus = np.asarray(taus, dtype=float)
    sketches: list[PoissonSketch] = poisson_sketch_matrix(draw.ranks, weights, taus)
    union, member, ranks = _union_and_matrices(
        [sk.keys for sk in sketches], [sk.ranks for sk in sketches], m
    )
    thresholds = np.empty((len(union), m), order="F")
    thresholds[...] = taus
    return MultiAssignmentSummary(
        mode=mode,
        kind="poisson",
        assignments=list(assignments),
        k=expected_size if expected_size is not None else 0,
        positions=union,
        member=member,
        ranks=ranks,
        weights=_union_weights(weights, union, member, mode),
        thresholds=thresholds,
        rank_k=None,
        rank_kplus1=None,
        seeds=_seed_matrix_for_union(draw, union, member, mode),
        family=family,
        method_name=draw.method.name,
        consistent=draw.method.consistent,
    )
