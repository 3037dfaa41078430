"""Bottom-k (order) sampling.

A bottom-k sample of a weighted set keeps the k keys of smallest rank
(Section 3).  The sketch additionally stores the (k+1)-st smallest rank
``r_{k+1}(I)`` — the quantity every rank-conditioning estimator conditions
on — and, for multi-assignment summaries, enough per-assignment bookkeeping
to recover ``r_k(I \\ {i})`` for any key ``i`` (Section 6):

* ``r_k(I \\ {i}) = r_{k+1}(I)`` when ``i`` is in the sketch,
* ``r_k(I \\ {i}) = r_k(I)``     when it is not.

Two construction paths are provided:

* :func:`bottomk_from_ranks` / :func:`bottomk_sketch_matrix` — matrix mode,
  for the evaluation harness (ranks already drawn for all keys);
* :class:`BottomKStreamSampler` — a one-pass, O(log k)-per-item stream
  sampler with hash-coordinated seeds, the algorithm a dispersed-weights
  deployment would actually run.  :meth:`BottomKStreamSampler.process_batch`
  is the vectorized hot path: it ranks a whole numpy batch at once and
  folds only the batch's k+1 smallest candidates into the heap.

Merge semantics
---------------
Bottom-k sketches are *mergeable* over key-disjoint partitions of a weight
assignment (:func:`repro.engine.merge_bottomk`, or
:meth:`BottomKSketch.merge`).  Because a sketch stores its k smallest ranks
plus the (k+1)-st smallest rank *value* (``threshold``), the k+1 smallest
ranks of a union of disjoint parts are recoverable exactly: every one of
them is among some part's k+1 smallest, and a part's threshold value can
never sit among the union's k smallest (its own k entries are below it).
The merged sketch therefore has exactly the keys, ranks, ``kth_rank``, and
``threshold`` that a single sampler scanning the concatenated stream would
produce — the identity behind shard-parallel summarization
(:class:`repro.engine.ShardedSummarizer`).  Merging requires equal ``k``
and raises on duplicate keys, which would indicate an unaggregated or
overlapping partition.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.ranks.families import RankFamily
from repro.ranks.hashing import KeyHasher, as_key_array, tie_order

__all__ = [
    "BottomKSketch",
    "bottomk_from_ranks",
    "bottomk_sketch_matrix",
    "BottomKStreamSampler",
    "aggregate_stream",
]

_INF = math.inf


def _float_bits_equal(a: float, b: float) -> bool:
    """IEEE-754 bit equality (NaN == NaN, ``-0.0 != 0.0``)."""
    return struct.pack("<d", float(a)) == struct.pack("<d", float(b))


def _array_bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise array equality: same dtype, shape, and raw bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class BottomKSketch:
    """A bottom-k sketch of one weight assignment.

    Attributes
    ----------
    k:
        the requested sample size.
    keys:
        sampled key identifiers (dataset positions in matrix mode, raw key
        identifiers in stream mode), ordered by increasing rank.  Length is
        ``min(k, #positive-weight keys)``.
    ranks:
        rank values of the sampled keys (same order).
    weights:
        weights of the sampled keys (same order).
    kth_rank:
        ``r_k(I)`` — the k-th smallest rank over the full set; ``+inf``
        when fewer than k keys have finite rank.
    threshold:
        ``r_{k+1}(I)`` — the (k+1)-st smallest rank; ``+inf`` when at most
        k keys have finite rank.
    seeds:
        optional per-sampled-key seeds ``u(i)`` (known-seeds sketches);
        ``None`` when the sampling method does not expose seeds.
    """

    k: int
    keys: np.ndarray
    ranks: np.ndarray
    weights: np.ndarray
    kth_rank: float
    threshold: float
    seeds: np.ndarray | None = None
    _members: set = field(default=None, repr=False)  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: Hashable) -> bool:
        if self._members is None:  # built on the first lookup
            self._members = set(self.keys.tolist())
        return key in self._members

    def rank_k_excluding(self, key: Hashable) -> float:
        """``r_k(I \\ {key})``, recoverable from the sketch alone."""
        return self.threshold if key in self else self.kth_rank

    def copy(self) -> "BottomKSketch":
        """Deep copy: arrays and membership set are not shared.

        Accessors that hand sketches across an ownership boundary (e.g.
        :meth:`repro.engine.ShardedSummarizer.sketches`) return copies so
        callers can mutate what they receive without corrupting cached
        internal state.
        """
        return BottomKSketch(
            k=self.k,
            keys=self.keys.copy(),
            ranks=self.ranks.copy(),
            weights=self.weights.copy(),
            kth_rank=self.kth_rank,
            threshold=self.threshold,
            seeds=None if self.seeds is None else self.seeds.copy(),
        )

    def equals(self, other: "BottomKSketch") -> bool:
        """Bit-exact equality: same k, keys, and float bit patterns.

        Float arrays are compared by their raw bytes (so ``+inf`` and NaN
        cells compare exactly and ``-0.0 != 0.0``), which is the contract
        the store codec round-trip tests pin down.
        """
        if not isinstance(other, BottomKSketch):
            return False
        if self.k != other.k or len(self) != len(other):
            return False
        if not _float_bits_equal(self.kth_rank, other.kth_rank):
            return False
        if not _float_bits_equal(self.threshold, other.threshold):
            return False
        if (self.seeds is None) != (other.seeds is None):
            return False
        if self.keys.tolist() != other.keys.tolist():
            return False
        if not _array_bits_equal(self.ranks, other.ranks):
            return False
        if not _array_bits_equal(self.weights, other.weights):
            return False
        if self.seeds is not None and not _array_bits_equal(
            self.seeds, other.seeds
        ):
            return False
        return True

    def items(self) -> Iterator[tuple[Hashable, float, float]]:
        """Iterate ``(key, rank, weight)`` triples in rank order."""
        return zip(self.keys.tolist(), self.ranks, self.weights)

    def merge(self, *others: "BottomKSketch") -> "BottomKSketch":
        """Exact merge with sketches over key-disjoint partitions.

        Convenience wrapper around :func:`repro.engine.merge_bottomk`; see
        the module docstring for the merge semantics.
        """
        from repro.engine.merge import merge_bottomk

        return merge_bottomk(self, *others)

    def scaled(self, factor: float) -> "BottomKSketch":
        """The sketch of the same data with every weight scaled by ``factor``.

        For both rank families used here, ``P(rank(c·w, u) <= x) =
        F_{cw}(x) = F_w(cx) = P(rank(w, u)/c <= x)`` — scaling a weight by
        ``c`` is exactly dividing its rank by ``c`` (EXP:
        ``-log1p(-u)/(cw)``; IPPS: ``u/(cw)``).  A uniform factor
        therefore preserves sample membership and rank order, and the
        transformed sketch (weights ``×c``, ranks, ``kth_rank`` and
        ``threshold`` ``÷c``, seeds unchanged) is bit-for-bit what a
        sampler fed the scaled weights would have produced.  This is the
        primitive behind time-decayed queries: a per-bucket decay factor
        applied at query time, exact under merge.
        """
        factor = float(factor)
        if not (math.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be finite and > 0, got {factor!r}")
        return BottomKSketch(
            k=self.k,
            keys=self.keys.copy(),
            ranks=self.ranks / factor,
            weights=self.weights * factor,
            kth_rank=self.kth_rank / factor,
            threshold=self.threshold / factor,
            seeds=None if self.seeds is None else self.seeds.copy(),
        )


def bottomk_from_ranks(
    ranks: np.ndarray,
    weights: np.ndarray,
    k: int,
    seeds: np.ndarray | None = None,
) -> BottomKSketch:
    """Build a bottom-k sketch from a full rank column (matrix mode).

    ``ranks`` must already be ``+inf`` wherever the weight is zero.

    >>> sk = bottomk_from_ranks(np.array([0.3, 0.1, 0.7]),
    ...                         np.array([1.0, 2.0, 3.0]), k=2)
    >>> sk.keys.tolist(), float(sk.threshold)
    ([1, 0], 0.7)
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(ranks)
    finite = int(np.count_nonzero(np.isfinite(ranks)))
    take = min(k + 1, finite)
    if take == 0:
        empty = np.empty(0)
        return BottomKSketch(
            k, np.empty(0, dtype=np.int64), empty, empty.copy(), _INF, _INF
        )
    if take < n:
        candidate = np.argpartition(ranks, take - 1)[:take]
    else:
        candidate = np.arange(n)[np.isfinite(ranks)]
    order = candidate[np.argsort(ranks[candidate], kind="stable")]
    if finite > k:
        sample = order[:k]
        threshold = float(ranks[order[k]])
        kth_rank = float(ranks[order[k - 1]])
    else:
        sample = order
        threshold = _INF
        kth_rank = float(ranks[order[k - 1]]) if finite == k else _INF
    sample_seeds = seeds[sample].copy() if seeds is not None else None
    return BottomKSketch(
        k=k,
        keys=sample.astype(np.int64),
        ranks=ranks[sample].copy(),
        weights=weights[sample].copy(),
        kth_rank=kth_rank,
        threshold=threshold,
        seeds=sample_seeds,
    )


def bottomk_sketch_matrix(
    ranks: np.ndarray,
    weights: np.ndarray,
    k: int,
    seeds: np.ndarray | None = None,
) -> list[BottomKSketch]:
    """Bottom-k sketches for every column of an ``(n, m)`` rank matrix.

    ``seeds`` may be ``(n,)`` (shared seed) or ``(n, m)`` (per-assignment).
    """
    n, m = ranks.shape
    out = []
    for b in range(m):
        if seeds is None:
            col_seeds = None
        elif seeds.ndim == 1:
            col_seeds = seeds
        else:
            col_seeds = seeds[:, b]
        out.append(bottomk_from_ranks(ranks[:, b], weights[:, b], k, col_seeds))
    return out


class _HeapKey:
    """A key as the sampler's heap compares it: of two entries tied on
    rank and seed, the one whose key is later in :func:`tie_order` is the
    larger — evicted first, sorted last.  Keys are never compared raw, so
    a ``str`` tied with its ``bytes`` twin cannot raise."""

    __slots__ = ("key",)

    def __init__(self, key: Hashable) -> None:
        self.key = key

    def __lt__(self, other: "_HeapKey") -> bool:
        return tie_order(other.key) < tie_order(self.key)


class BottomKStreamSampler:
    """One-pass bottom-k sampler over an aggregated (key, weight) stream.

    Maintains the ``k+1`` smallest-rank keys in a max-heap, so processing a
    stream of n aggregated items costs O(n log k).  Ranks come from
    ``family.rank(weight, hasher(key))`` — with a shared hasher, samplers
    run over different weight assignments produce *coordinated* sketches
    without any communication (the dispersed model, Section 4).  Rank
    ties are broken by seed, then by :func:`~repro.ranks.hashing.tie_order`
    of the key, as in a :class:`~repro.engine.ShardedSummarizer`'s generic
    table, so the sample never depends on arrival order.

    >>> from repro.ranks import IppsRanks, KeyHasher
    >>> sampler = BottomKStreamSampler(k=2, family=IppsRanks(),
    ...                                hasher=KeyHasher(7))
    >>> for key, weight in [("a", 5.0), ("b", 1.0), ("c", 9.0)]:
    ...     sampler.process(key, weight)
    >>> sorted(sampler.sketch().keys.tolist()) == sorted(
    ...     sampler.sketch().keys.tolist())
    True
    """

    def __init__(self, k: int, family: RankFamily, hasher: KeyHasher) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.family = family
        self.hasher = hasher
        # heap entries: (-rank, -seed, _HeapKey(key), weight); heap[0] is
        # the largest (rank, seed, key) among the kept k+1 candidates.
        self._heap: list[tuple[float, float, _HeapKey, float]] = []
        self._seen: set[Hashable] = set()

    def process(self, key: Hashable, weight: float) -> None:
        """Feed one aggregated (key, weight) item.

        Keys must be aggregated upstream (each key seen once); feed
        unaggregated streams through :func:`aggregate_stream` first.

        A single-element view onto :meth:`process_batch`: the scalar and
        batch paths share one implementation, so they cannot drift (the
        object-dtype wrapper routes key hashing through the same per-key
        fallback the scalar path always used, keeping ranks bit-identical).
        """
        if isinstance(key, float) and key != key:
            raise ValueError(
                "NaN key; NaN is never equal to itself, so it cannot serve "
                "as a key identity"
            )
        keys = np.empty(1, dtype=object)
        keys[0] = key
        self.process_batch(keys, np.array([weight], dtype=float))

    def process_stream(self, items: Iterable[tuple[Hashable, float]]) -> None:
        """Feed an iterable of aggregated (key, weight) items."""
        for key, weight in items:
            self.process(key, weight)

    def process_batch(self, keys, weights) -> None:
        """Feed a whole batch of aggregated (key, weight) items at once.

        Vectorized equivalent of calling :meth:`process` per item: seeds
        come from :meth:`KeyHasher.hash_array`, ranks from
        :meth:`RankFamily.ranks_array`, and only the batch's ``k + 1``
        smallest-rank candidates (selected with ``argpartition`` after
        pruning ranks at or above the current heap bound) are folded into
        the heap — O(batch) numpy work plus O(k log k) Python work per
        batch instead of O(batch) Python work.  The resulting sketch is
        identical to the per-item path's.

        Keys must be aggregated across the sampler's whole lifetime: a key
        may appear at most once over all ``process``/``process_batch``
        calls, otherwise ``ValueError`` is raised.
        """
        keys_arr = as_key_array(keys)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {weights.shape}")
        if len(keys_arr) != len(weights):
            raise ValueError(
                f"keys and weights must have equal length, got "
                f"{len(keys_arr)} and {len(weights)}"
            )
        if len(keys_arr) == 0:
            return
        if not np.isfinite(weights).all():
            bad = int(np.flatnonzero(~np.isfinite(weights))[0])
            raise ValueError(
                f"non-finite weight {weights[bad]!r} for key "
                f"{keys_arr[bad]!r}"
            )
        key_list = keys_arr.tolist()
        batch_keys = set(key_list)
        if len(batch_keys) != len(key_list):
            once: set = set()
            for key in key_list:
                if key in once:
                    raise ValueError(
                        f"key {key!r} appears twice in the batch; bottom-k "
                        "sampling requires aggregated keys (see "
                        "aggregate_stream)"
                    )
                once.add(key)
        repeated = self._seen.intersection(batch_keys)
        if repeated:
            raise ValueError(
                f"key {next(iter(repeated))!r} seen twice; bottom-k sampling "
                "requires aggregated keys (see aggregate_stream)"
            )
        self._seen |= batch_keys
        candidates = np.flatnonzero(weights > 0.0)
        if candidates.size == 0:
            return
        seeds = self.hasher.hash_array(keys_arr[candidates])
        ranks = self.family.ranks_array(weights[candidates], seeds)
        # Hoist attribute and global lookups out of the fold below: the
        # loop body runs up to k + 1 times per batch, and dotted lookups
        # are a measurable fraction of it for small batches.
        heap = self._heap
        k = self.k
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        # A candidate tied with the bound (or the cut) on rank may still
        # win on seed or key, so both prunes keep ties.
        if len(heap) > k:
            keep = np.flatnonzero(ranks <= -heap[0][0])
            candidates, ranks, seeds = candidates[keep], ranks[keep], seeds[keep]
        limit = k + 1
        if ranks.size > limit:
            keep = np.flatnonzero(
                ranks <= np.partition(ranks, limit - 1)[limit - 1]
            )
            candidates, ranks, seeds = candidates[keep], ranks[keep], seeds[keep]
        # Ascending fold: once a candidate fails to beat the heap bound,
        # no later (larger) candidate can succeed either.  The surviving
        # entries are gathered to Python scalars in one pass instead of
        # per-iteration numpy scalar indexing; the lexsort orders them by
        # (rank, seed), so the Python sort only reorders full ties.
        order = np.lexsort((seeds, ranks))
        positions = candidates[order].tolist()
        fold = sorted(
            zip(
                (-ranks[order]).tolist(),
                (-seeds[order]).tolist(),
                [_HeapKey(key_list[pos]) for pos in positions],
                weights[positions].tolist(),
            ),
            reverse=True,
        )
        for entry in fold:
            if len(heap) <= k:
                heappush(heap, entry)
            elif heap[0] < entry:
                heapreplace(heap, entry)
            else:
                break

    def sketch(self) -> BottomKSketch:
        """Materialize the sketch from the current sampler state."""
        entries = sorted(self._heap, reverse=True)
        if len(entries) > self.k:
            sample = entries[: self.k]
            threshold = -entries[self.k][0]
            kth_rank = -sample[-1][0]
        else:
            sample = entries
            threshold = _INF
            kth_rank = -sample[-1][0] if len(sample) == self.k else _INF
        # Elementwise fill: np.array would explode tuple keys into 2-D.
        keys = np.empty(len(sample), dtype=object)
        for pos, entry in enumerate(sample):
            keys[pos] = entry[2].key
        return BottomKSketch(
            k=self.k,
            keys=keys,
            ranks=-np.array([e[0] for e in sample], dtype=float),
            weights=np.array([e[3] for e in sample], dtype=float),
            kth_rank=kth_rank,
            threshold=threshold,
            seeds=-np.array([e[1] for e in sample], dtype=float),
        )


def aggregate_stream(
    items: Iterable[tuple[Hashable, float]],
) -> dict[Hashable, float]:
    """Aggregate an unaggregated stream into per-key total weights.

    This is the pre-aggregation step the paper assumes (e.g. packets of the
    same flow summed into one flow record before sampling).

    >>> aggregate_stream([("a", 1.0), ("b", 2.0), ("a", 3.0)])
    {'a': 4.0, 'b': 2.0}
    """
    totals: dict[Hashable, float] = {}
    for key, weight in items:
        if weight < 0.0:
            raise ValueError(f"negative weight {weight!r} for key {key!r}")
        totals[key] = totals.get(key, 0.0) + weight
    return totals
