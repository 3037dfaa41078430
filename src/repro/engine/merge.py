"""Exact sketch merging over key-disjoint partitions.

Independent processes summarizing disjoint parts of one weight assignment
(shards of a partitioned stream, machines in a cluster, time slices of a
log) produce sketches that can be combined *exactly*: the merged sketch is
bit-for-bit what a single sampler scanning the concatenated stream would
have produced.  This is what makes bottom-k summarization shard-parallel —
the dispersed model of the paper (Sections 4, 7) already coordinates
samplers only through a shared key hash, so merging is pure sketch algebra
with no access to the original data.

Why the merge is exact (bottom-k): a sketch stores its k smallest ranks
with full (key, rank, weight, seed) detail plus the (k+1)-st smallest rank
*value* (``threshold``).  Every one of the union's k+1 smallest ranks is
among some part's k+1 smallest; and since a part's threshold is preceded by
that part's own k entries, a threshold value can never be among the union's
k smallest.  So the union's k smallest ranks all carry full detail, and its
(k+1)-st smallest value is the (k+1)-st order statistic of the combined
``ranks + thresholds`` multiset.

Poisson-τ sketches merge even more simply: the sample is *every* key with
rank below the fixed τ, so the union sample is the concatenation (parts
must share τ).

Both merges refuse duplicate keys — a duplicate means the inputs were not
a key-disjoint partition (e.g. an unaggregated stream was split by
position rather than by key) and no exact merge exists.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sampling.bottomk import BottomKSketch
from repro.sampling.poisson import PoissonSketch

__all__ = [
    "merge_bottomk",
    "merge_poisson",
    "disjoint_union",
    "refuse_duplicates",
]

_INF = math.inf
_NO_KEYS = np.empty(0, dtype=np.int64)


def _refuse(key) -> None:
    raise ValueError(
        f"key {key!r} is present in more than one sketch; merging requires "
        "key-disjoint partitions (aggregate per key before sampling, or "
        "partition the stream by key)"
    )


def _typed(keys) -> bool:
    return isinstance(keys, np.ndarray) and keys.dtype == np.int64


def disjoint_union(parts):
    """Union of the parts' keys, refusing a key present twice.

    A part is a key array or an earlier union.  When every non-empty part
    is an int64 array, the check is one concatenate + sort + adjacent-equal
    and the union a sorted int64 array; otherwise the union is a ``set``
    (keys of any hashable type, as the sketches hold them).
    """
    parts = [part for part in parts if len(part)]
    if all(map(_typed, parts)):
        union = np.sort(np.concatenate(parts)) if parts else _NO_KEYS
        shared = union[1:][union[1:] == union[:-1]]
        if len(shared):
            _refuse(shared[0].item())
        return union
    seen: set = set()
    for part in parts:
        members = part.tolist() if isinstance(part, np.ndarray) else part
        refuse_duplicates(seen, members)
        seen.update(members)
    return seen


def refuse_duplicates(seen, keys) -> None:
    """Raise the merges' duplicate-key ``ValueError`` for a key of ``keys``
    in ``seen``, a :func:`disjoint_union` (the smallest such key when both
    hold int64 keys: a binary search of ``seen``)."""
    if isinstance(seen, np.ndarray) and _typed(keys):
        if len(seen) and len(keys):
            at = np.searchsorted(seen, keys).clip(max=len(seen) - 1)
            shared = keys[seen[at] == keys]
            if len(shared):
                _refuse(shared.min().item())
        return
    members = keys.tolist() if isinstance(keys, np.ndarray) else keys
    if isinstance(seen, np.ndarray):
        seen = set(seen.tolist())
    if not seen.isdisjoint(members):
        _refuse(next(iter(seen.intersection(members))))


def _concat_entries(sketches):
    """Concatenate (keys, ranks, weights, seeds) over non-empty sketches."""
    non_empty = [sk for sk in sketches if len(sk)]
    if not non_empty:
        first = sketches[0]
        seeds = None if first.seeds is None else np.empty(0, dtype=float)
        return first.keys[:0].copy(), np.empty(0), np.empty(0), seeds
    keys = [sk.keys for sk in non_empty]
    if len({part.dtype for part in keys}) > 1:
        # never a lossy promotion (int64 beside uint64 is float64)
        keys = [part.astype(object) for part in keys]
    keys = np.concatenate(keys)
    ranks = np.concatenate([sk.ranks for sk in non_empty]).astype(float)
    weights = np.concatenate([sk.weights for sk in non_empty]).astype(float)
    if all(sk.seeds is not None for sk in non_empty):
        seeds = np.concatenate([sk.seeds for sk in non_empty]).astype(float)
    else:
        seeds = None
    return keys, ranks, weights, seeds


def merge_bottomk(
    *sketches: BottomKSketch, disjoint: bool = False
) -> BottomKSketch:
    """Exactly merge bottom-k sketches of key-disjoint partitions.

    All sketches must share ``k``.  The result equals the sketch a single
    :class:`~repro.sampling.bottomk.BottomKStreamSampler` (same family,
    same hasher) would produce over the concatenated partitions — including
    ``kth_rank`` and ``threshold``, so rank-conditioning estimators apply
    to merged sketches unchanged.  ``disjoint=True`` is a caller's word
    that it already refused duplicate keys (:func:`disjoint_union` of the
    parts' keys), so the merge does not check them again.

    >>> from repro.sampling.bottomk import bottomk_from_ranks
    >>> r = np.array([0.3, 0.1, 0.7, 0.2])
    >>> w = np.ones(4)
    >>> full = bottomk_from_ranks(r, w, k=2)
    >>> left = bottomk_from_ranks(np.where([1, 1, 0, 0], r, np.inf),
    ...                           np.where([1, 1, 0, 0], w, 0.0), k=2)
    >>> right = bottomk_from_ranks(np.where([0, 0, 1, 1], r, np.inf),
    ...                            np.where([0, 0, 1, 1], w, 0.0), k=2)
    >>> merged = merge_bottomk(left, right)
    >>> merged.keys.tolist() == full.keys.tolist()
    True
    >>> float(merged.threshold) == float(full.threshold)
    True
    """
    if not sketches:
        raise ValueError("need at least one sketch to merge")
    k = sketches[0].k
    for sk in sketches:
        if sk.k != k:
            raise ValueError(f"sketch sizes differ: got k={sk.k}, expected {k}")
    if not disjoint:
        disjoint_union([sk.keys for sk in sketches])
    keys, ranks, weights, seeds = _concat_entries(sketches)
    order = np.argsort(ranks, kind="stable")
    sample = order[: min(k, len(order))]
    # The union's k-th / (k+1)-st smallest rank values: order statistics of
    # the combined entry ranks plus each part's threshold sentinel (a
    # sentinel is preceded by its own part's k entries, so it can never
    # land among the union's k smallest).
    sentinels = np.array([sk.threshold for sk in sketches], dtype=float)
    vals = np.sort(np.concatenate([ranks, sentinels]))
    kth_rank = float(vals[k - 1]) if vals.size >= k else _INF
    threshold = float(vals[k]) if vals.size >= k + 1 else _INF
    return BottomKSketch(
        k=k,
        keys=keys[sample],
        ranks=ranks[sample],
        weights=weights[sample],
        kth_rank=kth_rank,
        threshold=threshold,
        seeds=None if seeds is None else seeds[sample],
    )


def merge_poisson(
    *sketches: PoissonSketch, disjoint: bool = False
) -> PoissonSketch:
    """Exactly merge Poisson-τ sketches of key-disjoint partitions.

    All sketches must share τ (inclusion below a *fixed* threshold is what
    makes the Poisson union a plain concatenation); entries are re-sorted
    by rank.  ``disjoint`` as for :func:`merge_bottomk`.
    """
    if not sketches:
        raise ValueError("need at least one sketch to merge")
    tau = sketches[0].tau
    for sk in sketches:
        if sk.tau != tau:
            raise ValueError(
                f"Poisson thresholds differ: got tau={sk.tau}, expected {tau}"
            )
    if not disjoint:
        disjoint_union([sk.keys for sk in sketches])
    keys, ranks, weights, seeds = _concat_entries(sketches)
    order = np.argsort(ranks, kind="stable")
    return PoissonSketch(
        tau=tau,
        keys=keys[order],
        ranks=ranks[order],
        weights=weights[order],
        seeds=None if seeds is None else seeds[order],
    )
