"""Combined (multi-assignment) sample structure.

Utilities over sets of per-assignment sketches:

* :func:`union_positions` — the distinct keys of the combined sample (its
  storage cost; the numerator of the sharing index, Section 9.3);
* :func:`fixed_size_bottomk` — the colocated variant with a *fixed number
  of distinct keys*: the largest per-assignment size ℓ ≥ k such that the
  union of the bottom-ℓ samples holds at most ``|W|·k`` distinct keys
  (Section 4, "Fixed number of distinct keys for colocated data").
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.sampling.bottomk import BottomKSketch, bottomk_from_ranks

__all__ = ["union_positions", "fixed_size_bottomk"]

_INF = math.inf


def union_positions(sketches: Sequence[BottomKSketch]) -> np.ndarray:
    """Sorted distinct key positions in the union of the sketches."""
    if not sketches:
        return np.empty(0, dtype=np.int64)
    parts = [sk.keys.astype(np.int64) for sk in sketches if len(sk)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def fixed_size_bottomk(
    ranks: np.ndarray,
    weights: np.ndarray,
    k: int,
    budget: int | None = None,
) -> tuple[int, list[BottomKSketch]]:
    """Largest ℓ ≥ k whose bottom-ℓ union stays within the key budget.

    Returns ``(ell, sketches)`` where ``sketches`` are the per-assignment
    bottom-ℓ sketches.  The default budget is ``k * n_assignments``
    (the storage an uncoordinated design would need); the paper guarantees
    the resulting union holds at least ``|W|·(k−1)+1`` distinct keys.

    >>> rng = np.random.default_rng(3)
    >>> r = rng.random((50, 2)); w = np.ones((50, 2))
    >>> ell, sks = fixed_size_bottomk(r, w, k=5)
    >>> ell >= 5
    True
    """
    n, m = ranks.shape
    if budget is None:
        budget = k * m
    if budget < k * 1:
        raise ValueError(f"budget {budget} cannot hold even one bottom-{k} sketch")

    def union_size(ell: int) -> int:
        sketches = [
            bottomk_from_ranks(ranks[:, b], weights[:, b], ell) for b in range(m)
        ]
        return len(union_positions(sketches))

    max_positive = int((np.asarray(weights) > 0.0).any(axis=1).sum())
    lo = k
    if union_size(lo) > budget:
        # Even ℓ = k overflows; the spec says ℓ >= k, so return ℓ = k.
        ell = k
    else:
        hi = max(k + 1, min(max_positive, budget))
        while union_size(hi) <= budget and hi < max_positive:
            lo = hi
            hi = min(max_positive, hi * 2)
        # invariant: union_size(lo) <= budget; find the boundary in (lo, hi].
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if union_size(mid) <= budget:
                lo = mid
            else:
                hi = mid
        if union_size(hi) <= budget:
            lo = hi
        ell = lo
    sketches = [
        bottomk_from_ranks(ranks[:, b], weights[:, b], ell) for b in range(m)
    ]
    return ell, sketches
