"""Rank assignments for multi-assignment data (Section 4 of the paper).

A rank assignment for ``(I, W)`` gives every key ``i`` a *rank vector* with
one entry per weight assignment ``b``.  Requirements (paper, Section 4):

1. entry ``r^(b)(i)`` is distributed ``f_{w^(b)(i)}``;
2. rank vectors of different keys are independent;
3. the rank-vector distribution of a key depends only on its weight vector.

Three constructions are implemented:

* :class:`IndependentRanks` — entries of each rank vector are independent;
  yields *independent* sketches (the baseline the paper beats).
* :class:`SharedSeedRanks` — one seed ``u(i)`` per key, every entry is
  ``F_{w^(b)(i)}^{-1}(u(i))``.  Consistent; minimizes the expected number
  of distinct keys in the union of the sketches (Theorem 4.2).
* :class:`IndependentDifferencesRanks` — EXP-only consistent construction
  from exponential increments; gives the weighted-Jaccard property of
  k-mins sketches (Theorem 4.1).

All methods come in two flavours: RNG-driven (colocated summarization,
everything drawn in one process) and hash-driven (dispersed summarization,
where the seed of a key is a keyed hash so that processes that never
communicate still agree on it).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Hashable, Sequence

import numpy as np

from repro.ranks.families import ExponentialRanks, RankFamily
from repro.ranks.hashing import KeyHasher

__all__ = [
    "RankDraw",
    "RankMethod",
    "IndependentRanks",
    "SharedSeedRanks",
    "IndependentDifferencesRanks",
    "get_rank_method",
]

_INF = math.inf


class RankDraw:
    """Outcome of drawing a rank assignment for an (n keys × m assignments) matrix.

    Attributes
    ----------
    ranks:
        ``(n, m)`` array; ``ranks[i, b]`` is the rank of key ``i`` under
        assignment ``b`` (``+inf`` where the weight is zero).
    seeds:
        the "known seeds" the resulting sketches can carry.  ``(n,)`` for
        shared-seed (the common ``u(i)``), ``(n, m)`` for independent ranks
        drawn with known seeds, ``None`` when seeds are not meaningful
        (independent-differences).
    method:
        the :class:`RankMethod` that produced the draw.
    """

    __slots__ = ("ranks", "seeds", "method")

    def __init__(
        self, ranks: np.ndarray, seeds: np.ndarray | None, method: "RankMethod"
    ) -> None:
        self.ranks = ranks
        self.seeds = seeds
        self.method = method

    @property
    def n_keys(self) -> int:
        return self.ranks.shape[0]

    @property
    def n_assignments(self) -> int:
        return self.ranks.shape[1]


class RankMethod(ABC):
    """Strategy for turning weight vectors into rank vectors."""

    #: short identifier used in configs and reports
    name: str = "abstract"
    #: True when ranks are consistent (w1 >= w2 implies r1 <= r2 per key)
    consistent: bool = False
    #: True when per-assignment seeds are recoverable from the sketch
    known_seeds: bool = False

    @abstractmethod
    def draw(
        self, family: RankFamily, weights: np.ndarray, rng: np.random.Generator
    ) -> RankDraw:
        """Draw ranks for a dense ``(n, m)`` weight matrix using ``rng``."""

    @abstractmethod
    def draw_hashed(
        self,
        family: RankFamily,
        weights: np.ndarray,
        keys: Sequence[Hashable],
        hasher: KeyHasher,
    ) -> RankDraw:
        """Draw ranks using keyed hashes of the key identifiers.

        This is the dispersed-weights path: two processes holding different
        weight assignments over overlapping keys will produce *coordinated*
        sketches as long as they share ``hasher`` — no communication needed.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _validate_weights(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"weights must be a 2-D matrix, got shape {weights.shape}")
    if np.any(weights < 0.0):
        raise ValueError("weights must be non-negative")
    return weights


class IndependentRanks(RankMethod):
    """Every (key, assignment) entry gets an independent seed.

    Produces *independent sketches*: the union of per-assignment samples
    retains no information about relations between assignments, which is why
    multiple-assignment estimators over independent sketches are weak
    (inclusion probabilities shrink exponentially in |R|; Section 7.2).
    """

    name = "independent"
    consistent = False
    known_seeds = True

    def draw(
        self, family: RankFamily, weights: np.ndarray, rng: np.random.Generator
    ) -> RankDraw:
        weights = _validate_weights(weights)
        n, m = weights.shape
        seeds = rng.random((n, m))
        # Guard against an exact 0.0 from the RNG (inv_cdf needs (0, 1)).
        np.clip(seeds, 1e-300, 1.0 - 1e-16, out=seeds)
        ranks = np.empty_like(weights)
        for b in range(m):
            ranks[:, b] = family.ranks_array(weights[:, b], seeds[:, b])
        return RankDraw(ranks, seeds, self)

    def draw_hashed(
        self,
        family: RankFamily,
        weights: np.ndarray,
        keys: Sequence[Hashable],
        hasher: KeyHasher,
    ) -> RankDraw:
        weights = _validate_weights(weights)
        n, m = weights.shape
        if len(keys) != n:
            raise ValueError("keys must match the number of weight rows")
        seeds = np.empty((n, m), dtype=float)
        for b in range(m):
            # A different derived hash family per assignment makes the
            # per-assignment seeds (practically) independent.
            seeds[:, b] = hasher.derive(b).many(keys)
        ranks = np.empty_like(weights)
        for b in range(m):
            ranks[:, b] = family.ranks_array(weights[:, b], seeds[:, b])
        return RankDraw(ranks, seeds, self)


class SharedSeedRanks(RankMethod):
    """One seed per key, shared by all assignments (consistent ranks).

    ``r^(b)(i) = F^{-1}_{w^(b)(i)}(u(i))``; monotonicity of the family makes
    the construction consistent.  For IPPS ranks this is ``u(i)/w^(b)(i)``
    and for EXP ranks ``-ln(1-u(i))/w^(b)(i)``.
    """

    name = "shared_seed"
    consistent = True
    known_seeds = True

    def draw(
        self, family: RankFamily, weights: np.ndarray, rng: np.random.Generator
    ) -> RankDraw:
        weights = _validate_weights(weights)
        n, m = weights.shape
        seeds = rng.random(n)
        np.clip(seeds, 1e-300, 1.0 - 1e-16, out=seeds)
        ranks = np.empty_like(weights)
        for b in range(m):
            ranks[:, b] = family.ranks_array(weights[:, b], seeds)
        return RankDraw(ranks, seeds, self)

    def draw_hashed(
        self,
        family: RankFamily,
        weights: np.ndarray,
        keys: Sequence[Hashable],
        hasher: KeyHasher,
    ) -> RankDraw:
        weights = _validate_weights(weights)
        n, m = weights.shape
        if len(keys) != n:
            raise ValueError("keys must match the number of weight rows")
        seeds = np.asarray(hasher.many(keys), dtype=float)
        ranks = np.empty_like(weights)
        for b in range(m):
            ranks[:, b] = family.ranks_array(weights[:, b], seeds)
        return RankDraw(ranks, seeds, self)


class IndependentDifferencesRanks(RankMethod):
    """EXP-only consistent ranks built from exponential increments.

    For each key, sort its weight vector ``w_(1) <= ... <= w_(h)``, draw
    independent increments ``d_j ~ Exp(w_(j) - w_(j-1))`` (``+inf`` when the
    difference is zero, so equal weights get equal ranks), and set the rank
    of the assignment with the j-th smallest weight to ``min_{a<=j} d_a``.
    Marginally each rank is ``Exp(w)``; jointly the construction is
    consistent and yields the weighted-Jaccard property for k-mins sketches
    (Theorem 4.1).

    The paper notes the construction is not suited to dispersed weights (it
    would need range-summable hash functions), so :meth:`draw_hashed`
    raises ``NotImplementedError``.
    """

    name = "independent_differences"
    consistent = True
    known_seeds = False

    def draw(
        self, family: RankFamily, weights: np.ndarray, rng: np.random.Generator
    ) -> RankDraw:
        if not isinstance(family, ExponentialRanks):
            raise ValueError(
                "independent-differences ranks are defined only for EXP ranks"
            )
        weights = _validate_weights(weights)
        n, m = weights.shape
        order = np.argsort(weights, axis=1, kind="stable")
        sorted_w = np.take_along_axis(weights, order, axis=1)
        diffs = np.diff(sorted_w, axis=1, prepend=0.0)
        # d_j = E_j / diff_j with E_j ~ Exp(1); diff == 0 gives +inf, which
        # keeps equal weights at equal ranks and zero weights at rank +inf;
        # a denormal diff overflows to +inf, a rank that is never sampled.
        std_exp = rng.standard_exponential((n, m))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            increments = std_exp / diffs
        increments[diffs == 0.0] = _INF
        sorted_ranks = np.minimum.accumulate(increments, axis=1)
        ranks = np.empty_like(sorted_ranks)
        np.put_along_axis(ranks, order, sorted_ranks, axis=1)
        return RankDraw(ranks, None, self)

    def draw_hashed(
        self,
        family: RankFamily,
        weights: np.ndarray,
        keys: Sequence[Hashable],
        hasher: KeyHasher,
    ) -> RankDraw:
        raise NotImplementedError(
            "independent-differences ranks require the full weight vector per "
            "key and are not applicable to dispersed (hash-coordinated) "
            "summarization; use shared_seed instead"
        )


_METHODS: dict[str, RankMethod] = {
    IndependentRanks.name: IndependentRanks(),
    SharedSeedRanks.name: SharedSeedRanks(),
    IndependentDifferencesRanks.name: IndependentDifferencesRanks(),
}


def get_rank_method(name: str) -> RankMethod:
    """Look a rank method up by name.

    >>> get_rank_method("shared_seed").consistent
    True
    """
    try:
        return _METHODS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_METHODS))
        raise ValueError(f"unknown rank method {name!r}; known: {known}") from None
