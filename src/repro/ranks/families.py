"""Monotone rank-function families (Section 3 of the paper).

A rank family is a family of probability distributions ``f_w`` indexed by a
weight ``w >= 0``.  A key with weight ``w`` receives a rank drawn from
``f_w``; samples keep the keys with *smallest* ranks, so heavier keys must
stochastically receive smaller ranks.  The paper works with two families:

* **EXP ranks** — ``f_w = Exp(w)`` with CDF ``F_w(x) = 1 - exp(-w x)``.
  The minimum rank of a set is Exp(total weight), the property behind
  k-mins estimators and the independent-differences construction.
* **IPPS ranks** — ``f_w = U[0, 1/w]`` with CDF ``F_w(x) = min(1, w x)``.
  Poisson sampling with IPPS ranks is inclusion-probability-proportional-
  to-size sampling; bottom-k sampling with IPPS ranks is priority sampling.

Both families are *monotone*: ``w1 >= w2`` implies ``F_{w1}(x) >= F_{w2}(x)``
for every ``x``, which is what makes shared-seed ranks consistent.
Zero-weight keys always receive rank ``+inf`` and are never sampled.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "RankFamily", "ExponentialRanks", "IppsRanks", "RANK_FAMILIES",
    "get_rank_family",
]

_INF = math.inf


class RankFamily(ABC):
    """A monotone family of rank distributions ``f_w`` (w >= 0).

    Subclasses implement the CDF and inverse CDF; everything else in the
    library (samplers, estimators) is written against this interface, so EXP
    and IPPS ranks are interchangeable throughout.

    Invariant every family must keep, in IEEE arithmetic and not only on
    paper: at a fixed seed ``u``, ``ranks_array(w, u)`` is non-increasing
    in ``w`` — a key whose weight grows never gets a larger rank.  Both
    families here divide a seed-only numerator by ``w``, and a correctly
    rounded division is monotone in its divisor.  The engine's incremental
    finalization rests on it (an untouched key outside a table's ``k + 1``
    smallest ranks can never enter them when other keys' totals grow), as
    does :meth:`~repro.sampling.bottomk.BottomKSketch.scaled` (a uniform
    factor preserves rank order).
    """

    #: short identifier used in experiment configs and reports
    name: str = "abstract"

    @abstractmethod
    def cdf(self, weight: float, x: float) -> float:
        """Return ``F_w(x)``, the probability that the rank is below ``x``.

        Must satisfy ``cdf(w, x) == 0`` whenever ``weight == 0`` and be
        monotone non-decreasing in both ``weight`` and ``x``.
        """

    @abstractmethod
    def inv_cdf(self, weight: float, u: float) -> float:
        """Return ``F_w^{-1}(u)`` for ``u in (0, 1)``; ``+inf`` if w == 0.

        Feeding the same ``u`` through ``inv_cdf`` for two weights
        ``w1 >= w2`` must give ranks ``r1 <= r2`` (shared-seed consistency).
        """

    def rank(self, weight: float, u: float) -> float:
        """Rank of a key with ``weight`` from seed ``u`` (alias of inv_cdf)."""
        if weight <= 0.0:
            return _INF
        return self.inv_cdf(weight, u)

    def cdf_array(self, weights: np.ndarray, x: float) -> np.ndarray:
        """Vectorized ``F_w(x)`` over an array of weights."""
        return np.array([self.cdf(float(w), x) for w in weights])

    def cdf_matrix(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Elementwise ``F_{w_ij}(x_ij)`` for matching-shape arrays.

        Handles the degenerate combinations explicitly: zero weight or
        non-positive threshold gives 0, infinite threshold with positive
        weight gives 1 (so ``0 * inf`` never leaks a NaN).
        """
        weights = np.asarray(weights, dtype=float)
        x = np.asarray(x, dtype=float)
        out = np.empty(np.broadcast(weights, x).shape, dtype=float)
        flat_w = np.broadcast_to(weights, out.shape)
        flat_x = np.broadcast_to(x, out.shape)
        it = np.nditer(out, flags=["multi_index"], op_flags=["writeonly"])
        for cell in it:
            idx = it.multi_index
            cell[...] = self.cdf(float(flat_w[idx]), float(flat_x[idx]))
        return out

    def ranks_array(self, weights: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Vectorized rank computation; zero weights map to ``+inf``."""
        out = np.empty(len(weights), dtype=float)
        for idx, (w, u) in enumerate(zip(weights, seeds)):
            out[idx] = self.rank(float(w), float(u))
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self).__name__)


class ExponentialRanks(RankFamily):
    """EXP ranks: ``f_w = Exp(w)``, ``F_w(x) = 1 - exp(-w x)``.

    >>> fam = ExponentialRanks()
    >>> fam.cdf(2.0, 0.0)
    0.0
    >>> round(fam.cdf(2.0, fam.inv_cdf(2.0, 0.3)), 12)
    0.3
    """

    name = "exp"

    def cdf(self, weight: float, x: float) -> float:
        if weight <= 0.0 or x <= 0.0:
            return 0.0
        if x == _INF:
            return 1.0
        # -expm1(-wx) = 1 - exp(-wx) computed stably for small wx.
        return -math.expm1(-weight * x)

    def inv_cdf(self, weight: float, u: float) -> float:
        if weight <= 0.0:
            return _INF
        if not 0.0 < u < 1.0:
            raise ValueError(f"seed u must lie in (0, 1), got {u!r}")
        # -log1p(-u)/w = -ln(1-u)/w computed stably for small u.  Uses
        # np.log1p rather than math.log1p so the per-item path is
        # bit-identical to the vectorized ranks_array path (libm and
        # numpy's SIMD log1p can differ in the last ulp on AVX-512 builds).
        return float(-np.log1p(-u) / weight)

    def cdf_array(self, weights: np.ndarray, x: float) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if x == _INF:
            return np.where(weights > 0.0, 1.0, 0.0)
        if x <= 0.0:
            return np.zeros(len(weights))
        # an extreme weight overflows -w·x to -inf, and expm1(-inf) = -1
        # gives F = 1 exactly: the overflow is harmless
        with np.errstate(over="ignore"):
            vals = -np.expm1(-weights * x)
        return np.where(weights > 0.0, vals, 0.0)

    def ranks_array(self, weights: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        seeds = np.asarray(seeds, dtype=float)
        with np.errstate(divide="ignore"):
            vals = -np.log1p(-seeds) / weights
        return np.where(weights > 0.0, vals, _INF)

    def cdf_matrix(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        x = np.asarray(x, dtype=float)
        # An infinite threshold needs no case of its own: a positive
        # weight gives 1 either way, and a zero weight's 0 · inf = NaN is
        # masked out with every other non-positive cell.  An extreme
        # weight overflows -w·x to -inf, and expm1(-inf) = -1 gives F = 1
        # exactly: the overflow is harmless too.
        with np.errstate(invalid="ignore", over="ignore"):
            vals = -np.expm1(-weights * x)
        return np.where((weights > 0.0) & (x > 0.0), vals, 0.0)


class IppsRanks(RankFamily):
    """IPPS ranks: ``f_w = U[0, 1/w]``, ``F_w(x) = min(1, w x)``.

    Bottom-k sampling with IPPS ranks is priority sampling (PRI); Poisson
    sampling with IPPS ranks has inclusion probability proportional to size.

    >>> fam = IppsRanks()
    >>> fam.rank(20.0, 0.22)
    0.011
    """

    name = "ipps"

    def cdf(self, weight: float, x: float) -> float:
        if weight <= 0.0 or x <= 0.0:
            return 0.0
        return min(1.0, weight * x)

    def inv_cdf(self, weight: float, u: float) -> float:
        if weight <= 0.0:
            return _INF
        if not 0.0 < u < 1.0:
            raise ValueError(f"seed u must lie in (0, 1), got {u!r}")
        return u / weight

    def cdf_array(self, weights: np.ndarray, x: float) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if x <= 0.0:
            return np.zeros(len(weights))
        if x == _INF:
            return np.where(weights > 0.0, 1.0, 0.0)
        return np.where(weights > 0.0, np.minimum(1.0, weights * x), 0.0)

    def ranks_array(self, weights: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        seeds = np.asarray(seeds, dtype=float)
        with np.errstate(divide="ignore"):
            vals = seeds / weights
        return np.where(weights > 0.0, vals, _INF)

    def cdf_matrix(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        x = np.asarray(x, dtype=float)
        # An infinite threshold needs no case of its own: a positive
        # weight gives 1 either way, and a zero weight's 0 · inf = NaN is
        # masked out with every other non-positive cell.
        with np.errstate(invalid="ignore"):
            vals = np.minimum(1.0, weights * x)
        return np.where((weights > 0.0) & (x > 0.0), vals, 0.0)


_FAMILIES: dict[str, RankFamily] = {
    IppsRanks.name: IppsRanks(),
    ExponentialRanks.name: ExponentialRanks(),
}

#: the names :func:`get_rank_family` accepts (the CLIs' ``--family``)
RANK_FAMILIES = tuple(_FAMILIES)


def get_rank_family(name: str) -> RankFamily:
    """Look a rank family up by name (``"exp"`` or ``"ipps"``).

    >>> get_rank_family("ipps").name
    'ipps'
    """
    try:
        return _FAMILIES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown rank family {name!r}; known: {known}") from None
